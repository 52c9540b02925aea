"""Benchmark harness for pcosync.

    python3 bench/run.py --workload analyze_n8 --seed 1 --seconds 35 --trace 0

Runs one workload again and again for ``--seconds``, each iteration in a
fresh Python process (``worker.py``, one at a time), and checks every output
of every iteration against ``reference.json``.  It prints every metric by
name with its unit, then, as the last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates untraced and traced iterations, so it also reports the
end-to-end metrics and the tracing overhead.  Exits nonzero if any output
is wrong.  ``--results FILE`` also stores the run, with its provenance, in
FILE under the key ``<workload>/trace<0|1>``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from check import Score, score_workload
from tracing import UNITS as LAYER_UNITS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_SETUP_SAMPLES = 10
WORKER_TIMEOUT_S = 120
SELF_SUM_TOLERANCE = 0.10
# Each workload is measured single-threaded; the worker gets these set to 1.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def run_worker(out_dir: Path, workload: str | None = None, seed: int = 0,
               traced: bool = False, spans: Path | None = None) -> dict | None:
    """Run one worker process to completion; its result, or None if it failed.
    Without a workload the worker only times the import."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--out-dir", str(out_dir)]
    if workload:
        cmd += ["--workload", workload, "--seed", str(seed), "--trace", str(int(traced))]
    if spans:
        cmd += ["--spans", str(spans)]
    env = {**os.environ, **{var: "1" for var in BLAS_THREAD_VARS}}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    result = out_dir / "result.json"
    if proc.returncode != 0 or not result.is_file():
        print(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def import_time() -> float:
    """setup_s of one import-only worker."""
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        result = run_worker(Path(tmp))
    if result is None:
        raise RuntimeError("pcosync.cli could not be imported")
    return result["setup_s"]


def summarise(samples: list[float], unit: str) -> dict:
    return {"value": statistics.median(samples), "unit": unit, "samples": len(samples),
            "min": min(samples), "max": max(samples)}


def provenance(seed: int, versions: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "commit": commit or None,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        **versions,
        "blas_thread_env": {var: "1" for var in BLAS_THREAD_VARS},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the iterations and check their outputs; returns the run record."""
    reference = json.loads((BENCH / "reference.json").read_text())["workloads"][workload]
    WORK.mkdir(exist_ok=True)
    spans = WORK / f"spans-{workload}.json"
    score = Score()
    import_time()  # the first import may compile bytecode; not counted

    # Each iteration's worker gives one setup_s sample.  While there are
    # fewer than MIN_SETUP_SAMPLES, an import-only worker follows each
    # iteration, so the samples of a workload with few long iterations are
    # still spread over the run and a short slow spell of the host does not
    # decide the median.
    iterations: list[dict] = []
    setup: list[float] = []
    start = time.perf_counter()
    i = 0
    while i < 1 + trace or time.perf_counter() - start < seconds:
        traced = trace and i % 2 == 1
        it_seed = seed * 1000 + i
        i += 1
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            result = run_worker(Path(tmp), workload, it_seed, traced, spans if traced else None)
            score.add(score_workload(reference, Path(tmp)))
        if result is None:
            score.op(f"seed {it_seed}: worker failed")
            continue
        if traced:
            ratio = result["layers"]["trace.self_sum_ratio"]
            score.op(None if abs(ratio - 1.0) <= SELF_SUM_TOLERANCE else
                     f"seed {it_seed}: layer self times sum to {ratio:.3f} of traced wall_s")
        iterations.append({"seed": it_seed, "traced": traced, **result})
        setup.append(result["setup_s"])
        if len(setup) < MIN_SETUP_SAMPLES:
            setup.append(import_time())
    if not any(not it["traced"] for it in iterations):
        raise RuntimeError("no untraced iteration completed")

    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(import_time())

    plain = [it for it in iterations if not it["traced"]]
    metrics = {
        "wall_s": summarise([it["wall_s"] for it in plain], "s"),
        "setup_s": summarise(setup, "s"),
        "peak_rss_mb": summarise([it["peak_rss_mb"] for it in plain], "MB"),
    }
    traced = [it for it in iterations if it["traced"]]
    if trace and not traced:
        raise RuntimeError("no traced iteration completed")
    if traced:
        for name, unit in LAYER_UNITS.items():
            if name != "trace.overhead_s":
                metrics[name] = summarise([it["layers"].get(name, 0.0) for it in traced], unit)
        overhead = metrics["trace.wall_s"]["value"] - metrics["wall_s"]["value"]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s", "samples": 1,
                                       "min": overhead, "max": overhead}
    return {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "provenance": provenance(seed, iterations[0]["versions"]),
        "attempted": score.attempted,
        "failed": score.failed,
        "error_rate": score.failed / score.attempted,
        "failures": score.failures[:50],
        "metrics": metrics,
        "iterations": [{k: v for k, v in it.items() if k not in ("layers", "versions")}
                       for it in iterations],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="pcosync benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, help="store the run record in this JSON file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pcosync" / "cli.py").is_file():
        print(f"error: no pcosync sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    its = record["iterations"]
    print(f"{args.workload} seed {args.seed}: {len(its)} iterations"
          f" ({sum(it['traced'] for it in its)} traced), {record['attempted']} operations,"
          f" {record['failed']} failed, error_rate {record['error_rate']:.4g}")
    for name, m in record["metrics"].items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']:6s} median of {m['samples']}")

    if args.results:
        stored = json.loads(args.results.read_text()) if args.results.is_file() else {}
        stored[f"{args.workload}/trace{args.trace}"] = record
        args.results.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    names = LAYER_UNITS if args.trace else E2E_UNITS
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": record["metrics"][n]["value"], "unit": u}
                    for n, u in names.items()},
    }))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
