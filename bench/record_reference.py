"""Write reference.json: the values the benchmark checks outputs against.

    python3 bench/record_reference.py

Run once, at the commit whose outputs become the reference; the file then
stays fixed, so a later change that alters any output fails the benchmark.
Exact commands keep their CSV rows (wall_ms aside) and exports keep their
files' SHA-256.  Monte Carlo rows are checked against exact targets
computed here from the chain: the mean time to synchronise, with its
standard deviation from the second moment, and the probability of ever
synchronising.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

from check import KEY_COLUMNS, read_csv  # noqa: E402
from pcosync import ModelParams, build_dtmc, cli  # noqa: E402
from pcosync.analysis import expected_reward, reach_probability, target_set  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXACT_COLUMNS = ("value", "per_node_mWh", "reach_probability", "states", "transitions")


def flag(argv: tuple[str, ...], name: str) -> str:
    return argv[argv.index(name) + 1]


def params_of(argv: tuple[str, ...]) -> ModelParams:
    return ModelParams(n=int(flag(argv, "--n")), t=int(flag(argv, "--t")),
                       r=int(flag(argv, "--r")), epsilon=float(flag(argv, "--eps")),
                       mu=float(flag(argv, "--mu")))


def time_to_sync(p: ModelParams) -> tuple[float, float, float]:
    """Probability of reaching coherence 1, and mean and standard deviation
    of the time it takes, over the initial distribution."""
    model = build_dtmc(p)
    targets = target_set(model, 1.0)
    reach, _ = reach_probability(model, targets)
    m1, _ = expected_reward(model, targets, "time", reach=reach)
    weights = model.initial
    p_reach = sum(w * reach[i] for i, w in weights.items())
    mean = sum(w * m1[i] for i, w in weights.items())
    if not math.isfinite(mean):
        return p_reach, mean, math.nan
    # m2(s) = sum_t P(s,t) (r^2 + 2 r m1(t) + m2(t)), zero on the targets
    unknown = [i for i in range(model.n_states) if i not in targets]
    pos = {s: k for k, s in enumerate(unknown)}
    rows, cols, vals = [], [], []
    c = np.zeros(len(unknown))
    for k, s in enumerate(unknown):
        for tr in model.transitions[s]:
            rest = 0.0 if tr.target in targets else m1[tr.target]
            c[k] += tr.probability * (tr.time_reward ** 2 + 2.0 * tr.time_reward * rest)
            if tr.target in pos:
                rows.append(k)
                cols.append(pos[tr.target])
                vals.append(tr.probability)
    a = sp.csr_matrix((vals, (rows, cols)), shape=(len(unknown), len(unknown)))
    m2 = np.zeros(model.n_states)
    m2[unknown] = spla.spsolve((sp.identity(len(unknown)) - a).tocsc(), c)
    second = sum(w * m2[i] for i, w in weights.items())
    return p_reach, mean, math.sqrt(second - mean ** 2)


def record_command(command, out_dir: Path) -> dict:
    if command.exports:
        files = sorted((out_dir / command.name).iterdir())
        return {"files": {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}}
    rows, statuses = read_csv(out_dir / f"{command.name}.csv")
    if statuses != ["ok"]:
        raise SystemExit(f"{command.name}: status {statuses}")
    expected = []
    for row in rows:
        if command.seeded:
            p_reach, mean, sd = time_to_sync(params_of(command.argv))
            samples = int(flag(command.argv, "--samples"))
            if math.isfinite(mean):
                checks = [{"column": "value", "mean": mean, "sd": sd, "samples": samples}]
            else:  # most runs never synchronise: check how many do
                checks = [{"column": "reach_probability", "p": p_reach, "samples": samples}]
        else:
            checks = [{"column": c, "equals": row[c]} for c in EXACT_COLUMNS]
        expected.append({"key": {k: row[k] for k in KEY_COLUMNS}, "checks": checks})
    return {"rows": expected}


def main() -> int:
    commit = subprocess.run(["git", "-C", str(BENCH.parent), "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    reference = {"recorded_at": commit, "workloads": {}}
    for workload in WORKLOADS.values():
        entry = reference["workloads"][workload.name] = {}
        WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            out_dir = Path(tmp)
            for command in workload.commands:
                if cli.main(command.full_argv(out_dir, seed=1)) != 0:
                    raise SystemExit(f"{command.name} failed")
                entry[command.name] = record_command(command, out_dir)
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
