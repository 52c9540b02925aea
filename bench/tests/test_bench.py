"""Tests of the benchmark's own logic.  They run no workload:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from check import KEY_COLUMNS, score_command, score_workload  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# --- self time -------------------------------------------------------------

def test_self_times_of_nested_spans():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    parents = [-1, 0, 1, 0]
    durations = [10.0, 3.0, 1.0, 4.0]
    assert tracing.self_times(parents, durations) == [3.0, 2.0, 1.0, 4.0]


class FakeClock:
    """perf_counter stand-in that advances one second per reading."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_summary_adds_self_times_by_layer(monkeypatch):
    monkeypatch.setattr(time, "perf_counter", FakeClock())
    tracer = tracing.Tracer()
    phase = tracer.span("metrics.phase_coherence", lambda: None)
    target = tracer.span("analysis.target_set", lambda: {phase(), phase()})
    main = tracer.span("cli.main", lambda: target())
    main()
    # clock readings: main 1..8, target 2..7, phase 3..4 and 5..6
    m = tracer.summary(wall_s=7.0)
    assert m["analysis.target_set_s"] == 5.0
    assert m["metrics.phase_coherence_s"] == 2.0
    assert m["metrics.phase_coherence_calls"] == 2
    assert (m["cli.self_s"], m["analysis.self_s"], m["metrics.self_s"]) == (2.0, 3.0, 2.0)
    assert m["trace.self_sum_ratio"] == 1.0


def test_summary_reports_uncalled_functions_as_zero():
    m = tracing.Tracer().summary(wall_s=1.0)
    assert set(m) == set(tracing.UNITS) - {"trace.overhead_s"}
    assert m["dynamics.successor_distribution_calls"] == 0
    assert m["dynamics.branches_per_failure_vector"] == 0


def test_install_wraps_layers_in_a_fresh_interpreter(tmp_path):
    # install() rebinds pcosync globals, so it runs in its own process
    script = f"""
import json, sys
sys.path[:0] = [{str(BENCH.parent / 'src')!r}, {str(BENCH)!r}]
import pcosync.cli, tracing
tracer = tracing.Tracer()
tracing.install(tracer)
argv = "analyze --n 3 --t 4 --r 1 --eps 0.1 --mu 0.2 --query time:avg".split()
assert pcosync.cli.main(argv + ["--output", {str(tmp_path / 'out.csv')!r}]) == 0
print(json.dumps(tracer.summary(wall_s=1.0)))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, check=True)
    m = json.loads(proc.stdout)
    assert m["dtmc.build_dtmc_calls"] == 1
    assert m["analysis.solve_query_calls"] == 1
    assert m["analysis.linsolve_calls"] == 2  # reachability, then expected time
    assert m["analysis.linsolve_unknowns"] > 0
    assert m["dynamics.successor_distribution_calls"] > 0
    assert 0 < m["dynamics.branches_per_failure_vector"] <= 1
    assert m["metrics.phase_coherence_calls"] == m["dtmc.states"]


# --- reference checks ------------------------------------------------------

HEADER = list(KEY_COLUMNS) + ["value", "reach_probability", "wall_ms"]


def key(n: int) -> dict[str, str]:
    return dict(zip(KEY_COLUMNS, [str(n), "10", "1", "0.1", "0.2", "1", "", "micaz", "time", "avg"]))


def write_csv(path: Path, rows: list[list[str]], status: str = "ok") -> None:
    lines = [",".join(HEADER)] + [",".join(r) for r in rows] + [f"# status: {status}"]
    path.write_text("\n".join(lines) + "\n")


def row(n: int, value: str, reach: str = "1") -> list[str]:
    return list(key(n).values()) + [value, reach, "12.5"]


EXACT = {"rows": [
    {"key": key(n), "checks": [{"column": "value", "equals": v},
                               {"column": "reach_probability", "equals": "1"}]}
    for n, v in ((4, "2.5"), (8, "4.447372037"))
]}


def test_exact_rows_pass(tmp_path):
    write_csv(tmp_path / "a.csv", [row(4, "2.5"), row(8, "4.447372037")])
    score = score_command(EXACT, tmp_path, "a")
    assert (score.attempted, score.failed) == (3, 0)  # two rows and the status


def test_last_printed_digit_is_within_tolerance(tmp_path):
    write_csv(tmp_path / "a.csv", [row(4, "2.500000001"), row(8, "4.447372038")])
    assert score_command(EXACT, tmp_path, "a").failed == 0


@pytest.mark.parametrize("rows, status", [
    ([row(4, "2.5"), row(8, "4.45")], "ok"),  # wrong value
    ([row(4, "2.5")], "ok"),  # missing row
    ([row(4, "2.5"), row(8, "4.447372037")], "error: state-space cap exceeded"),
    ([row(4, "2.5"), row(8, "4.447372037"), row(9, "1")], "ok"),  # unexpected row
])
def test_each_fault_is_one_failed_operation(tmp_path, rows, status):
    write_csv(tmp_path / "a.csv", rows, status)
    assert score_command(EXACT, tmp_path, "a").failed == 1


def test_missing_csv_fails_every_operation(tmp_path):
    score = score_command(EXACT, tmp_path, "a")
    assert (score.attempted, score.failed) == (3, 3)


def test_changed_export_hash_is_one_failed_operation(tmp_path):
    (tmp_path / "e").mkdir()
    files = {"m.sta": b"0:(1,0)\n", "m.tra": b"1 1\n0 0 1\n"}
    for name, data in files.items():
        (tmp_path / "e" / name).write_bytes(data)
    expected = {"files": {n: hashlib.sha256(d).hexdigest() for n, d in files.items()}}
    assert score_command(expected, tmp_path, "e").failed == 0
    (tmp_path / "e" / "m.tra").write_bytes(b"1 1\n0 0 0.5\n")
    score = score_command(expected, tmp_path, "e")
    assert (score.attempted, score.failed) == (2, 1)


def test_monte_carlo_checks(tmp_path):
    expected = {"mc": {"rows": [{"key": key(8), "checks": [
        {"column": "value", "mean": 4.447, "sd": 4.5, "samples": 10000}]}]},
                "trap": {"rows": [{"key": key(3), "checks": [
                    {"column": "reach_probability", "p": 0.25, "samples": 200}]}]}}
    # 5 standard errors are 0.225 for the mean and 0.153 for the probability
    write_csv(tmp_path / "mc.csv", [row(8, "4.6")])
    write_csv(tmp_path / "trap.csv", [row(3, "2033.5", reach="0.39")])
    assert score_workload(expected, tmp_path).failed == 0
    write_csv(tmp_path / "mc.csv", [row(8, "4.7")])
    write_csv(tmp_path / "trap.csv", [row(3, "2033.5", reach="0.41")])
    score = score_workload(expected, tmp_path)
    assert (score.attempted, score.failed) == (4, 2)


# --- benchmark definition --------------------------------------------------

def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS


def test_reference_covers_every_command():
    reference = json.loads((BENCH / "reference.json").read_text())["workloads"]
    for name, workload in WORKLOADS.items():
        assert set(reference[name]) == {c.name for c in workload.commands}
