"""The README's code examples run against the package as it is."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The first Python code block of the README's "Library" section."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_block_runs(capsys):
    exec(compile(library_block(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    worst, time_avg, power_avg, per_state, per_node = lines
    reach_min, time_max, power_max = map(float, per_state.split())
    # the per-state arrays of one solve_target call agree with the queries
    assert time_max == float(worst)
    assert reach_min == 1.0
    assert 0.0 < float(time_avg) < time_max
    assert 0.0 < float(power_avg) < power_max
    assert float(per_node) > 0.0
