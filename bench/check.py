"""Score a workload's outputs against the values in reference.json.

An operation is one expected CSV row, the status row of one CSV, or one
exported file.  It fails if it is missing, if the status is not ``ok``, if
a value fails its check or if a file's SHA-256 differs.  A CSV row that no
reference row matches counts as one more failed operation.

Checks on a row column:
* ``equals``: exact rows; numbers within a relative tolerance of 1e-9,
  anything else as the same string;
* ``mean``/``sd``/``samples``: a Monte Carlo mean within 5 standard errors;
* ``p``/``samples``: a sampled probability within 5 binomial sigmas.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

KEY_COLUMNS = ("N", "T", "R", "epsilon", "mu", "lambda", "U", "profile", "metric", "aggregate")
REL_TOL = 1e-9
SIGMAS = 5.0
STATUS_PREFIX = "# status:"


@dataclass
class Score:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def op(self, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failures.append(error)

    def add(self, other: Score) -> None:
        self.attempted += other.attempted
        self.failures += other.failures


def read_csv(path: Path) -> tuple[list[dict[str, str]], list[str]]:
    """Data rows as dicts keyed by the header, and the status messages."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = list(csv.reader(fh))
    header, rows, statuses = lines[0] if lines else [], [], []
    for line in lines[1:]:
        if line and line[0].startswith(STATUS_PREFIX):
            statuses.append(line[0][len(STATUS_PREFIX):].strip())
        else:
            rows.append(dict(zip(header, line)))
    return rows, statuses


def check_value(check: dict, row: dict[str, str]) -> str | None:
    """None if the row passes the check, else what is wrong."""
    column = check["column"]
    got = row.get(column)
    if got is None:
        return f"no column {column}"
    if "equals" in check:
        want = check["equals"]
        try:
            ok = math.isclose(float(got), float(want), rel_tol=REL_TOL)
        except ValueError:
            ok = got == want
        return None if ok else f"{column}={got}, expected {want}"
    if "mean" in check:
        target = check["mean"]
        tol = SIGMAS * check["sd"] / math.sqrt(check["samples"])
    else:
        target = check["p"]
        tol = SIGMAS * math.sqrt(target * (1.0 - target) / check["samples"])
    try:
        ok = abs(float(got) - target) <= tol
    except ValueError:
        ok = False
    return None if ok else f"{column}={got}, expected {target} +- {tol:.4g}"


def score_command(expected: dict, out_dir: Path, name: str) -> Score:
    score = Score()
    if "files" in expected:
        for file_name, digest in sorted(expected["files"].items()):
            path = out_dir / name / file_name
            if not path.is_file():
                score.op(f"{name}: {file_name} missing")
            else:
                got = hashlib.sha256(path.read_bytes()).hexdigest()
                score.op(None if got == digest else f"{name}: {file_name} sha256 {got}")
        return score

    path = out_dir / f"{name}.csv"
    rows, statuses = read_csv(path) if path.is_file() else ([], [])
    score.op(None if statuses == ["ok"] else f"{name}: status rows {statuses}")
    for exp in expected["rows"]:
        key = exp["key"]
        match = next((r for r in rows if all(r.get(k) == v for k, v in key.items())), None)
        if match is None:
            score.op(f"{name} {key}: row missing")
            continue
        rows.remove(match)
        errors = [e for e in (check_value(c, match) for c in exp["checks"]) if e]
        score.op(f"{name} {key}: {'; '.join(errors)}" if errors else None)
    for extra in rows:
        score.op(f"{name}: unexpected row {extra}")
    return score


def score_workload(expected: dict[str, dict], out_dir: Path) -> Score:
    """Score every command of one workload; expected maps command names to
    their reference entries."""
    total = Score()
    for name, entry in expected.items():
        total.add(score_command(entry, out_dir, name))
    return total
