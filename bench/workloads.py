"""The benchmark's workloads: pcosync command lines run in-process through
``pcosync.cli.main``.

Each workload loads a different layer (see README.md).  The exact commands
are deterministic; only the ``simulate`` commands take the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# N=8, T=10 model used by analyze_n8 and by the export in construct.
N8_R2 = ("--n", "8", "--t", "10", "--r", "2", "--eps", "0.1", "--mu", "0.2")


@dataclass(frozen=True)
class Command:
    """One ``pcosync`` command line.

    ``name`` keys the command's outputs in reference.json and names its
    output file (``<name>.csv``) or export directory (``<name>/m.*``).
    """

    name: str
    argv: tuple[str, ...]
    seeded: bool = False

    @property
    def exports(self) -> bool:
        return self.argv[0] == "export"

    def full_argv(self, out_dir: Path, seed: int) -> list[str]:
        argv = list(self.argv)
        if self.seeded:
            argv += ["--seed", str(seed)]
        if self.exports:
            argv += ["--out", str(out_dir / self.name / "m")]
        else:
            argv += ["--output", str(out_dir / f"{self.name}.csv")]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analyze_n8",
            "four queries on one 24,310-state model; the sparse linear solve dominates",
            (
                Command("analyze", (
                    "analyze", *N8_R2, "--lambda", "1.0",
                    "--query", "time:avg", "--query", "time:max",
                    "--query", "power:avg", "--query", "power:max",
                )),
            ),
        ),
        Workload(
            "construct",
            "restab builds at N=35,100,200 plus an N=8 export; successor construction dominates",
            (
                Command("restab", (
                    "restab", "--n", "35,100,200", "--t", "10", "--r", "4", "--eps", "0.1",
                    "--mu", "0.2", "--u", "3", "--lambda", "1.0",
                    "--query", "time:avg", "--query", "power:avg",
                )),
                Command("export", ("export", *N8_R2)),
            ),
        ),
        Workload(
            "simulate",
            "seeded Monte Carlo, short runs at N=8 and step-capped runs at N=3; only the sampler works",
            (
                Command("simulate_n8", (
                    "simulate", "--n", "8", "--t", "10", "--r", "1", "--eps", "0.1", "--mu", "0.2",
                    "--samples", "5000", "--query", "time:avg",
                ), seeded=True),
                Command("simulate_trapped", (
                    "simulate", "--n", "3", "--t", "4", "--r", "1", "--eps", "0.1", "--mu", "0.2",
                    "--samples", "50", "--query", "time:avg",
                ), seeded=True),
            ),
        ),
    )
}
