"""Explicit-state export of a built model.

Three plain-text artefacts per model: a states file mapping indices to count
tuples, a transitions file with a ``<numStates> <numTransitions>`` header and
one ``<src> <dst> <prob>`` line per transition, and one transition-rewards
file per reward kind with ``<src> <dst> <reward>`` lines.  Probabilities and
rewards are printed with 17 significant digits so re-parsing is lossless.
"""

from __future__ import annotations

from pathlib import Path
from typing import TextIO

import numpy as np

from .dtmc import DtmcModel


def write_states(model: DtmcModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, sigma in enumerate(model.states):
            fh.write(f"{i}:({','.join(str(k) for k in sigma)})\n")


def _write_entries(model: DtmcModel, fh: TextIO, values: np.ndarray) -> None:
    """One ``<src> <dst> <value>`` line per transition, in CSR order."""
    coo = model.transitions.tocoo()
    for src, dst, v in zip(coo.row.tolist(), coo.col.tolist(), values.tolist()):
        fh.write(f"{src} {dst} {v:.17g}\n")


def write_transitions(model: DtmcModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{model.n_states} {model.n_transitions}\n")
        _write_entries(model, fh, model.transitions.data)


def write_transition_rewards(model: DtmcModel, path: str | Path, reward_kind: str) -> None:
    if reward_kind not in model.rewards:
        raise ValueError(f"unknown reward kind {reward_kind!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _write_entries(model, fh, model.rewards[reward_kind])


def export_model(model: DtmcModel, prefix: str | Path) -> dict[str, Path]:
    """Write all four files with a common path prefix; returns their paths."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    paths = {
        "states": prefix.with_suffix(".sta"),
        "transitions": prefix.with_suffix(".tra"),
        "time_rewards": prefix.with_suffix(".time.trew"),
        "power_rewards": prefix.with_suffix(".power.trew"),
    }
    write_states(model, paths["states"])
    write_transitions(model, paths["transitions"])
    write_transition_rewards(model, paths["time_rewards"], "time")
    write_transition_rewards(model, paths["power_rewards"], "power")
    return paths


def read_states(path: str | Path) -> list[tuple[int, ...]]:
    states = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            idx, counts = line.split(":", 1)
            states.append(tuple(int(x) for x in counts.strip("()").split(",")))
            assert int(idx) == len(states) - 1
    return states


def read_transitions(path: str | Path) -> tuple[int, list[tuple[int, int, float]]]:
    """Returns the declared state count and the transition triples."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        n_states, n_transitions = int(header[0]), int(header[1])
        triples = []
        for line in fh:
            if not line.strip():
                continue
            src, dst, prob = line.split()
            triples.append((int(src), int(dst), float(prob)))
    if len(triples) != n_transitions:
        raise ValueError(
            f"transition file declares {n_transitions} transitions, found {len(triples)}"
        )
    return n_states, triples
