"""Explicit-state export of a built model.

Three plain-text artefacts per model: a states file mapping indices to count
tuples, a transitions file with a ``<numStates> <numTransitions>`` header and
one ``<src> <dst> <prob>`` line per transition, and one transition-rewards
file per reward kind with ``<src> <dst> <reward>`` lines.  Probabilities and
rewards are printed with 17 significant digits so re-parsing is lossless.

Lines are formatted ``CHUNK`` at a time, so temporaries stay bounded however
large the model is.  A model has few distinct probabilities and rewards, so
each distinct value is formatted once and its string reused for every entry
that holds it.
"""

from __future__ import annotations

import operator
from pathlib import Path
from typing import TextIO

import numpy as np

from .dtmc import DtmcModel

#: States or entries formatted per write.
CHUNK = 4096


def _create(path: str | Path) -> TextIO:
    return open(path, "w", encoding="utf-8", newline="\n")


def write_states(model: DtmcModel, path: str | Path) -> None:
    """One ``<i>:(<k_1>,...,<k_T>)`` line per state.  A chunk's lines are
    cut from one ``uint8`` array: each integer has a fixed-width slot of
    digits, wide enough for the largest index or count, and a mask drops
    its leading zeros."""
    counts = model.states.array
    n, t = counts.shape
    widths = [len(str(n))] + [len(str(int(counts.max(initial=0))))] * t
    line, slots, field, place = b"", [], [], []
    for i, (width, sep) in enumerate(zip(widths, [b":("] + [b","] * (t - 1) + [b")\n"])):
        slots += range(len(line), len(line) + width)
        field += [i] * width
        place += [10**k for k in range(width - 1, -1, -1)]
        line += b"0" * width + sep
    template, place = np.frombuffer(line, np.uint8), np.array(place)
    with _create(path) as fh:
        for start in range(0, n, CHUNK):
            block = counts[start:start + CHUNK]
            values = np.column_stack((np.arange(start, start + len(block)), block))[:, field]
            text = np.tile(template, (len(block), 1))
            text[:, slots] = values // place % 10 + ord("0")
            keep = np.ones(text.shape, bool)
            keep[:, slots] = (values >= place) | (place == 1)
            fh.write(text[keep].tobytes().decode("ascii"))


def _formatted(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Each distinct value (by bit pattern) as a ``.17g`` line ending, and
    the position of every entry's string in that list."""
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    return [f"{v:.17g}\n" for v in bits.view(np.float64).tolist()], inverse


def _write_entries(model: DtmcModel, outputs: list[tuple[TextIO, np.ndarray]]) -> None:
    """One ``<src> <dst> <value>`` line per transition, in CSR order, to each
    file with its own values; every chunk's ``<src> <dst> `` prefixes are
    formatted once for all files."""
    m = model.transitions
    src = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    formatted = [(fh, *_formatted(values)) for fh, values in outputs]
    for start in range(0, m.nnz, CHUNK):
        end = min(start + CHUNK, m.nnz)
        pairs = np.column_stack((src[start:end], m.indices[start:end]))
        prefixes = ("%d %d \n" * (end - start) % tuple(pairs.ravel().tolist())).splitlines()
        for fh, strings, inverse in formatted:
            values = map(strings.__getitem__, inverse[start:end].tolist())
            fh.write("".join(map(operator.add, prefixes, values)))


def export_model(model: DtmcModel, prefix: str | Path) -> dict[str, Path]:
    """Write all four files, named ``<prefix>.sta``, ``.tra``, ``.time.trew``
    and ``.power.trew`` (dots in the prefix are kept); returns their paths."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    paths = {
        kind: prefix.parent / (prefix.name + suffix)
        for kind, suffix in (
            ("states", ".sta"),
            ("transitions", ".tra"),
            ("time_rewards", ".time.trew"),
            ("power_rewards", ".power.trew"),
        )
    }
    write_states(model, paths["states"])
    with _create(paths["transitions"]) as tra, _create(paths["time_rewards"]) as time_fh, \
            _create(paths["power_rewards"]) as power_fh:
        tra.write(f"{model.n_states} {model.n_transitions}\n")
        _write_entries(model, [
            (tra, model.transitions.data),
            (time_fh, model.rewards["time"]),
            (power_fh, model.rewards["power"]),
        ])
    return paths


def read_states(path: str | Path) -> list[tuple[int, ...]]:
    states = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            idx, counts = line.split(":", 1)
            if int(idx) != len(states):
                raise ValueError(
                    f"{path}, line {lineno}: state index {idx}, expected {len(states)}"
                )
            states.append(tuple(int(x) for x in counts.strip("()").split(",")))
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
