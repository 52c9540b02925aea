"""Explicit-state export of a built model.

Three plain-text artefacts per model: a states file mapping indices to count
tuples, a transitions file with a ``<numStates> <numTransitions>`` header and
one ``<src> <dst> <prob>`` line per transition, and one transition-rewards
file per reward kind with ``transition_rewards`` as ``<src> <dst> <reward>``
lines.  Values are printed with 17 significant digits so re-parsing is lossless.

One byte formatter writes every file.  Each field of a line is a slot of
whole 8-byte words that holds its text and the separator after it: a state
index with ``" "`` or ``":("``, a count with ``","`` or ``")\\n"``, a value's
``.17g`` string with ``"\\n"``.  Leading zeros and padding are NUL bytes.
The lines of ``CHUNK`` states are one array of such slots, gathered from
tables of formatted indices, counts and values, and dropping its NUL bytes
leaves the file's bytes.  The ``<src> `` and ``<dst> `` slots of a chunk
are gathered once for all three entry files.  A model has few distinct
probabilities and rewards, found by sorting, so each is formatted once and
each entry keeps only its value's row in the narrowest dtype.
"""

from __future__ import annotations

from pathlib import Path
from typing import BinaryIO

import numpy as np

from .dtmc import DtmcModel, transition_rewards

#: States whose lines are formatted per write.
CHUNK = 4096


def _slot(nbytes: int) -> int:
    return -(-nbytes // 8) * 8


def int_words(values: np.ndarray, tail: bytes) -> np.ndarray:
    """Each non-negative integer of ``values`` in decimal followed by
    ``tail``, as one slot of whole 8-byte words: the text at the slot's end,
    NUL bytes before it."""
    top = int(values.max(initial=0))
    digits = len(str(top))
    size = _slot(digits + len(tail))
    rest = values.astype(np.min_scalar_type(top))
    grid = np.zeros((len(values), size), np.uint8)
    grid[:, size - len(tail):] = np.frombuffer(tail, np.uint8)
    units = size - len(tail) - 1
    grid[:, units] = rest % 10 + ord("0")
    for col in range(units - 1, units - digits, -1):
        rest //= 10
        grid[:, col] = np.where(rest > 0, rest % 10 + ord("0"), 0)
    return grid.view(f"V{size}")[:, 0]


def float_words(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``.17g`` string and ``"\\n"`` of each distinct value (by bit
    pattern) as one slot of whole 8-byte words, and the row of each entry's
    slot in the narrowest dtype."""
    bits = np.sort(values.view(np.uint64))
    bits = bits[np.append(True, bits[1:] != bits[:-1])]
    strings = [f"{v:.17g}\n".encode() for v in bits.view(np.float64).tolist()]
    size = _slot(max(map(len, strings)))
    table = np.frombuffer(b"".join(s.rjust(size, b"\0") for s in strings), f"V{size}")
    rows = np.searchsorted(bits, values.view(np.uint64))
    return table, rows.astype(np.min_scalar_type(len(bits) - 1))


def _text(*fields: np.ndarray) -> bytes:
    """The rows of the fields' slots side by side, NUL bytes dropped."""
    lines = np.empty(len(fields[0]), [("", f.dtype, f.shape[1:]) for f in fields])
    for name, field in zip(lines.dtype.names, fields):
        lines[name] = field
    return lines.tobytes().translate(None, b"\0")


def write_states(model: DtmcModel, path: str | Path) -> None:
    """One ``<i>:(<k_1>,...,<k_T>)`` line per state."""
    counts = model.states.array
    values = np.arange(int(counts.max(initial=0)) + 1)
    comma, close = int_words(values, b","), int_words(values, b")\n")
    with open(path, "wb") as fh:
        for start in range(0, len(counts), CHUNK):
            block = counts[start:start + CHUNK]
            names = int_words(np.arange(start, start + len(block)), b":(")
            fh.write(_text(names, comma.take(block[:, :-1]), close.take(block[:, -1])))


def _write_entries(model: DtmcModel, outputs: list[tuple[BinaryIO, np.ndarray, np.ndarray]]) -> None:
    """One ``<src> <dst> <value>`` line per transition, in CSR order, to each
    file with its own ``float_words``; every chunk's ``<src> `` and
    ``<dst> `` slots are gathered once for all files."""
    m = model.transitions
    names = int_words(np.arange(m.shape[0]), b" ")
    for first in range(0, len(names), CHUNK):
        bounds = m.indptr[first:first + CHUNK + 1]
        entries = slice(bounds[0], bounds[-1])
        src = np.repeat(names[first:first + CHUNK], np.diff(bounds))
        dst = names.take(m.indices[entries])
        for fh, table, rows in outputs:
            fh.write(_text(src, dst, table.take(rows[entries])))


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
    with open(paths["transitions"], "wb") as tra, open(paths["time_rewards"], "wb") as time_fh, \
            open(paths["power_rewards"], "wb") as power_fh:
        tra.write(f"{model.n_states} {model.n_transitions}\n".encode())
        _write_entries(model, [
            (tra, *float_words(model.transitions.data)),
            (time_fh, *float_words(transition_rewards(model, "time"))),
            (power_fh, *float_words(transition_rewards(model, "power"))),
        ])
    return paths
