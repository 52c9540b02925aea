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
probabilities and rewards: a first pass finds each file's distinct values
chunk by chunk, so each is formatted once, and the second forms each
chunk's values from its rows and looks them up in that table.
"""

from __future__ import annotations

from pathlib import Path
from typing import BinaryIO, Callable

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


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D integer array, ascending; one sort and a
    neighbour mask, several times faster than ``np.unique``'s hash path."""
    values = np.sort(values)
    return values[np.append(True, values[1:] != values[:-1])]


def float_slots(bits: np.ndarray) -> np.ndarray:
    """The ``.17g`` string and ``"\\n"`` of the float of each bit pattern
    as one slot of whole 8-byte words."""
    strings = [f"{v:.17g}\n".encode() for v in bits.view(np.float64).tolist()]
    size = _slot(max(map(len, strings)))
    return np.frombuffer(b"".join(s.rjust(size, b"\0") for s in strings), f"V{size}")


#: Bytes of line slots per write.  The lines, their bytes and the NUL-free
#: copy of one write stay below glibc's default mmap threshold (128 KiB), so a
#: write reuses heap pages instead of mapping and faulting in fresh ones.
WRITE_BYTES = 1 << 16


def _write_text(fh: BinaryIO, *fields: np.ndarray) -> None:
    """The rows of the fields' slots side by side, NUL bytes dropped,
    written ``WRITE_BYTES`` of slots at a time."""
    dtype = np.dtype([("", f.dtype, f.shape[1:]) for f in fields])
    step = max(1, WRITE_BYTES // dtype.itemsize)
    for start in range(0, len(fields[0]), step):
        lines = np.empty(len(fields[0][start:start + step]), dtype)
        for name, field in zip(dtype.names, fields):
            lines[name] = field[start:start + step]
        fh.write(lines.tobytes().translate(None, b"\0"))


def write_states(model: DtmcModel, path: str | Path) -> None:
    """One ``<i>:(<k_1>,...,<k_T>)`` line per state."""
    counts = model.states.array
    values = np.arange(int(counts.max(initial=0)) + 1)
    comma, close = int_words(values, b","), int_words(values, b")\n")
    with open(path, "wb") as fh:
        for start in range(0, len(counts), CHUNK):
            block = counts[start:start + CHUNK]
            names = int_words(np.arange(start, start + len(block)), b":(")
            _write_text(fh, names, comma.take(block[:, :-1]), close.take(block[:, -1]))


def _write_entries(model: DtmcModel, outputs: list[tuple[BinaryIO, Callable[[int, int], np.ndarray]]]) -> None:
    """One ``<src> <dst> <value>`` line per transition, in CSR order, to each
    file, whose ``values(start, stop)`` are those of the transitions of rows
    ``start`` to ``stop``.  A first pass over the chunks finds each file's
    distinct values, which are formatted once; the second writes the lines,
    and every chunk's ``<src> `` and ``<dst> `` slots are gathered once for
    all files.  No array of every transition's value is formed."""
    m = model.transitions
    names = int_words(np.arange(m.shape[0]), b" ")
    chunks = [(first, min(first + CHUNK, len(names))) for first in range(0, len(names), CHUNK)]
    tables = []
    for _, values in outputs:
        bits = _distinct(np.concatenate([_distinct(values(*chunk).view(np.uint64)) for chunk in chunks]))
        tables.append((bits, float_slots(bits)))
    for first, stop in chunks:
        bounds = m.indptr[first:stop + 1]
        src = np.repeat(names[first:stop], np.diff(bounds))
        dst = names.take(m.indices[bounds[0]:bounds[-1]])
        for (fh, values), (bits, table) in zip(outputs, tables):
            _write_text(fh, src, dst, table.take(bits.searchsorted(values(first, stop).view(np.uint64))))


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
        m = model.transitions
        _write_entries(model, [
            (tra, lambda start, stop: m.data[m.indptr[start]:m.indptr[stop]]),
            (time_fh, lambda start, stop: transition_rewards(model, "time", start, stop)),
            (power_fh, lambda start, stop: transition_rewards(model, "power", start, stop)),
        ])
    return paths
