"""Phase coherence of global states.

The metric places the k_Phi oscillators of each phase group on the unit
circle and takes the magnitude of the mean position.  The continuous order
parameter of real-valued phases, which backs the discrete-to-continuous
correspondence bound, is a test oracle.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .core import State


def phase_position(phi: int, t: int) -> complex:
    """Unit-circle position of a discrete phase value: e^{i 2*pi (phi-1)/t}."""
    if not 1 <= phi <= t:
        raise ValueError(f"phase {phi} out of range 1..{t}")
    return cmath.exp(2j * math.pi * (phi - 1) / t)


def phase_coherence(sigma: State, t: int) -> float:
    """Magnitude of the mean unit-circle position of all oscillators; 1 iff
    the state is synchronised."""
    n = sum(sigma)
    if any(k == n for k in sigma):
        return 1.0  # exact, avoids |e^{i theta}| rounding below one
    total = sum(k * phase_position(phi, t) for phi, k in enumerate(sigma, start=1) if k)
    return min(abs(total) / n, 1.0)


def phase_coherences(states: np.ndarray, t: int) -> np.ndarray:
    """``phase_coherence`` of every row of an (S, T) count array, bit for
    bit: the positions are added in phase order, and the magnitude is taken
    with ``hypot``, as ``abs`` of a complex number is (``np.abs`` differs
    in the last bits)."""
    columns = np.ascontiguousarray(states.T)  # one contiguous copy, read once per phase
    re, im, term = np.zeros(len(states)), np.zeros(len(states)), np.empty(len(states))
    for phi, column in enumerate(columns, start=1):
        z = phase_position(phi, t)
        re += np.multiply(column, z.real, out=term)
        im += np.multiply(column, z.imag, out=term)
    n = columns.sum(axis=0)
    coherence = np.minimum(np.divide(np.hypot(re, im, out=re), n, out=re), 1.0, out=re)
    return np.where((columns == n).any(axis=0), 1.0, coherence)
