"""Domain types and the elementary oscillator functions.

Global states are plain tuples ``(k_1, ..., k_T)`` counting oscillators per
discrete phase value.  Failure vectors are tuples of the same length whose
entries are either an ``int`` (number of broadcast failures for a phase group
that fired) or ``None`` for groups that did not fire.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

State = tuple[int, ...]
FailureVector = tuple[int | None, ...]

# Sentinel used when rendering failure vectors; internally we use None.
STAR = "*"


def round_half_up(x: float | np.ndarray) -> int | np.ndarray:
    """Round to the nearest integer, ties away from zero: an int for a
    float, an int64 array for a float array.

    All rounded quantities in the model are non-negative, so ties-away-from-zero
    coincides with ties-up.  Centralized so an alternate tie rule is a one-line
    change.
    """
    up = np.floor(x + 0.5)
    return up.astype(np.int64) if isinstance(up, np.ndarray) else int(up)


def perturbation(phi: int, alpha: int | np.ndarray, epsilon: float) -> int | np.ndarray:
    """Linear phase response: nearest integer to phi * alpha * epsilon."""
    return round_half_up(phi * alpha * epsilon)


def refractory(phi: int, delta: int, r: int) -> int:
    """Suppress a perturbation inside the refractory interval [1, r].

    With r == 0 the interval is empty and delta always passes through.
    """
    return 0 if 1 <= phi <= r else delta


@dataclass(frozen=True)
class ModelParams:
    """One population model: (N, T, R, epsilon, mu) and U.  With U set, the
    initial states are those where at least N - U oscillators share a phase
    (restabilisation); with U None, every state of Gamma is initial.  Made
    or ``replace``d, it checks integers 1 <= N, 2 <= T, 0 <= R < T and
    1 <= U < N, 0 < epsilon < inf and 0 <= mu <= 1, or raises ``ValueError``."""

    n: int
    t: int
    r: int
    epsilon: float
    mu: float
    u: int | None = None

    def __post_init__(self) -> None:
        for name, value in (("N", self.n), ("T", self.t), ("R", self.r), ("U", self.u or 0)):
            check_integer(name, value)  # a U of None is checked as 0
        if self.n < 1:
            raise ValueError(f"N must satisfy 1 <= N, got {self.n}")
        if self.t < 2:
            raise ValueError(f"T must satisfy 2 <= T, got {self.t}")
        if not 0 <= self.r < self.t:
            raise ValueError(f"R must satisfy 0 <= R < T, got R={self.r} with T={self.t}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon}")
        if not 0 <= self.mu <= 1:
            raise ValueError(f"mu must be in [0, 1], got {self.mu}")
        if self.u is not None and not 1 <= self.u < self.n:
            raise ValueError(f"U must satisfy 1 <= U < N, got U={self.u} with N={self.n}")


def check_integer(name: str, value: object) -> None:
    """Raise ``ValueError`` naming the value unless it is an integer; NumPy integers pass."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def validate_state(sigma: State, p: ModelParams) -> State:
    if len(sigma) != p.t:
        raise ValueError(f"state has {len(sigma)} entries, expected T={p.t}")
    if any(k < 0 for k in sigma):
        raise ValueError(f"state has negative counts: {sigma}")
    if sum(sigma) != p.n:
        raise ValueError(f"state counts sum to {sum(sigma)}, expected N={p.n}")
    return sigma


def is_firing(sigma: State) -> bool:
    """A state is firing iff oscillators occupy the last phase value."""
    return sigma[-1] > 0


def is_synchronised(sigma: State) -> bool:
    n = sum(sigma)
    return any(k == n for k in sigma)


def format_failure_vector(fv: FailureVector) -> str:
    return "(" + ",".join(STAR if f is None else str(f) for f in fv) + ")"
