"""Phase coherence of global states and the continuous order parameter.

The discrete metric places the k_Phi oscillators of each phase group on the
unit circle and takes the magnitude of the mean position.  The continuous
operations work on real-valued phase configurations and back the
discrete-to-continuous correspondence bound.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import State

SINGULARITY_TOL = 1e-9


@dataclass(frozen=True)
class ContinuousConfig:
    """Real-valued phases of N oscillators, each in [0, 2*pi]."""

    thetas: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.thetas) < 1:
            raise ValueError("configuration needs at least one oscillator")
        if any(not 0.0 <= th <= 2.0 * math.pi for th in self.thetas):
            raise ValueError("phases must lie in [0, 2*pi]")


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


def order_parameter(c: ContinuousConfig) -> float:
    """Kuramoto order parameter of a continuous configuration."""
    n = len(c.thetas)
    mean = sum(cmath.exp(1j * th) for th in c.thetas) / n
    return min(abs(mean), 1.0)


def _pairwise_cos_sum(thetas: np.ndarray) -> float:
    n = len(thetas)
    return sum(
        math.cos(thetas[i] - thetas[j]) for i in range(n) for j in range(i)
    )


def order_parameter_sqrt_form(c: ContinuousConfig) -> float:
    """Equivalent closed form (1/N) sqrt(N + 2 sum_{i<j} cos(theta_i - theta_j))."""
    thetas = np.asarray(c.thetas)
    n = len(thetas)
    inner = n + 2.0 * _pairwise_cos_sum(thetas)
    return math.sqrt(max(inner, 0.0)) / n


def order_parameter_gradient(c: ContinuousConfig) -> tuple[float, ...]:
    """Gradient of the order parameter with respect to each phase.

    Component k is sum_{i != k} sin(theta_i - theta_k) divided by
    N * sqrt(N + 2 sum_{i<j} cos(theta_i - theta_j)).  Undefined at zero
    coherence, where the square root vanishes.
    """
    thetas = np.asarray(c.thetas)
    n = len(thetas)
    inner = n + 2.0 * _pairwise_cos_sum(thetas)
    root = math.sqrt(max(inner, 0.0))
    if root / n < SINGULARITY_TOL:
        raise ValueError("gradient undefined: order parameter is (numerically) zero")
    grad = []
    for k in range(n):
        num = sum(math.sin(thetas[i] - thetas[k]) for i in range(n) if i != k)
        grad.append(num / (n * root))
    return tuple(grad)


def r_min(n: int, t: int) -> float:
    """Worst-case order parameter over configurations confined to one arc of
    width 2*pi/t.

    The minimum splits the population between the two arc endpoints, so it
    suffices to minimise |m + (n-m) e^{2*pi*i/t}| / n over m = 0..n.
    """
    if n < 1 or t < 2:
        raise ValueError(f"need n >= 1 and t >= 2, got n={n}, t={t}")
    w = cmath.exp(2j * math.pi / t)
    return min(abs(m + (n - m) * w) / n for m in range(n + 1))
