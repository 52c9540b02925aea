"""Construction of the reachable Markov chain with time and power rewards.

States are the population count tuples, held as the rows of one count
array; the distinguished unconfigured initial state is kept implicit and
represented by the initial distribution.
Time rewards are measured in oscillation cycles (1/T per firing step,
(T - delta)/T for a skip over T - delta silent steps).  Power rewards are in
Watt-hours and follow the hardware profile: idling current inside the
refractory interval, receive current outside it, plus the transmission cost
of every synchronisation message sent by a firing group.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from .core import ModelParams, State
from .dynamics import FiringTable, _ranges


class StateSpaceLimitExceeded(RuntimeError):
    def __init__(self, n_states: int, cap: int):
        super().__init__(f"state-space cap {cap} exceeded: the model has {n_states} states")
        self.n_states = n_states


@dataclass(frozen=True)
class HardwareProfile:
    """Current draws and timing of one node; yields per-step energies.

    cycle_s is the length of one full oscillation cycle in seconds, message_s
    the transmission time of one synchronisation message.
    """

    name: str
    idle_a: float
    receive_a: float
    transmit_a: float
    voltage: float
    cycle_s: float
    message_s: float

    def __post_init__(self) -> None:
        for attr in ("idle_a", "receive_a", "transmit_a", "voltage", "cycle_s", "message_s"):
            value = getattr(self, attr)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"hardware profile field {attr} must be finite and positive, got {value}")

    def w_idle(self, t: int) -> float:
        """Watt-hours per node per discrete step in idle mode."""
        return self.idle_a * self.voltage * self.cycle_s / (3600.0 * t)

    def w_receive(self, t: int) -> float:
        """Watt-hours per node per discrete step in receive mode."""
        return self.receive_a * self.voltage * self.cycle_s / (3600.0 * t)

    def w_transmit(self) -> float:
        """Watt-hours to transmit one synchronisation message."""
        return self.transmit_a * self.voltage * self.message_s / 3600.0


MICAZ = HardwareProfile(
    name="micaz",
    idle_a=20e-6,
    receive_a=19.7e-3,
    transmit_a=17.4e-3,
    voltage=3.0,
    cycle_s=1.0,
    message_s=1e-3,
)

PROFILES: dict[str, HardwareProfile] = {"micaz": MICAZ}


class StateSpace(Sequence):
    """The states of one model as the rows of an (S, T) count array, in
    lexicographic order, read as count tuples.

    A state's rank is its position in all of Gamma, from the combinatorial
    number system (Knuth, TAOCP 4A, 7.2.1.3): with m oscillators left for
    column i and r = T - 1 - i columns after it, B[m, r] - B[m - k_i, r]
    states, B[x, r] = C(x + r, r), agree with sigma before column i and hold
    fewer than k_i there.  ``ranks`` holds the ranks of the rows, ascending;
    ``index`` and ``in`` find a state tuple by its rank.  When the rows are
    all of Gamma, a state's row is its rank, and ``ranks`` is None.
    """

    def __init__(self, p: ModelParams, array: np.ndarray):
        self.p, self.array = p, array
        # B[x, 0] = 1 and each column sums the one before (hockey stick); the
        # largest entry, B[N, T - 1] = |Gamma|, takes Python ints beyond int64
        self._table = np.ones((p.n + 1, p.t), np.int64 if state_count(p) < 2**63 else object)
        for r in range(1, p.t):
            self._table[:, r] = np.cumsum(self._table[:, r - 1])
        self.ranks = None if len(array) == self._table[-1, -1] else self.rank(array)

    def rank(self, states: np.ndarray) -> np.ndarray:
        """Ranks of the rows of a count array (of a single state: a scalar)."""
        rank, m = 0, np.full(states.shape[:-1], self.p.n, np.int64)
        for i in range(self.p.t - 1):
            r, k = self.p.t - 1 - i, states[..., i]
            rank = rank + (self._table[m, r] - self._table[m - k, r])  # stays below |Gamma|
            m = m - k
        return rank

    def rows(self, states: np.ndarray) -> np.ndarray:
        """Rows of the given states, found by rank; each must be in the space."""
        ranks = self.rank(states)
        return ranks if self.ranks is None else np.searchsorted(self.ranks, ranks)

    def index(self, sigma: State) -> int:
        """The row of a state tuple, found by its rank; ``ValueError`` if it
        is not a state of the space.  As for any ``Sequence``, a tuple that
        compares equal to a state, such as ``(1.0, 1.0)`` for ``(1, 1)``,
        finds that state's row."""
        p = self.p
        try:
            counts = tuple(int(k) for k in sigma)
        except (TypeError, ValueError, OverflowError):  # not a tuple of numbers
            counts = None
        if (
            counts is not None and counts == tuple(sigma)
            and len(counts) == p.t and min(counts) >= 0 and sum(counts) == p.n
        ):
            i = int(self.rows(np.array(counts)))
            if i < len(self) and self[i] == counts:
                return i
        raise ValueError(f"{sigma!r} is not a state of the space")

    def __contains__(self, sigma: object) -> bool:
        try:
            self.index(sigma)
        except ValueError:
            return False
        return True

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, i: int) -> State:
        return tuple(self.array[i].tolist())

    def __iter__(self) -> Iterator[State]:
        return map(tuple, self.array.tolist())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


@dataclass(frozen=True)
class DtmcModel:
    params: ModelParams
    profile: HardwareProfile
    #: The chain follows from params and profile, so equality does
    #: not compare arrays.
    states: StateSpace = field(repr=False, compare=False)
    #: Transition probabilities, row = source state, column = target state.
    #: Each row's targets are unique and sorted by index, so the matrix is in
    #: canonical form and no SciPy call reorders ``data``.
    transitions: sp.csr_matrix = field(repr=False, compare=False)
    #: One-step reward per transition, keyed "time" and "power"; entry k
    #: belongs to the transition stored at ``transitions.data[k]``.
    rewards: dict[str, np.ndarray] = field(repr=False, compare=False)
    #: Initial weight of every state, by row.
    initial: np.ndarray = field(repr=False, compare=False)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_transitions(self) -> int:
        return self.transitions.nnz


def state_count(p: ModelParams) -> int:
    """|Gamma|: weak compositions of n into t parts, whatever U is."""
    return math.comb(p.n + p.t - 1, p.t - 1)


def state_array(p: ModelParams) -> np.ndarray:
    """All global states as the rows of an (S, T) array, in lexicographic
    order of the counts.  Built column by column from the left: a row with m
    oscillators left is followed, in the next column, by k = 0..m in turn,
    and the last column takes what is left."""
    dtype = np.min_scalar_type(p.n)
    states, left = np.zeros((1, 0), dtype), np.array([p.n])
    for _ in range(p.t - 1):
        k = _ranges(0, left + 1)
        states = np.column_stack([np.repeat(states, left + 1, axis=0), k.astype(dtype)])
        left = np.repeat(left, left + 1) - k
    return np.column_stack([states, left.astype(dtype)])


def enumerate_states(p: ModelParams) -> Iterator[State]:
    """All global states in lexicographic order of the counts tuple."""
    return map(tuple, state_array(p).tolist())


def multinomial(counts: State) -> int:
    """Number of assignments of distinct oscillators realizing the counts."""
    # prod_i C(k_1 + ... + k_i, k_i), every step in C; unlike N! / prod k!,
    # no factorial of N is formed when one group holds most oscillators
    return math.prod(map(math.comb, itertools.accumulate(counts), counts))


def restabilisation_support(p: ModelParams) -> np.ndarray:
    """Gamma_U, the states where some phase holds at least N - U
    oscillators, as a count array in lexicographic order: each state of the
    U loose oscillators with N - U added to each phase in turn, the repeats
    (when N <= 2U) dropped."""
    loose = state_array(replace(p, n=p.u, u=None)).astype(np.min_scalar_type(p.n))
    lifted = (loose + (p.n - p.u) * np.eye(p.t, dtype=loose.dtype)[:, None]).reshape(-1, p.t)
    lifted = lifted[np.lexsort(lifted.T[::-1])]
    return lifted[np.r_[True, (lifted[1:] != lifted[:-1]).any(axis=1)]]


def initial_weights(p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The initial support as a lexicographic count array, and the
    multinomial weight of each state normalised to one.

    A multinomial depends only on the sorted counts, so it is computed once
    per key, the sorted counts read as base N + 1 digits.  The total is the
    sum of each multinomial times the number of its states (T**N when U is
    None), and each weight is multinomial / total divided in Python ints,
    correctly rounded.
    """
    support = state_array(p) if p.u is None else restabilisation_support(p)
    key = np.zeros(len(support), np.int64 if (p.n + 1) ** p.t < 2**63 else object)
    for column in np.sort(support, axis=1).T:
        key = key * (p.n + 1) + column.astype(key.dtype)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    counts = [multinomial(sigma) for sigma in support[first].tolist()]
    total = sum(c * m for c, m in zip(counts, np.bincount(inverse).tolist()))
    return support, np.array([c / total for c in counts])[inverse]


def state_power(sigma: np.ndarray | State, p: ModelParams, profile: HardwareProfile):
    """Network power consumption in one discrete step, per row of a count
    array: refractory groups idle, all other groups listen."""
    idle = np.asarray(sigma)[..., : p.r].sum(axis=-1)
    return idle * profile.w_idle(p.t) + (p.n - idle) * profile.w_receive(p.t)


def skip_power(sigma: np.ndarray | State, p: ModelParams, profile: HardwareProfile):
    """Power consumed from a non-firing state until the next firing state,
    accumulated over the omitted intermediate steps, per row of a count
    array.

    In step j the refractory interval has effectively shrunk by j for the
    advancing oscillators; index ranges clamp to empty once j >= R.
    """
    sigma = np.asarray(sigma)
    w_i, w_r = profile.w_idle(p.t), profile.w_receive(p.t)
    idle = np.cumsum(sigma[..., : p.r], axis=-1)  # idle[..., m - 1]: the first m groups
    steps = np.argmax(sigma[..., ::-1] > 0, axis=-1)  # T - delta
    total = np.zeros(sigma.shape[:-1])
    for j in range(p.t - 1):
        busy = idle[..., p.r - j - 1] if j < p.r else 0
        total = np.where(j < steps, total + (busy * w_i + (p.n - busy) * w_r), total)
    return total[()]


def step_rewards(
    states: np.ndarray, targets: np.ndarray, p: ModelParams, profile: HardwareProfile
) -> tuple[np.ndarray, np.ndarray]:
    """Time and power reward of the step from each row of ``states`` to the
    same row of ``targets``: one firing step, or the skip of a non-firing row."""
    idle = states[:, -1] == 0
    time_r = np.full(len(states), 1.0 / p.t)
    power = state_power(states, p, profile) + targets[:, 0] * profile.w_transmit()
    time_r[idle] = np.argmax(states[idle, ::-1] > 0, axis=1) / p.t  # T - delta
    power[idle] = skip_power(states[idle], p, profile)
    return time_r, power


def build_dtmc(
    p: ModelParams,
    profile: HardwareProfile = MICAZ,
    max_states: int | None = None,
) -> DtmcModel:
    """The chain over the initial support, with transition probabilities
    and rewards, built as arrays.

    No state outside the support is ever reached: oscillators that share a
    phase move together, so the largest group never shrinks and both Gamma
    and a restabilisation support are closed under the dynamics.  States
    are numbered in lexicographic order, which is rank order, and each
    target's row is found by its rank.  Without U, ``max_states`` is
    checked before Gamma is built."""
    if max_states is not None and max_states < 1:
        raise ValueError(f"max_states must be at least 1, got {max_states}")
    full = p.u is None
    if max_states is not None and full and state_count(p) > max_states:
        raise StateSpaceLimitExceeded(state_count(p), max_states)  # before building Gamma
    support, weights = initial_weights(p)
    if max_states is not None and len(support) > max_states:
        raise StateSpaceLimitExceeded(len(support), max_states)
    space = StateSpace(p, support)
    rows, probs, cols = FiringTable(p).branches(support, space.rows)
    time_r, power_r = step_rewards(support[rows], support[cols], p, profile)
    indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=len(support)))]
    return DtmcModel(
        params=p,
        profile=profile,
        states=space,
        transitions=sp.csr_matrix((probs, cols, indptr), shape=(len(support), len(support))),
        rewards={"time": time_r, "power": power_r},
        initial=weights,
    )
