"""Construction of the reachable Markov chain with time and power rewards.

States are the population count tuples, held as the rows of one count
array; the distinguished unconfigured initial state is kept implicit and
represented by the initial distribution.
Time rewards are in oscillation cycles (1/T per firing step, (T - delta)/T
for a skip over T - delta silent steps), power rewards in Watt-hours after
the hardware profile: idling current inside the refractory interval, receive
current outside it, plus the cost of each message a firing group sends.  The
model keeps each state's reward; ``transition_rewards`` adds the target's part.
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
from .dynamics import FiringTable, _ranges, groups, skip_lengths


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
    column i and r = T - 1 - i columns after it, B[r, m] - B[r, m - k_i]
    states, B[r, x] = C(x + r, r), agree with sigma before column i and hold
    fewer than k_i there.  ``ranks`` holds the ranks of the rows, ascending;
    ``index`` and ``in`` find a state tuple by its rank.  When the rows are
    all of Gamma, a state's row is its rank, and ``ranks`` is None.
    """

    def __init__(self, p: ModelParams, array: np.ndarray):
        self.p, self.array = p, array
        # B[0, x] = 1 and each row sums the one before (hockey stick); the
        # largest entry, B[T - 1, N] = |Gamma|, takes Python ints beyond int64
        self._table = np.ones((p.t, p.n + 1), np.int64 if state_count(p) < 2**63 else object)
        for r in range(1, p.t):
            np.cumsum(self._table[r - 1], out=self._table[r])
        self.ranks = None if len(array) == self._table[-1, -1] else self.rank(array)

    def rank(self, states: np.ndarray) -> np.ndarray:
        """Ranks of the rows of a count array (of a single state: a scalar)."""
        shape, table = states.shape[:-1], self._table
        rank, low = np.zeros(shape, table.dtype), np.empty(shape, table.dtype)
        high, m = np.empty(shape, table.dtype), np.full(shape, self.p.n, np.int64)
        # each difference is formed before it is added, so no partial sum
        # passes |Gamma|; 0 <= m <= N, and take's default mode would buffer
        for r, k in zip(range(self.p.t - 1, 0, -1), np.moveaxis(states[..., :-1], -1, 0)):
            np.take(table[r], m, out=high, mode="clip")
            m -= k
            np.take(table[r], m, out=low, mode="clip")
            high -= low
            rank += high
        return rank[()]

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
    #: One-step reward per state, keyed "time" and "power": the part that
    #: does not depend on the target, which ``transition_rewards`` adds.
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


def largest_counts(states: np.ndarray, digits: int) -> list[np.ndarray]:
    """The ``digits`` largest counts of each row of a count array, as columns
    in ascending order: ``np.sort(states, axis=1)[:, -digits:].T``.  Each
    bubble pass carries the largest of the columns below the top ones up by
    whole-column compare-exchanges, so ``digits`` passes take at most
    T * ``digits`` of them, and no row is sorted (Knuth, TAOCP 3, 5.3.4)."""
    t = states.shape[1]
    columns, spare = list(states.T.copy()), np.empty(len(states), states.dtype)
    for top in range(t - 1, t - 1 - digits, -1):
        for i in range(top):  # the smaller into the spare column, the larger up
            np.minimum(columns[i], columns[i + 1], out=spare)
            np.maximum(columns[i], columns[i + 1], out=columns[i + 1])
            columns[i], spare = spare, columns[i]
    return columns[t - digits:]


def initial_weights(p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The initial support as a lexicographic count array, and the
    multinomial weight of each state normalised to one.

    A multinomial depends only on the sorted counts, so it is computed once
    per key, from any state of the key: the ``largest_counts`` of a row, the
    last N (U + 1 with U) sorted counts, as no more phases are occupied,
    read as base N + 1 digits and grouped by ``groups``.  The total is the
    sum of each multinomial times the number of its states (T**N when U is
    None), and each weight is multinomial / total divided in Python ints,
    correctly rounded.
    """
    support = state_array(p) if p.u is None else restabilisation_support(p)
    digits = min(p.n if p.u is None else p.u + 1, p.t)
    key = np.zeros(len(support), np.int64 if (p.n + 1) ** digits < 2**63 else object)
    for column in largest_counts(support, digits):
        key *= p.n + 1
        key += column
    first, inverse = groups(key)
    counts = [multinomial(sigma) for sigma in support[first].tolist()]
    total = sum(c * m for c, m in zip(counts, np.bincount(inverse).tolist()))
    return support, np.array([c / total for c in counts])[inverse]


def state_power(sigma: np.ndarray | State, p: ModelParams, profile: HardwareProfile):
    """Network power consumption in one discrete step, per row of a count
    array: refractory groups idle, all other groups listen."""
    idle = np.asarray(sigma)[..., : p.r].sum(axis=-1)
    return idle * profile.w_idle(p.t) + (p.n - idle) * profile.w_receive(p.t)


def skip_power(sigma: np.ndarray | State, p: ModelParams, profile: HardwareProfile, steps: np.ndarray | int):
    """Power consumed from a non-firing state until the next firing state,
    accumulated over the omitted intermediate steps, per row of a count
    array whose ``skip_lengths`` are ``steps``.

    In step j the refractory interval has effectively shrunk by j for the
    advancing oscillators; index ranges clamp to empty once j >= R.
    """
    sigma = np.asarray(sigma)
    w_i, w_r = profile.w_idle(p.t), profile.w_receive(p.t)
    idle = np.cumsum(sigma[..., : p.r], axis=-1)  # idle[..., m - 1]: the first m groups
    total = np.zeros(sigma.shape[:-1])
    for j in range(p.t - 1):
        busy = idle[..., p.r - j - 1] if j < p.r else 0
        total = np.where(j < steps, total + (busy * w_i + (p.n - busy) * w_r), total)
    return total[()]


def step_reward(
    states: np.ndarray, skips: np.ndarray, kind: str, p: ModelParams, profile: HardwareProfile
) -> np.ndarray:
    """The ``kind`` reward, "time" or "power", of the step from each row of
    ``states``, whose ``skip_lengths`` are ``skips``: one firing step, or
    the skip of a non-firing row, less the ``transmit_power`` of its target."""
    if kind == "time":  # 1/T per firing step, (T - delta)/T per skip
        return np.maximum(skips, 1) / p.t
    power, idle = state_power(states, p, profile), skips > 0
    power[idle] = skip_power(states[idle], p, profile, skips[idle])
    return power


def transmit_power(landed: np.ndarray, profile: HardwareProfile) -> np.ndarray:
    """Power of a step's messages, one per fired oscillator: the phase-1 count ``landed`` of its target."""
    return landed * profile.w_transmit()


def transition_rewards(model: DtmcModel, kind: str) -> np.ndarray:
    """The ``kind`` reward of each transition, aligned with ``transitions.data``."""
    values = np.repeat(model.rewards[kind], np.diff(model.transitions.indptr))
    if kind == "power":
        values += transmit_power(model.states.array[model.transitions.indices, 0], model.profile)
    return values


def build_dtmc(
    p: ModelParams,
    profile: HardwareProfile = MICAZ,
    max_states: int | None = None,
) -> DtmcModel:
    """The chain over the initial support, with transition probabilities
    and per-state rewards, built as arrays.

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
    space, skips = StateSpace(p, support), skip_lengths(support)
    rows, probs, cols = FiringTable(p).branches(support, skips, space.rows)
    indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=len(support)))]
    return DtmcModel(
        params=p,
        profile=profile,
        states=space,
        transitions=sp.csr_matrix((probs, cols, indptr), shape=(len(support), len(support))),
        rewards={kind: step_reward(support, skips, kind, p, profile) for kind in ("time", "power")},
        initial=weights,
    )
