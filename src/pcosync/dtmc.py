"""Construction of the reachable Markov chain with time and power rewards.

States are the population count tuples; the distinguished unconfigured
initial state is kept implicit and represented by the initial distribution.
Time rewards are measured in oscillation cycles (1/T per firing step,
(T - delta)/T for a skip over T - delta silent steps).  Power rewards are in
Watt-hours and follow the hardware profile: idling current inside the
refractory interval, receive current outside it, plus the transmission cost
of every synchronisation message sent by a firing group.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Union

import numpy as np
import scipy.sparse as sp

from .core import ModelParams, State, is_firing, validate_params
from .dynamics import FiringTable, skip_successor


class StateSpaceLimitExceeded(RuntimeError):
    def __init__(self, n_states: int, n_transitions: int, cap: int):
        super().__init__(
            f"state-space cap {cap} exceeded: {n_states} states, {n_transitions} transitions so far"
        )
        self.n_states = n_states
        self.n_transitions = n_transitions


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
            if getattr(self, attr) <= 0:
                raise ValueError(f"hardware profile field {attr} must be positive")

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


@dataclass(frozen=True)
class RestabilisationSpec:
    """Initial-state restriction: at least n - u oscillators share a phase."""

    u: int


InitialMode = Union[str, RestabilisationSpec]  # "full" or a restabilisation spec


@dataclass(frozen=True)
class DtmcModel:
    params: ModelParams
    profile: HardwareProfile
    mode: InitialMode
    states: tuple[State, ...]
    index: dict[State, int] = field(repr=False)
    #: Transition probabilities, row = source state, column = target state.
    #: Each row's targets are unique and sorted by index, so the matrix is in
    #: canonical form and no SciPy call reorders ``data``.  The chain follows
    #: from params, profile and mode, so equality does not compare arrays.
    transitions: sp.csr_matrix = field(repr=False, compare=False)
    #: One-step reward per transition, keyed "time" and "power"; entry k
    #: belongs to the transition stored at ``transitions.data[k]``.
    rewards: dict[str, np.ndarray] = field(repr=False, compare=False)
    initial: dict[int, float] = field(repr=False)
    #: Derived data of the analysis layer (predecessors, LU factors),
    #: created on first use; it lives and dies with the model.
    _analysis: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_transitions(self) -> int:
        return self.transitions.nnz


def state_count(p: ModelParams) -> int:
    """|Gamma|: weak compositions of n into t parts."""
    return math.comb(p.n + p.t - 1, p.t - 1)


def enumerate_states(p: ModelParams) -> Iterator[State]:
    """All global states in lexicographic order of the counts tuple.

    Stars and bars: the T - 1 bars take positions among N + T - 1 slots and
    the counts are the gaps between them.  Combinations come in
    lexicographic order, and so do their gap tuples.
    """
    end = p.n + p.t - 1
    for bars in itertools.combinations(range(end), p.t - 1):
        prev = -1
        counts = []
        for bar in bars:
            counts.append(bar - prev - 1)
            prev = bar
        counts.append(end - prev - 1)
        yield tuple(counts)


def multinomial(counts: State) -> int:
    """Number of assignments of distinct oscillators realizing the counts."""
    # prod_i C(k_1 + ... + k_i, k_i), every step in C; unlike N! / prod k!,
    # no factorial of N is formed when one group holds most oscillators
    return math.prod(map(math.comb, itertools.accumulate(counts), counts))


def restabilisation_support(p: ModelParams, u: int) -> list[State]:
    """Gamma_U: states where some phase holds at least n - u oscillators."""
    if not 1 <= u < p.n:
        raise ValueError(f"U must satisfy 1 <= U < N, got U={u} with N={p.n}")
    base_params = ModelParams(n=u, t=p.t, r=p.r, epsilon=p.epsilon, mu=p.mu)
    support: set[State] = set()
    for loose in enumerate_states(base_params):
        for i in range(p.t):
            counts = list(loose)
            counts[i] += p.n - u
            support.add(tuple(counts))
    return sorted(support)


def initial_distribution(p: ModelParams, mode: InitialMode = "full") -> dict[State, float]:
    """Multinomial weights over the initial support, normalised to one."""
    validate_params(p)
    if mode == "full":
        denom = p.t**p.n  # equals the sum of all multinomial coefficients
        return {sigma: multinomial(sigma) / denom for sigma in enumerate_states(p)}
    if isinstance(mode, RestabilisationSpec):
        support = restabilisation_support(p, mode.u)
        weights = {sigma: multinomial(sigma) for sigma in support}
        denom = sum(weights.values())
        return {sigma: w / denom for sigma, w in weights.items()}
    raise ValueError(f"unknown initial mode {mode!r}")


def state_power(sigma: State, p: ModelParams, profile: HardwareProfile) -> float:
    """Network power consumption in one discrete step: refractory groups
    idle, all other groups listen."""
    w_i = profile.w_idle(p.t)
    w_r = profile.w_receive(p.t)
    idle = sum(sigma[: p.r])
    return idle * w_i + (p.n - idle) * w_r


def skip_power(sigma: State, p: ModelParams, profile: HardwareProfile) -> float:
    """Power consumed from a non-firing state until the next firing state,
    accumulated over the omitted intermediate steps.

    In step j the refractory interval has effectively shrunk by j for the
    advancing oscillators; index ranges clamp to empty once j >= R.
    """
    w_i = profile.w_idle(p.t)
    w_r = profile.w_receive(p.t)
    t, r = p.t, p.r
    delta = max(phi for phi in range(1, t + 1) if sigma[phi - 1] > 0)
    n = sum(sigma)
    total = 0.0
    for j in range(t - delta):
        idle = sum(sigma[: max(r - j, 0)])
        recv = n - idle
        total += idle * w_i + recv * w_r
    return total


def build_dtmc(
    p: ModelParams,
    profile: HardwareProfile = MICAZ,
    mode: InitialMode = "full",
    max_states: int | None = None,
) -> DtmcModel:
    """Breadth-first closure of the initial support under the successor
    dynamics, annotated with transition probabilities and rewards.

    States are re-indexed lexicographically after exploration so the result
    is independent of traversal order.
    """
    validate_params(p)
    init = initial_distribution(p, mode)
    table = FiringTable(p)
    time_fire = 1.0 / p.t
    w_t = profile.w_transmit()
    frontier = list(init)
    seen: set[State] = set(frontier)
    # per state: (target state, probability, time reward, power reward)
    succ: dict[State, list[tuple[State, float, float, float]]] = {}
    n_transitions = 0
    while frontier:
        sigma = frontier.pop()
        if is_firing(sigma):
            base_power = state_power(sigma, p, profile)
            out = [
                (tgt, prob, time_fire, base_power + tgt[0] * w_t)
                for tgt, prob in table.firing_row(sigma)
            ]
        else:
            tgt, skipped = skip_successor(sigma)
            out = [(tgt, 1.0, skipped / p.t, skip_power(sigma, p, profile))]
        succ[sigma] = out
        n_transitions += len(out)
        for tgt, *_ in out:
            if tgt not in seen:
                seen.add(tgt)
                frontier.append(tgt)
        if max_states is not None and len(seen) > max_states:
            raise StateSpaceLimitExceeded(len(seen), n_transitions, max_states)

    states = tuple(sorted(seen))
    index = {sigma: i for i, sigma in enumerate(states)}
    # firing rows come sorted by target tuple, which is sorted by index
    rows = [succ[sigma] for sigma in states]
    cols, prob, time_r, power_r = (
        np.array(column)
        for column in zip(*((index[tgt], *rest) for row in rows for tgt, *rest in row))
    )
    indptr = np.cumsum([0, *map(len, rows)])
    transitions = sp.csr_matrix((prob, cols, indptr), shape=(len(states), len(states)))
    initial = {index[sigma]: weight for sigma, weight in init.items()}
    return DtmcModel(
        params=p,
        profile=profile,
        mode=mode,
        states=states,
        index=index,
        transitions=transitions,
        rewards={"time": time_r, "power": power_r},
        initial=initial,
    )
