"""Reachability and expected-reward queries over a built model.

Queries target the set of states whose phase coherence meets a threshold.
Expected accumulated rewards (time in cycles, energy in Watt-hours) are
solved from the linear fixed-point equations, either by direct elimination
or by value iteration; states that fail to reach the target with
probability one get an infinite expected reward.  Direct elimination
factors each restricted system once per model and target set and reuses
the factor for the reachability and every reward right-hand side.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import ModelParams, State, validate_params
from .dtmc import DtmcModel, HardwareProfile, InitialMode, MICAZ, initial_weights, step
from .dynamics import FiringTable
from .metrics import phase_coherences

#: A state counts as failing to reach the target when its reachability
#: probability drops below 1 minus this threshold.
INFINITY_REACH_TOL = 1e-6

#: Value iteration gives up after this many sweeps.
MAX_ITERATIONS = 1_000_000


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    kind: str = "exact"  # "exact" | "iterative"
    tolerance: float = 1e-9


@dataclass(frozen=True)
class AnalysisQuery:
    lam: float
    reward_kind: str = "time"  # "time" | "power"
    aggregate: str = "avg"  # "min" | "avg" | "max"
    solver: SolverConfig = SolverConfig()

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lam}")
        if self.reward_kind not in ("time", "power"):
            raise ValueError(f"unknown reward kind {self.reward_kind!r}")
        if self.aggregate not in ("min", "avg", "max"):
            raise ValueError(f"unknown aggregate {self.aggregate!r}")


@dataclass(frozen=True)
class AnalysisResult:
    value: float
    reach_probability: float
    per_node_mWh: float | None
    states_explored: int
    solve_iterations: int
    wall_time: float
    #: Largest ||(I - A) x - b||_inf over the reachability and reward solves.
    residual: float = 0.0


class _System:
    """The fixed-point system x = a x + b over one set of unknown states,
    with the LU factor of I - a once an exact solve has asked for it."""

    def __init__(self, idx: np.ndarray, a: sp.csr_matrix) -> None:
        self.idx = idx
        self.a = a
        self.lu: spla.SuperLU | None = None

    def solve(self, b: np.ndarray, solver: SolverConfig) -> tuple[np.ndarray, int, float]:
        """Solution, iteration count and residual ||(I - a) x - b||_inf."""
        n = len(self.idx)
        if n == 0:
            return np.zeros(0), 0, 0.0
        if solver.kind == "exact":
            if self.lu is None:
                # the lexicographic state order fills in less than COLAMD
                system = (sp.identity(n, format="csr") - self.a).tocsc()
                self.lu = spla.splu(system, permc_spec="NATURAL")
            x, iterations = self.lu.solve(b), 0
        elif solver.kind == "iterative":
            x, iterations = _value_iteration(self.a, b, solver)
        else:
            raise ValueError(f"unknown solver kind {solver.kind!r}")
        return x, iterations, float(np.max(np.abs(x - self.a @ x - b)))


def _value_iteration(
    a: sp.csr_matrix, b: np.ndarray, solver: SolverConfig
) -> tuple[np.ndarray, int]:
    x = np.zeros(len(b))
    for it in range(1, MAX_ITERATIONS + 1):
        x_new = a @ x + b
        diff = np.max(np.abs(x_new - x))
        x = x_new
        if diff < solver.tolerance:
            return x, it
    residual = np.max(np.abs(a @ x + b - x))
    raise SolverError(
        f"value iteration did not converge in {MAX_ITERATIONS} iterations"
        f" (residual {residual:.3e})"
    )


class _ModelCache:
    """Arrays derived once from a model, and the systems of its current
    target set.

    ``p`` is the model's own transition matrix, ``pred`` its CSC copy, whose
    column j lists the predecessors of state j.  Systems are keyed by their
    unknown mask, because the reachability unknowns (reaching - targets) and
    the reward unknowns (certain - targets) differ when some states are
    trapped.  Moving to another target set drops the systems of the
    previous one.
    """

    def __init__(self, model: DtmcModel) -> None:
        self.p = p = model.transitions
        self.pred = p.tocsc()
        #: expected one-step reward of every state, per reward kind; a matvec
        #: adds each row in stored order, np.add.reduceat would pair terms up
        self.reward_b = {
            kind: sp.csr_matrix((p.data * r, p.indices, p.indptr), shape=p.shape)
            @ np.ones(p.shape[1])
            for kind, r in model.rewards.items()
        }
        self.coherence = phase_coherences(model.states.array, model.params.t)
        self.targets: frozenset[int] | None = None
        self.systems: dict[bytes, _System] = {}

    def use_targets(self, targets: frozenset[int]) -> None:
        if targets == self.targets:
            return
        self.targets = targets
        self.target_mask = np.zeros(len(self.coherence), dtype=bool)
        self.target_mask[np.fromiter(targets, dtype=np.int64, count=len(targets))] = True
        self.reaching = _reaching_states(self)
        # one-step probability of entering the target set
        self.reach_b = self.p @ self.target_mask
        self.systems = {}

    def system(self, unknown: np.ndarray) -> _System:
        """Transition sub-matrix over the unknown states."""
        key = unknown.tobytes()
        found = self.systems.get(key)
        if found is None:
            idx = np.flatnonzero(unknown)
            found = self.systems[key] = _System(idx, self.p[idx][:, idx])
        return found


def _cache_of(model: DtmcModel) -> _ModelCache:
    cache = model._analysis
    if cache is None:
        cache = _ModelCache(model)
        object.__setattr__(model, "_analysis", cache)
    return cache


def target_set(model: DtmcModel, lam: float) -> frozenset[int]:
    """Indices of states whose phase coherence is at least lam."""
    return frozenset(np.flatnonzero(_cache_of(model).coherence >= lam).tolist())


def _reaching_states(cache: _ModelCache) -> np.ndarray:
    """Boolean mask of states from which the target set is reachable."""
    mask = cache.target_mask.copy()
    frontier = np.flatnonzero(mask)
    while frontier.size:
        found = cache.pred[:, frontier].indices
        found = found[~mask[found]]
        mask[found] = True
        frontier = np.unique(found)
    return mask


def _reach(
    model: DtmcModel, targets: frozenset[int], solver: SolverConfig
) -> tuple[np.ndarray, int, float]:
    cache = _cache_of(model)
    cache.use_targets(targets)
    system = cache.system(cache.reaching & ~cache.target_mask)
    sol, iterations, residual = system.solve(cache.reach_b[system.idx], solver)
    x = cache.target_mask.astype(float)
    x[system.idx] = np.clip(sol, 0.0, 1.0)
    return x, iterations, residual


def _reward(
    model: DtmcModel,
    targets: frozenset[int],
    reward_kind: str,
    solver: SolverConfig,
    reach: np.ndarray | None,
) -> tuple[np.ndarray, int, float]:
    if reward_kind not in model.rewards:
        raise ValueError(f"unknown reward kind {reward_kind!r}")
    if reach is None:
        reach, _, _ = _reach(model, targets, solver)
    cache = _cache_of(model)
    cache.use_targets(targets)
    certain = reach >= 1.0 - INFINITY_REACH_TOL
    values = np.where(certain, 0.0, np.inf)
    system = cache.system(certain & ~cache.target_mask)
    sol, iterations, residual = system.solve(cache.reward_b[reward_kind][system.idx], solver)
    values[system.idx] = np.maximum(sol, 0.0)
    return values, iterations, residual


def reach_probability(
    model: DtmcModel, targets: frozenset[int], solver: SolverConfig = SolverConfig()
) -> tuple[np.ndarray, int]:
    """Per-state probability of eventually reaching the target set."""
    x, iterations, _ = _reach(model, targets, solver)
    return x, iterations


def expected_reward(
    model: DtmcModel,
    targets: frozenset[int],
    reward_kind: str,
    solver: SolverConfig = SolverConfig(),
    reach: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Per-state expected accumulated reward until the target set is entered.

    Infinite wherever the target is not reached with probability one.
    """
    values, iterations, _ = _reward(model, targets, reward_kind, solver, reach)
    return values, iterations


def aggregate(
    model: DtmcModel,
    values: np.ndarray,
    reach: np.ndarray,
    agg: str,
    reward_kind: str,
    solve_iterations: int = 0,
    wall_time: float = 0.0,
    residual: float = 0.0,
) -> AnalysisResult:
    """Aggregate per-state expected values over the initial distribution."""
    support = sorted(model.initial)
    weights = np.array([model.initial[i] for i in support])
    vals = values[support]
    reaches = reach[support]
    if agg == "avg":
        value = float(np.dot(weights, np.where(np.isinf(vals), np.inf, vals)))
        if np.any(np.isinf(vals) & (weights > 0)):
            value = np.inf
        reach_p = float(np.min(reaches))
    elif agg == "max":
        value = float(np.max(vals))
        reach_p = float(np.min(reaches))
    elif agg == "min":
        arg = int(np.argmin(vals))
        value = float(vals[arg])
        reach_p = float(reaches[arg])
    else:
        raise ValueError(f"unknown aggregate {agg!r}")
    per_node = None
    if reward_kind == "power":
        per_node = value / model.params.n * 1000.0  # Wh -> mWh per node
    return AnalysisResult(
        value=value,
        reach_probability=reach_p,
        per_node_mWh=per_node,
        states_explored=model.n_states,
        solve_iterations=solve_iterations,
        wall_time=wall_time,
        residual=residual,
    )


def solve_query(model: DtmcModel, query: AnalysisQuery) -> AnalysisResult:
    """Answer one query end to end: target set, reachability, expected
    reward, aggregation."""
    start = time.perf_counter()
    targets = target_set(model, query.lam)
    reach, it1, res1 = _reach(model, targets, query.solver)
    values, it2, res2 = _reward(model, targets, query.reward_kind, query.solver, reach)
    wall = time.perf_counter() - start
    return aggregate(
        model, values, reach, query.aggregate, query.reward_kind,
        solve_iterations=it1 + it2, wall_time=wall, residual=max(res1, res2),
    )


@dataclass(frozen=True)
class MonteCarloResult:
    mean: float
    std_error: float
    max_observed: float
    samples: int
    censored: int
    seed: int


class _SampledChain:
    """The states the runs have reached, numbered in order of first visit,
    with flat tables of successor ids and one-step rewards.

    State i owns the k_T + 1 slots from ``offset[i]``: slot ``offset[i] + f``
    holds the transition taken when f broadcasts of the firing group fail.
    A non-firing state has k_T = 0 and keeps its skip transition in its one
    slot.  A slot is filled the first time a run takes it; until then its
    successor id is -1.  The slots first taken in one step are worked out
    together, and the states they reach are numbered together.
    """

    def __init__(
        self, p: ModelParams, profile: HardwareProfile, lam: float, reward_kind: str
    ) -> None:
        self.p, self.profile, self.lam = p, profile, lam
        self.power = reward_kind == "power"
        self.table = FiringTable(p)
        self.ids: dict[State, int] = {}
        self.states = np.zeros((0, p.t), dtype=np.min_scalar_type(p.n))
        self.k_t = self.offset = self.succ = np.zeros(0, dtype=np.int64)
        self.target = np.zeros(0, dtype=bool)
        self.reward = np.zeros(0)

    def number(self, states: np.ndarray) -> np.ndarray:
        """Ids of the rows of a count array.  States no run has reached
        before get the next ids, their slots and their target flags."""
        known = len(self.ids)
        ids = np.array([self.ids.setdefault(s, len(self.ids)) for s in map(tuple, states.tolist())],
                       dtype=np.int64)
        fresh = ids >= known
        new = states[fresh][np.unique(ids[fresh], return_index=True)[1]]
        slots = new[:, -1].astype(np.int64) + 1
        self.states = np.concatenate([self.states, new])
        self.k_t = np.concatenate([self.k_t, slots - 1])
        self.offset = np.concatenate([self.offset, len(self.succ) + np.cumsum(slots) - slots])
        self.target = np.concatenate([self.target, phase_coherences(new, self.p.t) >= self.lam])
        self.succ = np.concatenate([self.succ, np.full(slots.sum(), -1)])
        self.reward = np.concatenate([self.reward, np.zeros(slots.sum())])
        return ids

    def fill(self, slots: np.ndarray, ids: np.ndarray) -> None:
        """Fill the given empty slots; ``ids[j]`` owns ``slots[j]``."""
        sigma = self.states[ids]
        successes = sigma[:, -1] - (slots - self.offset[ids])
        targets, time_r, power_r = step(sigma, successes, self.table, self.p, self.profile)
        nxt = self.number(targets)  # grows the tables
        self.succ[slots] = nxt
        self.reward[slots] = power_r if self.power else time_r


def monte_carlo(
    p: ModelParams,
    profile: HardwareProfile = MICAZ,
    mode: InitialMode = "full",
    lam: float = 1.0,
    reward_kind: str = "time",
    samples: int = 10_000,
    seed: int = 0,
    step_cap: int = 10_000,
) -> MonteCarloResult:
    """Estimate the average accumulated reward by simulating runs.

    All live runs take each step together.  In a firing state the failure
    count of the firing group is drawn from the binomial distribution and
    the successor is read from the model's ``FiringTable``; the failures of
    absorbed groups change neither the successor nor the rewards.  Runs
    still short of the target after step_cap steps are censored at the
    accumulated value and counted.  One seed always gives the same result;
    the draws are taken in step order across the runs.
    """
    validate_params(p)
    if reward_kind not in ("time", "power"):
        raise ValueError(f"unknown reward kind {reward_kind!r}")
    rng = np.random.default_rng(seed)
    support, weights = initial_weights(p, mode)
    start_indices = rng.choice(len(support), size=samples, p=weights)
    drawn, start_of_run = np.unique(start_indices, return_inverse=True)
    chain = _SampledChain(p, profile, lam, reward_kind)
    start_ids = chain.number(support[drawn])
    del support, weights  # the chain keeps the drawn start states

    totals = np.zeros(samples)
    cur = start_ids[start_of_run]
    runs = np.flatnonzero(~chain.target[cur])
    cur = cur[runs]
    for _ in range(step_cap):
        if not runs.size:
            break
        slots = chain.offset[cur] + rng.binomial(chain.k_t[cur], p.mu)
        nxt = chain.succ[slots]
        empty = nxt < 0
        if empty.any():
            missing, first = np.unique(slots[empty], return_index=True)
            chain.fill(missing, cur[empty][first])
            nxt = chain.succ[slots]
        totals[runs] += chain.reward[slots]
        live = ~chain.target[nxt]
        runs, cur = runs[live], nxt[live]

    mean = float(np.mean(totals))
    stderr = float(np.std(totals, ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return MonteCarloResult(
        mean=mean,
        std_error=stderr,
        max_observed=float(np.max(totals)),
        samples=samples,
        censored=int(runs.size),
        seed=seed,
    )
