"""Reachability and expected-reward queries over a built model.

Queries target the set of states whose phase coherence meets a threshold.
Expected accumulated rewards (time in cycles, energy in Watt-hours) are
solved from the linear fixed-point equations by direct elimination; states
that fail to reach the target with probability one, as decided on the graph,
get an infinite expected reward.  Within one ``solve_queries`` call, the
reachability and the rewards of one target set share one system, factored
once, one level of its SCC condensation at a time, and each right-hand side
is solved once; nothing is kept on the model between calls.  The
reachability of a state that reaches the target with probability one, as
decided on the graph, is 1, and it is solved only when some state reaches
the target with a lower probability.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import ModelParams, validate_params
from .dtmc import DtmcModel, HardwareProfile, MICAZ, StateSpace, initial_weights, step_rewards
from .dynamics import FiringTable, _ranges
from .metrics import phase_coherences

#: Monte Carlo runs still short of the target after this many steps are censored.
STEP_CAP = 10_000


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class AnalysisQuery:
    lam: float
    reward_kind: str = "time"  # "time" | "power"
    aggregate: str = "avg"  # "min" | "avg" | "max"

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
    wall_time: float
    #: Largest ||(I - A) x - b||_inf over the solves the query made: the
    #: reward, and the reachability where it is not read off the graph.
    residual: float = 0.0


class _System:
    """The fixed-point system x = a x + b of one target set of a model, on
    which the reachability and every reward solve.  Its unknowns ``idx`` are
    the states that reach the target but are not in it; ``certain`` marks
    the states that reach it with probability one (Prob1), decided on the
    graph.  A non-target Prob1 state only steps into Prob1 or the target, so
    its rows reference no unknown outside Prob1, and a reward is the
    solution on ``idx`` within Prob1.  The system is factored when built and
    keeps only the level blocks of ``_factor``, not a itself; every solve
    back-substitutes through them, and each solution is kept under its
    right-hand side's name."""

    def __init__(self, model: DtmcModel, mask: np.ndarray, pred: sp.csc_matrix | None = None) -> None:
        self.p, self.rewards, n = model.transitions, model.rewards, model.n_states
        if getattr(mask, "dtype", None) != bool or mask.shape != (n,):
            raise ValueError(f"targets must be a boolean array of length {n}, one entry per state")
        pred = self.p.tocsc() if pred is None else pred  # column j: the predecessors of state j
        reaching = _backward(pred, mask, np.ones_like(mask))
        self.mask, self.certain = mask, ~_backward(pred, ~reaching, ~mask)
        self.idx = idx = np.flatnonzero(reaching & ~mask)
        self.levels = _factor(self.p[idx][:, idx])
        self.solutions: dict[str, tuple[np.ndarray, float]] = {}

    def rhs(self, name: str) -> np.ndarray:
        """b of the right-hand side ``name``, one entry per state: the
        one-step probability of entering the target ("reach"), or the
        expected one-step reward of a reward kind."""
        p = self.p
        if name == "reach":
            return p @ self.mask
        # a matvec adds each row in stored order, np.add.reduceat would pair terms up
        weighted = sp.csr_matrix((p.data * self.rewards[name], p.indices, p.indptr), shape=p.shape)
        return weighted @ np.ones(p.shape[1])

    def solve(self, name: str) -> tuple[np.ndarray, float]:
        """Solution and residual ||(I - a) x - b[idx]||_inf of the
        right-hand side ``name``, solved the first time it is asked for."""
        if name not in self.solutions:
            self.solutions[name] = self._solve(self.rhs(name)[self.idx])
        return self.solutions[name]

    def _solve(self, b: np.ndarray) -> tuple[np.ndarray, float]:
        # a level's rows reference no unknown above it, so once the level is
        # solved they give its part of the residual, each row summed in the
        # stored order of a's entries
        x, residual = np.zeros(len(self.idx)), 0.0
        for idx, rows, lu in self.levels:  # unsolved entries of x are still 0
            x[idx] = lu.solve(b[idx] + rows @ x)
            residual = max(residual, float(np.max(np.abs(x[idx] - rows @ x - b[idx]))))
        return x, residual


def _factor(a: sp.csr_matrix) -> list[tuple[np.ndarray, sp.csr_matrix, spla.SuperLU]]:
    """I - a in block-triangular form (Duff and Reid, ACM TOMS 4, 1978): per
    level of the SCC condensation, bottom first, its unknowns in lexicographic
    order, their rows of a and the natural-order LU factor of its diagonal
    block.  A level is an SCC's longest path to a bottom SCC, so edges between
    SCCs lead down and a diagonal block has no fill between its SCCs.

    The rows of a are permuted once into level order.  A level's rows are one
    ``indptr`` range of the permuted arrays, and its diagonal block holds the
    entries of that range whose column lies in the level, since none lies
    above it.  SuperLU factors each block with a one-column panel: on blocks
    of about two nonzeros per row its supernodal panels gain nothing, and the
    default panel gives the same fill in more time and memory."""
    from scipy.sparse.csgraph import connected_components

    n_scc, label = connected_components(a, directed=True, connection="strong")
    src, dst = np.repeat(label, np.diff(a.indptr)), label[a.indices]
    src, dst = src[src != dst], dst[src != dst]  # the edges between SCCs
    out = np.bincount(src, minlength=n_scc)
    level, frontier, depth = np.full(n_scc, -1), out == 0, 0
    while frontier.any():  # the SCCs whose edges all lead to lower levels
        level[frontier], depth = depth, depth + 1
        out -= np.bincount(src[frontier[dst]], minlength=n_scc)
        frontier = (out == 0) & (level < 0)
    # the unknowns by level, in lexicographic order within one
    order = np.argsort(level[label], kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    bounds = np.r_[0, np.cumsum(np.bincount(level[label]))].tolist()
    length = np.diff(a.indptr)[order]
    indptr = np.r_[0, np.cumsum(length)]
    take = _ranges(a.indptr[order], length)
    cols, vals = a.indices[take], a.data[take]
    del take
    n, blocks = len(order), []
    for l, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        span, m = slice(indptr[lo], indptr[hi]), hi - lo
        rows = sp.csr_matrix((vals[span], cols[span], indptr[lo : hi + 1] - indptr[lo]), shape=(m, n))
        # I - a_ll: the range's entries in the level, and a diagonal entry of
        # one per row, which the conversion sums with a self-loop's entry
        col = position[cols[span]] - lo
        inside, diag = col >= 0, np.arange(m)
        entries = np.r_[-vals[span][inside], np.ones(m)]
        at = (np.r_[np.repeat(diag, length[lo:hi])[inside], diag], np.r_[col[inside], diag])
        block = sp.csc_matrix((entries, at), shape=(m, m))
        try:
            lu = spla.splu(block, permc_spec="NATURAL", panel_size=1)
        except RuntimeError as exc:  # a float cycle of probability one
            raise SolverError(f"level {l} of the block factor ({m} unknowns): {exc}") from None
        blocks.append((order[lo:hi], rows, lu))
    return blocks


def target_set(model: DtmcModel, lam: float) -> np.ndarray:
    """Boolean mask, by row, of the states whose phase coherence is at least lam."""
    return phase_coherences(model.states.array, model.params.t) >= lam


def _backward(pred: sp.csc_matrix, seed: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Boolean mask of the seed states and of the states with a path into
    the seed through ``allowed`` states only."""
    mask, new = seed.copy(), seed
    while new.any():
        frontier = np.flatnonzero(new)
        start = pred.indptr[frontier]
        found = pred.indices[_ranges(start, pred.indptr[frontier + 1] - start)]
        new = np.zeros_like(mask)
        new[found] = True
        new &= allowed & ~mask
        mask |= new
    return mask


def _reach(system: _System) -> tuple[np.ndarray, float]:
    x = system.certain.astype(float)  # Prob1, the targets among it, reach with probability one
    unsure = ~system.certain[system.idx]
    if not unsure.any():
        return x, 0.0
    sol, residual = system.solve("reach")
    x[system.idx[unsure]] = np.clip(sol[unsure], 0.0, 1.0)
    return x, residual


def _reward(system: _System, reward_kind: str) -> tuple[np.ndarray, float]:
    sol, residual = system.solve(reward_kind)
    values = np.where(system.certain, 0.0, np.inf)
    certain = system.certain[system.idx]
    values[system.idx[certain]] = np.maximum(sol[certain], 0.0)
    return values, residual


def reach_probability(model: DtmcModel, targets: np.ndarray) -> np.ndarray:
    """Per-state probability of eventually reaching the states of the
    target mask (``target_set``): exactly 1 wherever the graph shows the
    target is reached with probability one."""
    return _reach(_System(model, targets))[0]


def expected_reward(model: DtmcModel, targets: np.ndarray, reward_kind: str) -> np.ndarray:
    """Per-state expected accumulated reward until a state of the target
    mask (``target_set``) is entered.

    Infinite wherever the target is not reached with probability one, as
    decided on the graph.
    """
    if reward_kind not in model.rewards:
        raise ValueError(f"unknown reward kind {reward_kind!r}")
    return _reward(_System(model, targets), reward_kind)[0]


def aggregate(
    model: DtmcModel,
    values: np.ndarray,
    reach: np.ndarray,
    agg: str,
    reward_kind: str,
    wall_time: float = 0.0,
    residual: float = 0.0,
) -> AnalysisResult:
    """Aggregate per-state expected values over the initial distribution."""
    reach_p = float(np.min(reach))
    if agg == "avg":
        value = float(np.dot(model.initial, values))
        if np.any(np.isinf(values) & (model.initial > 0)):
            value = np.inf
    elif agg == "max":
        value = float(np.max(values))
    elif agg == "min":
        arg = int(np.argmin(values))
        value, reach_p = float(values[arg]), float(reach[arg])
    else:
        raise ValueError(f"unknown aggregate {agg!r}")
    per_node = None
    if reward_kind == "power":
        per_node = value / model.params.n * 1000.0  # Wh -> mWh per node
    return AnalysisResult(
        value=value,
        reach_probability=reach_p,
        per_node_mWh=per_node,
        wall_time=wall_time,
        residual=residual,
    )


def solve_queries(model: DtmcModel, queries: Iterable[AnalysisQuery]) -> Iterator[AnalysisResult]:
    """Answer the queries in order, each end to end: target set,
    reachability, expected reward, aggregation.  Consecutive queries with
    the same lambda share one system, factored once, and each right-hand
    side is solved once; the factor is dropped when lambda changes or the
    generator ends."""
    start = time.perf_counter()
    pred, system, lam = model.transitions.tocsc(), None, None
    for query in queries:
        if query.lam != lam:
            system = None  # the previous factor is freed before the next is built
            lam, system = query.lam, _System(model, target_set(model, query.lam), pred)
        reach, res1 = _reach(system)
        values, res2 = _reward(system, query.reward_kind)
        yield aggregate(
            model, values, reach, query.aggregate, query.reward_kind,
            wall_time=time.perf_counter() - start, residual=max(res1, res2),
        )
        start = time.perf_counter()


def solve_query(model: DtmcModel, query: AnalysisQuery) -> AnalysisResult:
    """Answer one query end to end, as ``solve_queries`` does."""
    return next(solve_queries(model, [query]))


@dataclass(frozen=True)
class MonteCarloResult:
    mean: float
    std_error: float
    max_observed: float
    samples: int
    censored: int
    seed: int
    #: the censored runs were shown never to reach the target; not compared
    trapped: bool = field(default=False, compare=False)


class FailureDraw:
    """Inverse-CDF draws of firing-group failure counts from the build's masses.

    Row i stands for a group of ``sizes[i]``.  The cumulative masses P(F <= f)
    of each distinct size are the running float sums of ``FiringTable.masses``
    (log-space terms above ``FiringTable.MAX_GROUP``), and a uniform u draws
    the number of them at or below u.  All sizes share one sorted table: the
    g-th size (from 0) keeps its sums below one as thresholds 2g + P(F <= f),
    and a row's key is 2g + u.  Keys and thresholds stay below 2G for G
    distinct sizes, so rounding them lets a key meet a threshold at most one
    ulp of 2G (2G * 2**-52) before u does, never after; each count's
    probability is therefore within 2G * 2**-52 of the difference of the two
    running sums around it.  A single size (G = 1, key u) is exact up to the
    2**-53 grid of u.  A last threshold of inf bounds the last size's counts.
    """

    def __init__(self, table: FiringTable, sizes: np.ndarray) -> None:
        groups, group = np.unique(sizes, return_inverse=True)
        # P(F <= f) for f < k; a sum that reaches one is never passed by u < 1
        cdfs = [np.cumsum(table.masses(k))[:-1] for k in groups.tolist()]
        cdfs = [cdf[cdf < 1.0] for cdf in cdfs]
        self.thresholds = np.concatenate([2.0 * g + cdf for g, cdf in enumerate(cdfs)] + [[np.inf]])
        counts = np.array([len(cdf) for cdf in cdfs])
        self.key, self.first = 2.0 * group, (np.cumsum(counts) - counts)[group]

    def failures(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The failure count of each of ``rows`` drawn with uniforms ``u`` in [0, 1)."""
        # the method skips the dispatch of np.searchsorted, most of a small call's cost
        return self.thresholds.searchsorted(self.key[rows] + u, side="right") - self.first[rows]

    def drawable(self, rows: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Whether the draw can give each of ``rows`` the count f: whether a
        key of the row (2g to 2g + 1 for its g-th size) can lie at or above
        its threshold f - 1 (2g for f = 0) and below its threshold f."""
        t, i = self.thresholds, self.first[rows] + f
        low = np.where(f > 0, t[np.minimum(i, len(t)) - 1], self.key[rows])
        return (low < t[np.minimum(i, len(t) - 1)]) & (low <= self.key[rows] + 1.0)


def _closed_set(states: np.ndarray, flag: np.ndarray, outcomes) -> tuple | None:
    """Where ``states``, none a target, stand among the states they lead to,
    with each one's successor (as a position) and reward, if no target is
    among them and each of them has one outcome; None otherwise.
    ``outcomes(states)`` gives the state, successor and reward of each step
    the given states can take, grouped by state in order."""
    layer, found = np.unique(states), []
    while layer.size:  # the states first reached
        owner, nxt, r = outcomes(layer)
        same = owner[1:] == owner[:-1]
        if flag[nxt].any() or np.any(same & ((nxt[1:] != nxt[:-1]) | (r[1:] != r[:-1]))):
            return None
        found.append(np.column_stack((owner, nxt, r))[np.r_[True, ~same]])
        layer = np.setdiff1d(nxt, np.concatenate(found)[:, 0])
    ids, nxt, r = np.unique(np.concatenate(found), axis=0).T  # one row per state
    return np.searchsorted(ids, states), np.searchsorted(ids, nxt), r


def monte_carlo(
    p: ModelParams,
    profile: HardwareProfile = MICAZ,
    lam: float = 1.0,
    reward_kind: str = "time",
    samples: int = 10_000,
    seed: int = 0,
    step_cap: int = STEP_CAP,
) -> MonteCarloResult:
    """Estimate the average accumulated reward by simulating runs.

    All live runs take each step together.  In a firing state the failure
    count of the firing group is drawn by ``FailureDraw`` from one uniform
    per run, so the sampler draws from the masses the build uses, and the
    successor and rewards are those of the build, from
    ``FiringTable.successors`` and ``step_rewards``; the failures of
    absorbed groups change neither the successor nor the rewards.  Runs
    still short of the target after step_cap steps are censored at the
    accumulated value and counted.  One seed always gives the same result;
    the draws are taken in step order across the runs.  A state's id is its
    row in the rank-ordered initial support, as in ``build_dtmc``, and the
    tables are sized by that support.

    After 2**i steps, if none since step 2**(i-1) stopped a run or took a
    new slot, ``_closed_set`` looks for a closed set without targets that
    holds the live runs and in which every slot the draw can take of a
    state has one successor and reward.  Then no run ever stops, and the
    remaining steps' rewards are added left to right as stepping adds them,
    so per seed the result is the same; ``trapped`` is set.  A state with
    two outcomes keeps the runs stepping.
    """
    validate_params(p)
    AnalysisQuery(lam, reward_kind)  # the same lambda and reward kind checks
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if step_cap < 0:
        raise ValueError(f"step_cap must be at least 0, got {step_cap}")
    rng = np.random.default_rng(seed)
    support, weights = initial_weights(p)
    space, table = StateSpace(p, support), FiringTable(p)
    k_t = support[:, -1].astype(np.int64)
    draw = FailureDraw(table, k_t)
    # slot offset[i] + f: successor id and reward of state i when f
    # broadcasts of its firing group fail; a non-firing state skips.  An
    # untaken slot leads to the extra row `untaken`, flagged like a target,
    # so one flag lookup per step finds both the runs that stop and the
    # slots still to work out.
    offset = np.cumsum(k_t + 1) - k_t - 1
    untaken = len(support)
    succ = np.full(untaken + k_t.sum(), untaken)
    reward = np.zeros(len(succ))
    flag = np.append(phase_coherences(support, p.t) >= lam, True)

    def fill(slots):  # the slots' successors and rewards, the untaken ones worked out
        missing = np.unique(slots[succ[slots] == untaken])
        if missing.size:
            ids = np.searchsorted(offset, missing, side="right") - 1  # the slots' states
            successes = k_t[ids] - (missing - offset[ids])
            targets = table.successors(support[ids], successes)
            time_r, power_r = step_rewards(support[ids], targets, p, profile)
            succ[missing] = space.rows(targets)
            reward[missing] = power_r if reward_kind == "power" else time_r
        return succ[slots], reward[slots]

    def outcomes(states):  # the state, successor and reward of each slot the draw can take
        owner, f = np.repeat(states, k_t[states] + 1), _ranges(0, k_t[states] + 1)
        drawn = draw.drawable(owner, f)
        return (owner[drawn], *fill(offset[owner[drawn]] + f[drawn]))

    totals = np.zeros(samples)
    cur = rng.choice(len(support), size=samples, p=weights)
    runs = np.flatnonzero(~flag[cur])
    cur, acc = cur[runs], np.zeros(len(runs))  # acc: the live runs' rewards so far
    last_new, closed = -1, None  # the last step (from 0) that stopped a run or took a new slot
    for j in range(step_cap):
        if not runs.size:
            break
        if j and not j & (j - 1) and last_new < j // 2:
            if (closed := _closed_set(cur, flag, outcomes)) is not None:
                here, nxt, r = closed
                for _ in range(step_cap - j):
                    acc += r[here]
                    here = nxt[here]
                break
        slots = offset[cur] + draw.failures(cur, rng.random(len(cur)))
        nxt = succ[slots]
        stop = flag[nxt]
        if not stop.any():
            acc += reward[slots]
            cur = nxt
            continue
        nxt, r = fill(slots)
        stop, last_new = flag[nxt], j
        acc += r
        totals[runs[stop]] = acc[stop]
        live = ~stop
        runs, cur, acc = runs[live], nxt[live], acc[live]
    totals[runs] = acc

    stderr = float(np.std(totals, ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return MonteCarloResult(
        mean=float(np.mean(totals)),
        std_error=stderr,
        max_observed=float(np.max(totals)),
        samples=samples,
        censored=int(runs.size),
        seed=seed,
        trapped=closed is not None,
    )
