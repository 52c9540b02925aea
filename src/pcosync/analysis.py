"""Reachability and expected-reward queries over a built model.

Queries target the set of states whose phase coherence meets a threshold.
Expected accumulated rewards (time in cycles, energy in Watt-hours) are
solved from the linear fixed-point equations by direct elimination; states
that fail to reach the target with probability one, as decided on the graph,
get an infinite expected reward, and those that reach it with probability
one a reachability of 1.  ``solve_target`` solves one target set's
reachability, where the graph leaves it open, and each reward asked for as
right-hand sides of one system, in one bottom-up sweep of its SCC levels
that holds one level's factor at a time.  ``solve_queries`` makes one call
per run of queries with the same lambda, and the first result of a run
carries the factor and all of its solves in ``wall_time``; nothing is kept
on the model.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import ModelParams, check_integer
from .dtmc import (DtmcModel, HardwareProfile, MICAZ, StateSpace, initial_weights, step_reward,
                   transition_rewards, transmit_power)
from .dynamics import FiringTable, _ranges, fold_walks, skip_lengths
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
    #: Seconds spent on this query; the first query of a run with one
    #: lambda also carries the run's target set, factor and every solve.
    wall_time: float
    #: Largest ||(I - A) x - b||_inf over the solves the query made: the
    #: reward, and the reachability where it is not read off the graph.
    residual: float = 0.0


def solve_target(
    model: DtmcModel, targets: np.ndarray, kinds: Sequence[str]
) -> tuple[tuple[np.ndarray, float], dict[str, tuple[np.ndarray, float]]]:
    """Per-state reachability of one target set and expected reward of each
    of ``kinds``, each with the residual of its solve.

    ``targets`` is a boolean mask over the model's rows, as ``target_set``
    gives it.  ``_condense`` decides on the graph which states reach the
    target, and Prob1, the states that reach it with probability one, whose
    reachability is exactly 1.  A non-target Prob1 state only steps into
    Prob1 or the target, so its rows reference no unknown outside Prob1: a
    reward is the solution within Prob1, and infinite elsewhere.  Every
    answer is one right-hand side of the same x = a x + b over the unknowns,
    the reachability only when some unknown lies outside Prob1, and
    ``_solve`` sweeps them all at once, level by level of ``_condense``."""
    p, n = model.transitions, model.n_states
    if getattr(targets, "dtype", None) != bool or targets.shape != (n,):
        raise ValueError(f"targets must be a boolean array of length {n}, one entry per state")
    if unknown := [kind for kind in kinds if kind not in model.rewards]:
        raise ValueError(f"unknown reward kind {unknown[0]!r}")
    reaching, certain, levels = _condense(p, targets)
    unsure = reaching & ~certain
    # b is the one-step probability of entering the target, or the expected
    # one-step reward; a matvec adds each row in stored order, np.add.reduceat
    # would pair terms up
    columns = [p @ targets] if unsure.any() else []
    for kind in kinds:  # the product takes the temporary rewards' buffer, freed once the column is formed
        columns.append(sp.csr_matrix(
            (transition_rewards(model, kind) * p.data, p.indices, p.indptr), shape=p.shape) @ np.ones(n))
    solutions = _solve(p, levels, columns) if columns else []
    reach, residual = certain.astype(float), 0.0  # Prob1, the targets among it, reaches for certain
    if unsure.any():
        (sol, residual), *solutions = solutions
        reach[unsure] = np.clip(sol[unsure], 0.0, 1.0)
    # a reward is finite on Prob1 only; the targets among it are not solved, and x is 0 there
    values = {kind: (np.where(certain, np.maximum(sol, 0.0), np.inf), res)
              for kind, (sol, res) in zip(kinds, solutions)}
    return (reach, residual), values


def _solve(p: sp.csr_matrix, levels: list, columns: list) -> list[tuple[np.ndarray, float]]:
    """Solution and residual ||(I - a) x - b||_inf of x = a x + b, for a the
    entries of p among the unknowns of ``levels``, of each b in ``columns``,
    from one bottom-up sweep of the levels of ``_factor``, each level's factor
    freed once used.  Vectors have one entry per state; x is 0 off the unknowns."""
    # a level's rows reference no unknown above it, and x is 0 off the unknowns, so
    # once it is solved they give its part of the residual, each row in stored order
    xs, residuals = [np.zeros(p.shape[0]) for _ in columns], [0.0] * len(columns)
    for idx, rows, lu in _factor(p, levels):  # unsolved entries of x are still 0
        for j, (x, b) in enumerate(zip(xs, columns)):
            x[idx] = lu.solve(b[idx] + rows @ x)
            residuals[j] = max(residuals[j], float(np.max(np.abs(x[idx] - rows @ x - b[idx]))))
        del lu  # freed before the next level is factored
    return list(zip(xs, residuals))


def _condense(p: sp.csr_matrix, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The masks of the states that reach the targets and of those that reach
    them with probability one (not Prob0, and Prob1: Baier and Katoen,
    Principles of Model Checking, 2008, 10.1), and the unknowns, the states
    that reach them but are not in them, by level from 1 up and in state
    order within a level.  One SCC condensation of p with the target rows cut, so that each
    target is a sink of its own, is swept from its sinks up.  An SCC reaches
    the targets if it holds one or steps to an SCC that reaches them; it
    misses them if it does not reach them or steps to an SCC that misses
    them.  Its level is 0 for a target or an SCC that does not reach them,
    and 1 + the largest level among its successors otherwise."""
    from scipy.sparse.csgraph import connected_components

    kept = np.repeat(~targets, np.diff(p.indptr))
    indptr = np.r_[0, np.cumsum(np.diff(p.indptr) * ~targets)]
    a = sp.csr_matrix((p.data[kept], p.indices[kept], indptr), shape=p.shape)
    n_scc, label = connected_components(a, directed=True, connection="strong")
    src, dst = np.repeat(label, np.diff(indptr)), label[a.indices]
    del a, indptr, kept
    src, dst = src[src != dst], dst[src != dst]  # the edges between SCCs
    out = np.bincount(src, minlength=n_scc)
    # the sources of the edges into SCC j are src[into[j]:into[j + 1]]
    src, into = src[np.argsort(dst)], np.r_[0, np.cumsum(np.bincount(dst, minlength=n_scc))]
    reach, miss, level = np.zeros(n_scc, bool), np.zeros(n_scc, bool), np.zeros(n_scc, np.int64)
    reach[label[targets]] = True
    frontier = np.flatnonzero(out == 0)
    while frontier.size:  # the SCCs whose successors are all swept
        miss[frontier] |= ~reach[frontier]
        level[frontier] *= reach[frontier]  # 0 unless it reaches them; a target has no successor
        count = into[frontier + 1] - into[frontier]
        pred, succ = src[_ranges(into[frontier], count)], np.repeat(frontier, count)
        reach[pred[reach[succ]]] = True
        miss[pred[miss[succ]]] = True
        np.maximum.at(level, pred, level[succ] + 1)
        np.subtract.at(out, pred, 1)
        frontier = np.unique(pred[out[pred] == 0])
    # 0 for every state but the unknowns, in the narrowest type: a stable sort of 16 bits sorts by radix
    level = level.astype(np.min_scalar_type(level.max()))[label]
    order, bounds = np.argsort(level, kind="stable"), np.cumsum(np.bincount(level)).tolist()
    return reach[label], ~miss[label], [order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _factor(p: sp.csr_matrix, levels: list) -> Iterator[tuple[np.ndarray, sp.csr_matrix, spla.SuperLU]]:
    """I - a, for a the entries of p among the unknowns, grouped as
    ``_condense`` gives them, in block-triangular form (Duff and Reid, ACM
    TOMS 4, 1978), yielded one level at a time, bottom first: its states,
    their rows of p and the natural-order LU factor of its diagonal block,
    which has no fill between its SCCs.  A level's rows are cut from p when
    the sweep reaches it, and its block is the identity less their columns
    in the level, as none lies above it.  SuperLU's supernodal panels gain
    nothing on blocks of about two nonzeros per row, and the default panel
    gives the same fill as one column in more time and memory."""
    for l, idx in enumerate(levels):
        rows = p[idx]
        block = sp.identity(len(idx), format="csc") - rows[:, idx]
        try:
            lu = spla.splu(block, permc_spec="NATURAL", panel_size=1)
        except RuntimeError as exc:  # a float cycle of probability one
            raise SolverError(f"level {l} of the block factor ({len(idx)} unknowns): {exc}") from None
        yield idx, rows, lu
        del lu  # the caller holds the only reference while it solves


def target_set(model: DtmcModel, lam: float) -> np.ndarray:
    """Boolean mask, by row, of the states whose phase coherence is at least lam."""
    return phase_coherences(model.states.array, model.params.t) >= lam


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
        value = float(np.dot(model.initial, np.where(model.initial > 0, values, 0.0)))  # 0.0 * inf is nan
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
    """Answer the queries in order: target set, reachability, expected
    reward, aggregation.  Each run of consecutive queries with the same
    lambda is one ``solve_target`` call for the reward kinds it asks for,
    so the run's system is factored once and each right-hand side solved
    once; its first result carries that work in ``wall_time``."""
    start = time.perf_counter()
    for lam, run in itertools.groupby(queries, key=lambda query: query.lam):
        run = list(run)
        kinds = tuple(dict.fromkeys(query.reward_kind for query in run))
        (reach, res1), rewards = solve_target(model, target_set(model, lam), kinds)
        for query in run:
            values, res2 = rewards[query.reward_kind]
            yield aggregate(
                model, values, reach, query.aggregate, query.reward_kind,
                wall_time=time.perf_counter() - start, residual=max(res1, res2),
            )
            start = time.perf_counter()
        del reach, rewards  # freed before the next run is solved


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

    Row i stands for a group of ``sizes[i]``, at most N, so one ``np.bincount``
    finds the distinct sizes in order.  The cumulative masses P(F <= f)
    of each distinct size are the running float sums of ``FiringTable.masses``,
    and a uniform u draws the number of them at or below u.  All sizes share
    one sorted table: the g-th size (from 0) keeps its sums below one as
    thresholds 2g + P(F <= f), and a row's key is 2g + u.  Keys and
    thresholds stay below 2G for G distinct sizes, so rounding them lets a
    key meet a threshold at most one ulp of 2G (2G * 2**-52) before u does,
    never after; each count's probability is therefore within 2G * 2**-52
    of the difference of the two running sums around it.  A single size
    (G = 1, key u) is exact up to the 2**-53 grid of u.  A last threshold of
    inf bounds the last size's counts.
    """

    def __init__(self, table: FiringTable, sizes: np.ndarray) -> None:
        present = np.bincount(sizes) > 0
        group = (np.cumsum(present) - 1)[sizes]
        # P(F <= f) for f < k; a sum that reaches one is never passed by u < 1
        cdfs = [np.cumsum(table.masses(k))[:-1] for k in np.flatnonzero(present).tolist()]
        cdfs = [cdf[cdf < 1.0] for cdf in cdfs]
        self.thresholds = np.concatenate([2.0 * g + cdf for g, cdf in enumerate(cdfs)] + [[np.inf]])
        counts = np.array([len(cdf) for cdf in cdfs])
        self.key, self.first = 2.0 * group, (np.cumsum(counts) - counts)[group]

    def failures(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The failure count of each of ``rows`` drawn with uniforms ``u`` in [0, 1)."""
        return self.position(rows, u) - self.first[rows]

    def position(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``first[rows]`` plus the failure count drawn: the thresholds at or below each key."""
        # the method skips the dispatch of np.searchsorted, most of a small call's cost
        return self.thresholds.searchsorted(self.key[rows] + u, side="right")

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
    successor and reward are the build's, from ``FiringTable.successors``
    and ``step_reward`` of the sampled kind; the failures of absorbed groups
    change neither the successor nor the rewards.  Runs
    still short of the target after step_cap steps are censored at the
    accumulated value and counted.  One seed always gives the same result;
    the draws are taken in step order across the runs.  A state's id is its
    row in the rank-ordered initial support, as in ``build_dtmc``, and the
    tables are sized by that support: a slot per failure count of each
    state, and beside them the state that owns each slot, in the narrowest
    type, so a fill reads the states of its new slots without a search.

    After 2**i steps, if none since step 2**(i-1) stopped a run or took a
    new slot, ``_closed_set`` looks for a closed set without targets that
    holds the live runs and in which every slot the draw can take of a
    state has one successor and reward.  Then no run ever stops, and
    ``fold_walks`` adds the remaining steps' rewards left to right as
    stepping adds them, in blocks, once per distinct position and sum so
    far, so per seed the result is the same; ``trapped`` is set.  A state
    with two outcomes keeps the runs stepping.
    """
    AnalysisQuery(lam, reward_kind)  # the same lambda and reward kind checks
    for name, value, low in (("samples", samples, 1), ("step_cap", step_cap, 0), ("seed", seed, 0)):
        check_integer(name, value)
        if value < low:
            raise ValueError(f"{name} must be at least {low}, got {value}")
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
    base = offset - draw.first  # a run's slot is base[i] + the draw's position
    untaken = len(support)
    owner = np.repeat(np.arange(untaken, dtype=np.min_scalar_type(untaken - 1)), k_t + 1)
    succ = np.full(untaken + k_t.sum(), untaken)
    reward = np.zeros(len(succ))
    flag = np.append(phase_coherences(support, p.t) >= lam, True)

    def fill(slots):  # the slots' successors and rewards, the untaken ones worked out
        if (new := succ[slots] == untaken).any():
            missing, place = slots[new], np.arange(np.count_nonzero(new))
            succ[missing] = place  # of the places that write one slot, one is left in it
            missing = missing[succ[missing] == place]  # each slot once, without a sort
            ids = owner[missing]
            states = support[ids]
            skips = skip_lengths(states)  # one skip length for the successor and the reward
            targets = table.successors(states, k_t[ids] - (missing - offset[ids]), skips)
            r = step_reward(states, skips, reward_kind, p, profile)
            if reward_kind == "power":
                r += transmit_power(targets[:, 0], profile)
            succ[missing], reward[missing] = space.rows(targets), r
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
                acc = fold_walks(here, acc, nxt, r, step_cap - j)
                break
        slots = base[cur] + draw.position(cur, rng.random(len(cur)))
        nxt = succ[slots]
        if not flag[nxt].any():
            acc += reward[slots]
            cur = nxt
            continue
        if (nxt == untaken).any():  # slots still to work out
            nxt = fill(slots)[0]
        stop, last_new = flag[nxt], j
        acc += reward[slots]
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
