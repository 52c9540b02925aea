import dataclasses
import math
import tracemalloc
import weakref
from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from scipy.sparse import csgraph
from scipy.sparse.csgraph import connected_components

from oracles import csr_rows, exact_masses, natural_factor, rational_solve, row_sum_bound
from pcosync import analysis
from pcosync.analysis import (
    AnalysisQuery,
    FailureDraw,
    aggregate,
    monte_carlo,
    solve_queries,
    solve_query,
    solve_target,
    target_set,
)
from pcosync.core import ModelParams, is_synchronised
from pcosync.dtmc import MICAZ, DtmcModel, build_dtmc, transition_rewards
from pcosync.dynamics import FiringTable
from test_dtmc import small_models


def params(**kw):
    base = dict(n=2, t=3, r=1, epsilon=0.5, mu=0.0)
    base.update(kw)
    return ModelParams(**base)


@pytest.fixture(scope="module")
def hand_model():
    # 2 oscillators, 3 phases: small enough to solve by hand
    return build_dtmc(params())


class TestTargetSet:
    def test_lambda_one_is_synchrony(self, hand_model):
        targets = target_set(hand_model, 1.0)
        assert targets.dtype == bool and targets.shape == (hand_model.n_states,)
        for i, sigma in enumerate(hand_model.states):
            assert targets[i] == is_synchronised(sigma)

    def test_lambda_zero_is_everything(self, hand_model):
        assert target_set(hand_model, 0.0).all()

    def test_half_threshold_excludes_reference_state(self):
        model = build_dtmc(ModelParams(n=8, t=10, r=2, epsilon=0.1, mu=0.2))
        i = model.states.index((0, 0, 0, 0, 0, 2, 1, 0, 0, 5))
        assert not target_set(model, 0.5)[i]  # coherence 0.4671 falls short


class TestReachProbability:
    def test_targets_are_one(self, hand_model):
        targets = target_set(hand_model, 1.0)
        reach, _ = solve_target(hand_model, targets, ())[0]
        for i in np.flatnonzero(targets):
            assert reach[i] == 1.0

    def test_all_states_synchronise(self, hand_model):
        reach, _ = solve_target(hand_model, target_set(hand_model, 1.0), ())[0]
        assert np.allclose(reach, 1.0)

    def test_trapped_state_scores_zero(self):
        # with 2 phases and a refractory first phase, a split pair loops forever
        model = build_dtmc(params(n=2, t=2, r=1, mu=0.2))
        reach, _ = solve_target(model, target_set(model, 1.0), ())[0]
        assert reach[model.states.index((1, 1))] == 0.0


class TestExpectedReward:
    def test_targets_are_zero(self, hand_model):
        targets = target_set(hand_model, 1.0)
        values, _ = solve_target(hand_model, targets, ("time",))[1]["time"]
        for i in np.flatnonzero(targets):
            assert values[i] == 0.0

    def test_single_step_identity(self):
        # (1,1) with no refractory fires both oscillators in one step
        model = build_dtmc(params(n=2, t=2, r=0))
        values, _ = solve_target(model, target_set(model, 1.0), ("time",))[1]["time"]
        assert values[model.states.index((1, 1))] == pytest.approx(0.5)

    def test_hand_solved_chain(self, hand_model):
        # (1,0,1) -> (1,1,0) -> (0,1,1) -> synchronised, one third of a
        # cycle per step
        values, _ = solve_target(hand_model, target_set(hand_model, 1.0), ("time",))[1]["time"]
        assert values[hand_model.states.index((0, 1, 1))] == pytest.approx(1 / 3)
        assert values[hand_model.states.index((1, 1, 0))] == pytest.approx(2 / 3)
        assert values[hand_model.states.index((1, 0, 1))] == pytest.approx(1.0)

    def test_infinite_where_not_certain(self):
        model = build_dtmc(params(n=2, t=2, r=1, mu=0.2))
        values, _ = solve_target(model, target_set(model, 1.0), ("time",))[1]["time"]
        assert math.isinf(values[model.states.index((1, 1))])

    def test_power_reward_hand_value(self, hand_model):
        # (0,1,1): one firing step; the phase-2 node listens, the firing
        # node listens too, then both transmit after resetting
        values, _ = solve_target(hand_model, target_set(hand_model, 1.0), ("power",))[1]["power"]
        expected = 2 * MICAZ.w_receive(3) + 2 * MICAZ.w_transmit()
        assert values[hand_model.states.index((0, 1, 1))] == pytest.approx(expected)

    def test_rejects_unknown_kind(self, hand_model):
        targets = np.zeros(hand_model.n_states, dtype=bool)
        with pytest.raises(ValueError, match="unknown reward kind 'fuel'"):
            solve_target(hand_model, targets, ("time", "fuel"))


@pytest.mark.parametrize(
    "targets",
    [frozenset({0}), [True] * 6, np.ones(6), np.ones(5, dtype=bool), np.ones((6, 1), dtype=bool)],
    ids=["set", "list", "float-array", "short-mask", "column-mask"],
)
def test_target_argument_must_be_a_mask(hand_model, targets):
    # one boolean per state, as target_set gives it
    assert hand_model.n_states == 6
    message = "targets must be a boolean array of length 6, one entry per state"
    with pytest.raises(ValueError, match=message):
        solve_target(hand_model, targets, ("time",))


class TestGraphFiniteness:
    """Whether a reward is finite follows the graph, not the reach value."""

    def test_rare_step_into_a_trap_is_infinite(self):
        # (1,0,1,1) enters (1,1,0,1) with probability 1e-12, and from there
        # the trap (2,0,1,0) almost surely: its reach value is 1 - 1e-12
        model = build_dtmc(ModelParams(n=3, t=4, r=2, epsilon=0.5, mu=1e-12))
        (reach, _), rewards = solve_target(model, target_set(model, 1.0), ("time",))
        values = rewards["time"][0]
        assert reach[model.states.index((2, 0, 1, 0))] == 0.0
        assert reach[model.states.index((1, 1, 0, 1))] < 1e-11
        assert reach[model.states.index((1, 0, 1, 1))] > 1.0 - 1e-11
        assert math.isinf(values[model.states.index((1, 0, 1, 1))])

    def test_certain_target_behind_rare_steps_is_finite(self):
        # (1,0,1) stays put with probability 1 - 1e-12, so its float reach
        # value comes out near 0.99987, yet it synchronises for certain
        mu = 1e-12
        model = build_dtmc(ModelParams(n=2, t=3, r=0, epsilon=0.5, mu=mu))
        values, _ = solve_target(model, target_set(model, 1.0), ("time",))[1]["time"]
        want = (1 + 2 * mu) / (3 * mu * (1 - mu))
        assert values[model.states.index((1, 0, 1))] == pytest.approx(want, rel=1e-3)

    def test_paths_through_the_target_do_not_count(self):
        # 0 -> 1 -> 2, where 1 is the target and 2 a trap: 0 enters the
        # target for certain, though a path from it ends in the trap
        p = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]))
        chain = SimpleNamespace(transitions=p, rewards={"time": np.ones(3)}, n_states=3)
        (reach, _), rewards = solve_target(chain, np.array([False, True, False]), ("time",))
        assert reach.tolist() == [1.0, 1.0, 0.0]
        assert rewards["time"][0].tolist() == [1.0, 0.0, math.inf]

    def test_slow_certain_synchrony_is_finite(self):
        # every state synchronises for certain, but so slowly that value
        # iteration stopped at 1e-6 left reach values as low as 0.9933
        model = build_dtmc(ModelParams(n=6, t=8, r=2, epsilon=0.1, mu=0.99))
        exact = solve_query(model, AnalysisQuery(lam=1.0))
        assert exact.value == pytest.approx(395.4131583933702, rel=1e-12)


class TestAggregate:
    def test_hand_average(self, hand_model):
        # weights 2/9 for each mixed state, values 1, 2/3, 1/3
        result = solve_query(hand_model, AnalysisQuery(lam=1.0, reward_kind="time", aggregate="avg"))
        assert result.value == pytest.approx(4 / 9)
        assert result.reach_probability == pytest.approx(1.0)

    def test_min_is_zero_in_full_mode(self, hand_model):
        for lam in (0.0, 0.3, 0.7, 1.0):
            result = solve_query(hand_model, AnalysisQuery(lam=lam, aggregate="min"))
            assert result.value == 0.0

    def test_max_picks_worst_initial_state(self, hand_model):
        result = solve_query(hand_model, AnalysisQuery(lam=1.0, aggregate="max"))
        assert result.value == pytest.approx(1.0)

    def test_average_absorbs_infinity(self):
        model = build_dtmc(params(n=2, t=2, r=1, mu=0.2))
        result = solve_query(model, AnalysisQuery(lam=1.0, aggregate="avg"))
        assert math.isinf(result.value)
        assert result.reach_probability < 1.0

    def test_average_ignores_infinity_without_weight(self):
        # at full N=1,100, T=2 some initial weights underflow to 0.0; an inf
        # value there must not turn the average into nan (0.0 * inf)
        model = build_dtmc(params(n=3, t=4, r=1, epsilon=0.1, mu=0.2))
        (reach, _), rewards = solve_target(model, target_set(model, 1.0), ("time",))
        values = rewards["time"][0]
        trapped = np.isinf(values)
        assert trapped.any() and model.initial[~trapped].any()
        moved = dataclasses.replace(model, initial=np.where(trapped, 0.0, model.initial))
        result = aggregate(moved, values, reach, "avg", "time")
        assert result.value == pytest.approx(np.dot(moved.initial[~trapped], values[~trapped]), rel=1e-12)

    def test_per_node_conversion(self, hand_model):
        (reach, _), rewards = solve_target(hand_model, target_set(hand_model, 1.0), ("power",))
        result = aggregate(hand_model, rewards["power"][0], reach, "avg", "power")
        assert result.per_node_mWh == pytest.approx(result.value / 2 * 1000.0)


def reference_masks(model, targets):
    """The states that reach the ``targets`` and those that reach them with
    probability one, as sets, from backward searches over predecessor lists
    built from the transition rows."""
    n = model.n_states
    targets = set(np.flatnonzero(targets).tolist())
    predecessors = [[] for _ in range(n)]
    for src, row in enumerate(csr_rows(model)):
        for target, *_ in row:
            predecessors[target].append(src)

    def backward(seed, allowed):
        found, queue = set(seed), list(seed)
        while queue:
            for src in predecessors[queue.pop()]:
                if src not in found and src in allowed:
                    found.add(src)
                    queue.append(src)
        return found

    everything = set(range(n))
    reaching = backward(targets, everything)
    # short of one: the states that reach a state outside ``reaching``
    # without passing through the target
    return reaching, everything - backward(everything - reaching, everything - targets)


def loop_reference(model, targets, reward_kind, exact=False):
    """Per-state reachability and expected reward straight from the
    transition rows: ``reference_masks`` for the states that reach the
    target and those that reach it with probability one, then one dense
    solve per system, or, if ``exact``, one ``rational_solve`` of its float
    entries, the right-hand side summed exactly."""
    n = model.n_states
    reaching, certain = reference_masks(model, targets)
    targets = set(np.flatnonzero(targets).tolist())
    rows = csr_rows(model)

    def solve(unknown, one_step):
        idx = sorted(unknown)
        if exact:
            b = [
                sum((one_step(target, Fraction(prob), [*map(Fraction, rewards)])
                     for target, prob, *rewards in rows[s]), Fraction(0))
                for s in idx
            ]
            return idx, rational_solve(model.transitions[idx][:, idx], b)
        pos = {s: i for i, s in enumerate(idx)}
        system, b = np.eye(len(idx)), np.zeros(len(idx))
        for s in idx:
            for target, prob, *rewards in rows[s]:
                b[pos[s]] += one_step(target, prob, rewards)
                if target in pos:
                    system[pos[s], pos[target]] -= prob
        return idx, np.linalg.solve(system, b) if idx else np.zeros(0)

    reach = np.zeros(n)
    reach[list(targets)] = 1.0
    idx, sol = solve(reaching - targets, lambda target, prob, _: prob * (target in targets))
    reach[idx] = sol
    values = np.full(n, np.inf)
    values[list(certain)] = 0.0
    col = 0 if reward_kind == "time" else 1
    idx, sol = solve(certain - targets, lambda _, prob, rewards: prob * rewards[col])
    values[idx] = sol
    return reach, values


# name -> params; in "restab" and "partial" some states reach the
# target with probability strictly between 0 and 1, so only part of the
# shared system's unknowns get a finite reward.  In "trapped" it is empty.
FACTOR_MODELS = {
    "full": ModelParams(n=5, t=8, r=1, epsilon=0.1, mu=0.2),
    "restab": ModelParams(n=12, t=6, r=2, epsilon=0.1, mu=0.2, u=2),
    "trapped": params(n=2, t=2, r=1, mu=0.2),
    "partial": ModelParams(n=3, t=4, r=2, epsilon=0.5, mu=0.2),
}


FOUR_QUERIES = [
    AnalysisQuery(lam=1.0, reward_kind=kind, aggregate=agg)
    for kind in ("time", "power") for agg in ("avg", "max")
]


@pytest.fixture
def splu_calls(monkeypatch):
    """Sizes of the systems factored while the test runs, one entry per
    system however many levels its factor sweeps."""
    calls = []
    real = analysis._factor

    def counting(p, levels):
        calls.append(sum(map(len, levels)))
        return real(p, levels)

    monkeypatch.setattr(analysis, "_factor", counting)
    return calls


@pytest.fixture
def solves(monkeypatch):
    """The matrix a, right-hand side and solution of each column solved
    while the test runs, taken among the unknowns: a is the transitions
    between them, sliced from the model's matrix as the reference system."""
    calls = []
    real = analysis._solve

    def recording(p, levels, columns):
        solutions = real(p, levels, columns)
        idx = np.sort(np.concatenate([np.zeros(0, int), *levels]))
        unknown = np.isin(np.arange(p.shape[0]), idx)
        a = p[idx][:, idx]
        for b, (x, _) in zip(columns, solutions):
            # one entry per state, and nothing written off the unknowns
            assert len(b) == len(x) == p.shape[0] and not x[~unknown].any()
            calls.append((a, b[idx], x[idx]))
        return solutions

    monkeypatch.setattr(analysis, "_solve", recording)
    return calls


class TestFactorReuse:
    @pytest.mark.parametrize("name", sorted(FACTOR_MODELS))
    def test_cached_factor_matches_fresh_factor(self, name):
        p = FACTOR_MODELS[name]
        cached = build_dtmc(p)
        for kind in ("time", "power"):
            for agg in ("min", "avg", "max"):
                query = AnalysisQuery(lam=1.0, reward_kind=kind, aggregate=agg)
                got = solve_query(cached, query)
                want = solve_query(build_dtmc(p), query)
                assert got.value == pytest.approx(want.value, rel=1e-12)
                assert got.reach_probability == pytest.approx(want.reach_probability, rel=1e-12)
                fresh = build_dtmc(p)
                want_values, _ = solve_target(fresh, target_set(fresh, 1.0), (kind,))[1][kind]
                got_values, _ = solve_target(cached, target_set(cached, 1.0), (kind,))[1][kind]
                np.testing.assert_allclose(got_values, want_values, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name", sorted(FACTOR_MODELS))
    @pytest.mark.parametrize("lam", [1.0, 0.6])
    def test_matches_loop_reference(self, name, lam):
        p = FACTOR_MODELS[name]
        model = build_dtmc(p)
        targets = target_set(model, lam)
        (reach, _), rewards = solve_target(model, targets, ("time", "power"))
        for kind in ("time", "power"):
            want_reach, want_values = loop_reference(model, targets, kind)
            values = rewards[kind][0]
            np.testing.assert_allclose(reach, want_reach, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(values, want_values, rtol=1e-10, atol=0.0)

    def test_four_queries_factor_once(self, splu_calls):
        model = build_dtmc(FACTOR_MODELS["full"])
        list(solve_queries(model, FOUR_QUERIES))
        assert splu_calls == [784]

    def test_reach_and_rewards_share_one_factor(self, splu_calls):
        # 4 of the 12 unknowns reach the target with probability below one
        p = FACTOR_MODELS["partial"]
        model = build_dtmc(p)
        list(solve_queries(model, [AnalysisQuery(lam=1.0, reward_kind=kind) for kind in ("time", "power")]))
        assert splu_calls == [12]

    def test_runs_of_one_lambda_share_a_factor(self, splu_calls):
        p = FACTOR_MODELS["full"]
        model = build_dtmc(p)
        queries = [
            AnalysisQuery(lam=lam, reward_kind=kind, aggregate=agg)
            for lam, kind, agg in (
                (1.0, "time", "avg"), (1.0, "power", "max"), (0.6, "time", "min"),
                (0.6, "power", "avg"), (1.0, "time", "max"),
            )
        ]
        got = list(solve_queries(model, queries))
        assert len(splu_calls) == 3
        want = [solve_query(model, query) for query in queries]
        for g, w in zip(got, want):
            assert dataclasses.replace(g, wall_time=0.0) == dataclasses.replace(w, wall_time=0.0)

    def test_solving_leaves_the_model_untouched(self):
        assert "_analysis" not in {f.name for f in dataclasses.fields(DtmcModel)}
        model = build_dtmc(FACTOR_MODELS["full"])
        before = dict(vars(model))
        solve_query(model, AnalysisQuery(lam=1.0, reward_kind="power"))
        assert vars(model).keys() == before.keys()
        assert all(vars(model)[name] is value for name, value in before.items())

    def test_new_target_set_refactors(self, splu_calls):
        p = FACTOR_MODELS["full"]
        model = build_dtmc(p)
        values = [solve_query(model, AnalysisQuery(lam=lam)).value for lam in (1.0, 0.6, 1.0)]
        assert len(splu_calls) == 3
        fresh = [solve_query(build_dtmc(p), AnalysisQuery(lam=lam)).value for lam in (1.0, 0.6)]
        assert values == pytest.approx(fresh + fresh[:1], rel=1e-12)

    def test_mask_changed_in_place_is_a_new_target_set(self, splu_calls):
        # a solve of the changed mask answers for the new target set
        p = FACTOR_MODELS["full"]
        model, fresh = build_dtmc(p), build_dtmc(p)
        targets = target_set(model, 1.0)
        solve_target(model, targets, ("time",))
        targets[:] = target_set(model, 0.6)
        got, _ = solve_target(model, targets, ("time",))[1]["time"]
        assert len(splu_calls) == 2
        assert np.array_equal(got, solve_target(fresh, target_set(fresh, 0.6), ("time",))[1]["time"][0])

    def test_reach_and_rewards_of_one_system_factor_once(self, splu_calls, solves):
        # in "partial" the reach of some unknowns is solved, not read off
        # the graph: three columns of one sweep
        model = build_dtmc(FACTOR_MODELS["partial"])
        solve_target(model, target_set(model, 1.0), ("time", "power"))
        assert splu_calls == [12] and len(solves) == 3

    def test_no_right_hand_side_factors_nothing(self, splu_calls):
        # every unknown is in Prob1 and no reward is asked for
        model = build_dtmc(FACTOR_MODELS["full"])
        targets = target_set(model, 1.0)
        (reach, residual), rewards = solve_target(model, targets, ())
        assert splu_calls == [] and rewards == {} and residual == 0.0
        assert np.array_equal(reach, solve_target(model, targets, ("time",))[0][0])

    def test_residual_is_reported(self):
        model = build_dtmc(FACTOR_MODELS["full"])
        result = solve_query(model, AnalysisQuery(lam=1.0, reward_kind="power"))
        # reach values are of order one, power values of order 1e-4 Wh
        assert 0.0 < result.residual < 1e-14

    def test_four_queries_solve_each_right_hand_side_once(self, solves):
        # in "full" every unknown is in Prob1, so its reach is not solved
        for name, want in (("full", [784] * 2), ("partial", [12] * 3)):
            p = FACTOR_MODELS[name]
            model = build_dtmc(p)
            solves.clear()
            list(solve_queries(model, FOUR_QUERIES))
            assert [a.shape[0] for a, _, _ in solves] == want, name


# systems of at most 40 unknowns; at mu = 0.99 the masses span many binary
# orders, and in the last two every system is empty
RATIONAL_MODELS = {
    "partial": FACTOR_MODELS["partial"],
    "trapped3": ModelParams(n=3, t=4, r=1, epsilon=0.1, mu=0.2),
    "n3t6mu02": ModelParams(n=3, t=6, r=1, epsilon=0.1, mu=0.2),
    "n3t6mu99": ModelParams(n=3, t=6, r=1, epsilon=0.1, mu=0.99),
    "n4t5": ModelParams(n=4, t=5, r=1, epsilon=0.1, mu=0.2),
    "n2t2r0": ModelParams(n=2, t=2, r=0, epsilon=0.1, mu=0.2),
    "n1": ModelParams(n=1, t=10, r=2, epsilon=0.1, mu=0.2),
}


class TestRationalOracle:
    @pytest.mark.parametrize("name", sorted(RATIONAL_MODELS))
    @pytest.mark.parametrize("lam", [1.0, 0.6])
    def test_matches_rational_solve(self, name, lam):
        # the exact solution of the float system the library solves
        p = RATIONAL_MODELS[name]
        model = build_dtmc(p)
        targets = target_set(model, lam)
        (reach, _), rewards = solve_target(model, targets, ("time", "power"))
        for kind in ("time", "power"):
            want_reach, want_values = loop_reference(model, targets, kind, exact=True)
            values = rewards[kind][0]
            np.testing.assert_allclose(reach, want_reach, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(values, want_values, rtol=1e-12, atol=0.0)


# FACTOR_MODELS, the edge values of mu, R, T, N and epsilon, and two models
# where some states never reach the target.  At mu = 1 and N = 1 the systems
# are empty: no broadcast ever arrives, or every state is synchronised.
SOLVE_MODELS = {
    **FACTOR_MODELS,
    "mu0": ModelParams(n=6, t=8, r=2, epsilon=0.1, mu=0.0),
    "mu99": ModelParams(n=6, t=8, r=2, epsilon=0.1, mu=0.99),
    "mu1": ModelParams(n=6, t=8, r=2, epsilon=0.1, mu=1.0),
    "r0": ModelParams(n=5, t=8, r=0, epsilon=0.1, mu=0.2),
    "t2": ModelParams(n=6, t=2, r=0, epsilon=0.1, mu=0.2),
    "n1": ModelParams(n=1, t=10, r=2, epsilon=0.1, mu=0.2),
    "eps05": ModelParams(n=5, t=8, r=2, epsilon=0.5, mu=0.2),
    "trapped3": ModelParams(n=3, t=4, r=1, epsilon=0.1, mu=0.2),
    "n8r6": ModelParams(n=8, t=10, r=6, epsilon=0.3, mu=0.2),
}

# "n8r6" at lambda = 0.6: 201 states that miss the target lie outside a
# bottom SCC and are entered straight from unknowns
LEVEL_MODELS = {
    **FACTOR_MODELS,
    "n8r2": ModelParams(n=8, t=10, r=2, epsilon=0.1, mu=0.2),
    "n8r6": SOLVE_MODELS["n8r6"],
}

# the edge models add deterministic rows and self-loops, whose entries a
# block's diagonal must take
BLOCK_MODELS = {**LEVEL_MODELS, **SOLVE_MODELS}


def factored_systems(p):
    """The transition matrix, the mask of unknowns and the levels of
    ``_condense`` of the model's reach and reward solves at lambda = 1 and
    0.6, where there is an unknown: the unknowns are the states that reach
    the target and are not in it, found by ``reference_masks``."""
    model = build_dtmc(p)
    systems = []
    for lam in (1.0, 0.6):
        targets = target_set(model, lam)
        unknown = np.isin(np.arange(model.n_states), list(reference_masks(model, targets)[0])) & ~targets
        if unknown.any():
            systems.append((model.transitions, unknown, analysis._condense(model.transitions, targets)[2]))
    return systems


LAMBDAS = [1.0, 0.9, 0.6, 0.3]


def assert_masks_match_backward_search(model):
    for lam in LAMBDAS:
        targets = target_set(model, lam)
        reaching, certain, _ = analysis._condense(model.transitions, targets)
        want_reaching, want_certain = reference_masks(model, targets)
        assert set(np.flatnonzero(reaching).tolist()) == want_reaching, lam
        assert set(np.flatnonzero(certain).tolist()) == want_certain, lam


class TestCondense:
    @given(small_models())
    @settings(max_examples=40, deadline=None)
    def test_masks_match_backward_search(self, p):
        assert_masks_match_backward_search(build_dtmc(p))

    def test_masks_match_backward_search_outside_bottom_sccs(self):
        assert_masks_match_backward_search(build_dtmc(LEVEL_MODELS["n8r6"]))

    def test_one_condensation_per_target_set(self, monkeypatch):
        calls, real = [], csgraph.connected_components

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(csgraph, "connected_components", counting)
        model = build_dtmc(FACTOR_MODELS["partial"])
        solve_target(model, target_set(model, 1.0), ("time", "power"))
        assert calls == [dict(directed=True, connection="strong")]


class TestBlockSolve:
    @pytest.mark.parametrize("name", sorted(LEVEL_MODELS))
    def test_levels_order_the_condensation(self, name):
        p = LEVEL_MODELS[name]
        for m, unknown, levels in factored_systems(p):
            level = np.zeros(m.shape[0], int)  # 0 off the unknowns
            for depth, (idx, rows, _) in enumerate(analysis._factor(m, levels), 1):
                assert np.all(np.diff(idx) > 0)
                assert unknown[idx].all()  # a block holds unknowns only
                assert np.all(level[idx] == 0)  # no unknown in two blocks
                level[idx] = depth
                assert (rows != m[idx]).nnz == 0
            assert np.all(level[unknown] > 0)
            # the condensation of the system among the unknowns: an unknown's
            # level is 1 + the largest level among the states its SCC steps to
            idx = np.flatnonzero(unknown)
            n_scc, scc = connected_components(m[idx][:, idx], directed=True, connection="strong")
            edges = m[idx].tocoo()
            at = np.full(m.shape[0], -1)
            at[idx] = scc
            cross = at[edges.col] != scc[edges.row]
            want = np.zeros(n_scc, int)
            np.maximum.at(want, scc[edges.row[cross]], level[edges.col[cross]] + 1)
            assert np.array_equal(level[idx], want[scc])

    @pytest.mark.parametrize("name", sorted(BLOCK_MODELS))
    def test_blocks_are_diagonal_blocks_of_the_system(self, name, monkeypatch):
        p = BLOCK_MODELS[name]
        blocks = []
        real = analysis.spla.splu

        def recording(block, **kwargs):
            blocks.append(block)
            return real(block, **kwargs)

        monkeypatch.setattr(analysis.spla, "splu", recording)
        for m, _, levels in factored_systems(p):
            system_matrix = sp.identity(m.shape[0], format="csr") - m
            blocks.clear()
            levels = list(analysis._factor(m, levels))
            assert len(blocks) == len(levels)
            for (idx, _, _), block in zip(levels, blocks):
                want = system_matrix[idx][:, idx]
                assert block.format == "csc" and block.shape == want.shape
                assert (block != want).nnz == 0

    @pytest.mark.parametrize("name", sorted(LEVEL_MODELS))
    def test_residual_is_the_whole_systems(self, name, solves):
        # taken level by level, the residual is bit for bit the one of the
        # whole system, each row of a x summed in stored order
        p = LEVEL_MODELS[name]
        model = build_dtmc(p)
        for kind in ("time", "power"):
            solves.clear()
            result = solve_query(model, AnalysisQuery(lam=1.0, reward_kind=kind))
            want = 0.0
            for a, b, x in solves:  # the solves the query made
                if a.shape[0]:
                    want = max(want, float(np.max(np.abs(x - a @ x - b))))
            assert result.residual == want
            assert want > 0.0 or not solves[0][0].shape[0]

    @pytest.mark.parametrize("name", ["full", "n8r2"])
    def test_one_level_factor_alive_at_a_time(self, name, monkeypatch):
        # when a level is factored, the factor of every level below it is
        # gone; SuperLU takes no weakref, so each factor is wrapped
        class Factor:
            def __init__(self, lu):
                self.solve = lu.solve

        factors, real = [], analysis.spla.splu

        def factoring(block, **kwargs):
            assert all(ref() is None for ref in factors)
            lu = Factor(real(block, **kwargs))
            factors.append(weakref.ref(lu))
            return lu

        monkeypatch.setattr(analysis.spla, "splu", factoring)
        list(solve_queries(build_dtmc(LEVEL_MODELS[name]), FOUR_QUERIES))
        assert len(factors) > 2 and all(ref() is None for ref in factors)

    def test_working_memory_is_bounded_by_the_chain(self):
        # the NumPy arrays a solve holds at once, against the model's own CSR;
        # tracemalloc does not see SuperLU's C allocations, so the LU factors
        # are not counted
        model = build_dtmc(LEVEL_MODELS["n8r2"])
        p, targets = model.transitions, target_set(model, 1.0)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            solve_target(model, targets, ("time", "power"))
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak <= 5 * (p.data.nbytes + p.indices.nbytes + p.indptr.nbytes)

    @pytest.mark.parametrize("name", sorted(SOLVE_MODELS))
    @pytest.mark.parametrize("lam", [1.0, 0.6])
    def test_matches_natural_order_factor(self, name, lam, monkeypatch):
        p = SOLVE_MODELS[name]

        def solve(model):
            (reach, _), rewards = solve_target(model, target_set(model, lam), ("time", "power"))
            return [reach] + [rewards[kind][0] for kind in ("time", "power")]

        got = solve(build_dtmc(p))
        monkeypatch.setattr(analysis, "_factor", natural_factor)
        want = solve(build_dtmc(p))
        for g, w in zip(got, want):
            np.testing.assert_array_equal(np.isinf(g), np.isinf(w))
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0)


# repr of (value, reach_probability, residual) for each of FOUR_QUERIES,
# to the last bit: any change to the float operations of a solve shows here
PINNED_MODELS = {
    "n8r2": LEVEL_MODELS["n8r2"],
    "partial": FACTOR_MODELS["partial"],
    "trapped3": SOLVE_MODELS["trapped3"],
    "restab200": ModelParams(n=200, t=10, r=4, epsilon=0.1, mu=0.2, u=3),
}
PINNED = {
    ("n8r2", 1.0): [
        "(3.536889204764268, 1.0, 1.1032841307212493e-14)",
        "(5.3376992379953085, 1.0, 1.1032841307212493e-14)",
        "(0.0003688424232524878, 1.0, 6.06475590234079e-19)",
        "(0.0005479187796206286, 1.0, 6.06475590234079e-19)",
    ],
    ("n8r2", 0.6): [
        "(1.4415410049461368, 1.0, 3.635980405647388e-15)",
        "(3.297884942246202, 1.0, 3.635980405647388e-15)",
        "(0.0001484712681236901, 1.0, 2.964615315390051e-19)",
        "(0.00033366531266695214, 1.0, 2.964615315390051e-19)",
    ],
    ("partial", 1.0): [
        "(inf, 0.0, 1.1102230246251565e-16)",
        "(inf, 0.0, 1.1102230246251565e-16)",
        "(inf, 0.0, 2.7755575615628914e-17)",
        "(inf, 0.0, 2.7755575615628914e-17)",
    ],
    ("partial", 0.6): [
        "(inf, 0.0, 5.551115123125783e-17)",
        "(inf, 0.0, 5.551115123125783e-17)",
        "(inf, 0.0, 1.6940658945086007e-21)",
        "(inf, 0.0, 1.6940658945086007e-21)",
    ],
    ("trapped3", 1.0): [
        "(inf, 0.0, 5.551115123125783e-17)",
        "(inf, 0.0, 5.551115123125783e-17)",
        "(inf, 0.0, 6.776263578034403e-21)",
        "(inf, 0.0, 6.776263578034403e-21)",
    ],
    ("trapped3", 0.6): ["(inf, 0.0, 0.0)"] * 4,
    ("restab200", 1.0): [
        "(2.5333310503408177, 1.0, 1.0547118733938987e-15)",
        "(5.000000000000162, 1.0, 1.0547118733938987e-15)",
        "(0.005019736610175701, 1.0, 2.8269724614612274e-18)",
        "(0.009874052166666977, 1.0, 2.8269724614612274e-18)",
    ],
    ("restab200", 0.6): ["(0.0, 1.0, 0.0)"] * 4,
}


@pytest.mark.parametrize("name, lam", sorted(PINNED))
def test_pinned_solve_values(name, lam):
    model = build_dtmc(PINNED_MODELS[name])
    queries = [dataclasses.replace(query, lam=lam) for query in FOUR_QUERIES]
    got = [repr((r.value, r.reach_probability, r.residual)) for r in solve_queries(model, queries)]
    assert got == PINNED[name, lam]


class TestQueryValidation:
    def test_lambda_bounds(self):
        with pytest.raises(ValueError):
            AnalysisQuery(lam=1.5)

    def test_reward_kind(self):
        with pytest.raises(ValueError):
            AnalysisQuery(lam=1.0, reward_kind="entropy")

    def test_aggregate_name(self):
        with pytest.raises(ValueError):
            AnalysisQuery(lam=1.0, aggregate="median")


class TestMonteCarlo:
    @pytest.mark.parametrize("lam", [1.5, -0.1, float("nan")])
    def test_rejects_lambda_a_query_rejects(self, lam):
        p = params(n=3, t=4, r=1, epsilon=0.5, mu=0.2)
        with pytest.raises(ValueError) as query_error:
            AnalysisQuery(lam=lam)
        with pytest.raises(ValueError) as mc_error:
            monte_carlo(p, lam=lam, samples=200, seed=1)
        assert str(mc_error.value) == str(query_error.value)

    def test_deterministic_for_fixed_seed(self):
        p = params(n=3, t=4, r=1, epsilon=0.1, mu=0.2)
        a = monte_carlo(p, samples=500, seed=42)
        b = monte_carlo(p, samples=500, seed=42)
        assert a == b

    def test_seed_changes_result(self):
        p = params(n=3, t=4, r=1, epsilon=0.1, mu=0.2)
        assert monte_carlo(p, samples=500, seed=1) != monte_carlo(p, samples=500, seed=2)

    def test_single_oscillator_is_exact(self):
        # one oscillator is always synchronised, so every run costs nothing
        p = params(n=1, t=5, r=1, epsilon=0.1, mu=0.0)
        result = monte_carlo(p, samples=100, seed=0)
        assert result.mean == 0.0
        assert result.censored == 0

    def test_matches_exact_within_three_standard_errors(self):
        # synchronisation is certain here, so no run gets censored
        p = params(n=4, t=3, r=1, epsilon=0.5, mu=0.2)
        model = build_dtmc(p)
        exact = solve_query(model, AnalysisQuery(lam=1.0, reward_kind="time", aggregate="avg"))
        mc = monte_carlo(p, lam=1.0, reward_kind="time", samples=100_000, seed=7)
        assert mc.censored == 0
        assert abs(mc.mean - exact.value) <= 3.0 * mc.std_error

    def test_power_estimate_matches_exact(self):
        p = params(n=4, t=3, r=1, epsilon=0.5, mu=0.2)
        model = build_dtmc(p)
        exact = solve_query(model, AnalysisQuery(lam=1.0, reward_kind="power", aggregate="avg"))
        mc = monte_carlo(p, lam=1.0, reward_kind="power", samples=100_000, seed=11)
        assert abs(mc.mean - exact.value) <= 3.0 * mc.std_error

    @pytest.mark.parametrize(
        "p",
        [
            params(n=5, t=3, r=1, epsilon=0.5, mu=0.2, u=1),
            # |Gamma| >= 2**63: the sampler finds rows by Python-int ranks
            params(n=30, t=40, r=1, epsilon=0.1, mu=0.2, u=1),
        ],
        ids=["n5t3", "huge-gamma"],
    )
    def test_restabilisation_mode(self, p):
        model = build_dtmc(p)
        exact = solve_query(model, AnalysisQuery(lam=1.0, reward_kind="time", aggregate="avg"))
        mc = monte_carlo(p, samples=50_000, seed=3)
        assert abs(mc.mean - exact.value) <= 3.0 * mc.std_error

    @pytest.mark.parametrize("u", [1, 3])
    @pytest.mark.parametrize("n", [1100, 2000, 5000])
    def test_restabilisation_beyond_max_group(self, n, u):
        # every state holds a group of n - u or more, above FiringTable.MAX_GROUP
        p = params(n=n, t=10, r=4, epsilon=0.1, mu=0.2, u=u)
        model = build_dtmc(p)
        assert np.abs(model.transitions.sum(axis=1).A1 - 1.0).max() <= row_sum_bound(n)
        exact = solve_query(model, AnalysisQuery(lam=1.0, reward_kind="time", aggregate="avg"))
        mc = monte_carlo(p, samples=2000, seed=7)
        assert mc.censored == 0
        assert abs(mc.mean - exact.value) <= 5.0 * mc.std_error

    def test_censoring_counts_trapped_runs(self):
        p = params(n=2, t=2, r=1, mu=0.2)
        result = monte_carlo(p, samples=200, seed=5, step_cap=50)
        assert result.censored > 0

    @pytest.mark.parametrize("kind", ["time", "power"])
    def test_deterministic_firing_repeats_an_exact_start_value(self, kind):
        # with mu = 0 every run from one start takes the same path, so the
        # costliest run costs exactly the expected reward of its start state
        p = params(n=4, t=3, r=1, epsilon=0.5, mu=0.0)
        model = build_dtmc(p)
        values, _ = solve_target(model, target_set(model, 1.0), (kind,))[1][kind]
        per_start = values[model.initial > 0]
        mc = monte_carlo(p, lam=1.0, reward_kind=kind, samples=2000, seed=0)
        assert mc.censored == 0
        assert mc.max_observed <= per_start.max()
        assert any(math.isclose(mc.max_observed, v, rel_tol=1e-12) for v in per_start)

    @pytest.mark.parametrize("kind", ["time", "power"])
    def test_certain_failure_repeats_a_capped_path_sum(self, kind):
        # with mu = 1 every run from one start takes the same path, so each
        # run costs exactly the path sum of its start state over at most
        # step_cap steps of the built chain; 2000 draws take every start
        p = params(n=3, t=4, r=1, epsilon=0.5, mu=1.0)
        model = build_dtmc(p)
        targets, a, rewards = target_set(model, 1.0), model.transitions, transition_rewards(model, kind)
        assert np.all(np.diff(a.indptr) == 1) and np.all(a.data == 1.0)
        per_start = []
        for s in np.flatnonzero(model.initial).tolist():
            total = 0.0
            for _ in range(50):
                if targets[s]:
                    break
                total += rewards[a.indptr[s]]
                s = a.indices[a.indptr[s]]
            per_start.append(total)
        mc = monte_carlo(p, lam=1.0, reward_kind=kind, samples=2000, seed=0, step_cap=50)
        assert mc.censored > 0
        assert math.isclose(mc.max_observed, max(per_start), rel_tol=1e-12)

    def test_certain_failure_never_synchronises(self):
        # with mu = 1 no pulse arrives, the phase pattern only rotates, and
        # just the runs that start synchronised (weight 4/64) reach the target
        p = params(n=3, t=4, r=1, epsilon=0.5, mu=1.0)
        samples = 2000
        mc = monte_carlo(p, samples=samples, seed=0, step_cap=50)
        weight = 4 / 64
        sigma = math.sqrt(weight * (1.0 - weight) / samples)
        assert abs(1.0 - mc.censored / samples - weight) <= 5.0 * sigma

    @pytest.mark.parametrize("cap", [0, 1, 16, 17, 33, 10_000])
    @pytest.mark.parametrize(
        "p, kind",
        [
            (params(n=3, t=4, r=1, epsilon=0.1, mu=0.2), "time"),
            (params(n=3, t=4, r=1, epsilon=0.1, mu=0.2), "power"),
            # the trapped runs outlive slow random ones
            (params(n=3, t=4, r=1, epsilon=0.1, mu=0.9), "time"),
            (params(n=5, t=8, r=3, epsilon=0.05, mu=0.2), "time"),
            # every count but 0, or every count but k, has zero mass
            (params(n=4, t=4, r=1, epsilon=0.1, mu=0.0), "power"),
            (params(n=3, t=4, r=1, epsilon=0.5, mu=1.0), "time"),
        ],
        ids=["mu0.2-time", "mu0.2-power", "mu0.9", "n5t8", "mu0", "mu1"],
    )
    def test_closed_form_finish_equals_stepping(self, monkeypatch, p, kind, cap):
        fast = monte_carlo(p, reward_kind=kind, samples=200, seed=3, step_cap=cap)
        monkeypatch.setattr(analysis, "_closed_set", lambda *args: None)
        stepped = monte_carlo(p, reward_kind=kind, samples=200, seed=3, step_cap=cap)
        assert fast == stepped and not stepped.trapped
        if cap == 10_000:  # the fast path was taken
            assert fast.trapped and fast.censored > 0

    def test_trapped_runs_finish_in_closed_form(self, monkeypatch):
        # most runs rotate forever on a cycle where every failure count gives
        # one successor and reward; the check runs O(log step_cap) times
        p = params(n=3, t=4, r=1, epsilon=0.1, mu=0.2)
        found, closed_set = [], analysis._closed_set

        def spy(*args):
            found.append(closed_set(*args))
            return found[-1]

        monkeypatch.setattr(analysis, "_closed_set", spy)
        mc = monte_carlo(p, samples=50, seed=7)
        assert mc.trapped and mc.censored > 0
        assert 1 <= len(found) <= 14 and found[-1] is not None

    @pytest.mark.parametrize(
        "succ, reward, closed",
        [
            ([1, 2, 0], [1.0, 2.0, 3.0], True),  # a cycle
            ([1, 2, 1, 3], [1.0, 2.0, 3.0, 4.0], True),  # a path into a cycle
            ([1, 2, 3, 3], [1.0, 2.0, 3.0, 4.0], False),  # a path into the target 3
            ([[1, 2], 0, 0], [1.0, 2.0, 3.0], False),  # state 0 has two successors
            ([[1, 1], 0], [[1.0, 1.5], 2.0], False),  # and here two rewards
            ([[1, 1], 0], [[1.0, 1.0], 2.0], True),  # two slots, one outcome
        ],
    )
    def test_closed_set_of_a_small_chain(self, succ, reward, closed):
        # state s has a slot per entry of succ[s] and reward[s]; 3 is the target
        slots = [np.broadcast_arrays(s, n, r) for s, (n, r) in enumerate(zip(succ, reward))]

        def outcomes(layer):
            return tuple(np.concatenate([np.atleast_1d(slots[s][i]) for s in layer]) for i in range(3))

        flag = np.arange(len(succ)) == 3
        found = analysis._closed_set(np.array([0]), flag, outcomes)
        assert (found is not None) == closed
        if closed:  # the positions retrace the chain from state 0
            (here,), nxt, r = found
            state = 0
            for _ in range(6):
                assert r[here] == np.ravel(reward[state])[0]
                here, state = nxt[here], np.ravel(succ[state])[0]

    @pytest.mark.parametrize(
        "p, trapped",
        [
            (params(n=4, t=3, r=1, epsilon=0.5, mu=0.0), False),  # a path into the target
            (params(n=3, t=4, r=1, epsilon=0.5, mu=1.0), True),  # a rigid rotation
        ],
        ids=["mu0-into-target", "mu1-rotation"],
    )
    @pytest.mark.parametrize("kind", ["time", "power"])
    def test_closed_set_on_the_built_chain(self, p, trapped, kind):
        # the built chain is deterministic at mu = 0 and mu = 1; from its
        # non-target starts the check follows its rows
        model = build_dtmc(p)
        a, flag, rewards = model.transitions, target_set(model, 1.0), transition_rewards(model, kind)
        assert np.all(np.diff(a.indptr) == 1)

        def outcomes(states):
            return states, a.indices[states], rewards[states]

        starts = np.flatnonzero((model.initial > 0) & ~flag)
        closed = analysis._closed_set(starts, flag, outcomes)
        mc = monte_carlo(p, reward_kind=kind, samples=2000, seed=0, step_cap=50)
        assert mc.trapped == trapped == (closed is not None)
        if not trapped:
            assert mc.censored == 0
            return
        here, nxt, r = closed
        for start, h in zip(starts.tolist(), here.tolist()):
            s, chain_sum, closed_sum = start, 0.0, 0.0
            for _ in range(50):
                chain_sum, s = chain_sum + rewards[s], a.indices[s]
                closed_sum, h = closed_sum + r[h], nxt[h]
            assert chain_sum == closed_sum

    @pytest.mark.parametrize(
        "p, kind, samples, want",
        [
            (ModelParams(n=8, t=10, r=1, epsilon=0.1, mu=0.2), "time", 5000,
             (4.44158, 0.06355737037185952, 100.39999999999937, 0, False)),
            (ModelParams(n=8, t=10, r=1, epsilon=0.1, mu=0.2), "power", 5000,
             (0.0005231279870666667, 7.425683598267534e-06, 0.01173927316666667, 0, False)),
            # firing rows with two or more absorbed groups
            (ModelParams(n=6, t=8, r=1, epsilon=3.0, mu=0.2), "time", 5000,
             (0.5879, 0.008151411356410636, 8.375, 0, False)),
            (ModelParams(n=6, t=8, r=1, epsilon=3.0, mu=0.2), "power", 5000,
             (5.228265280000001e-05, 6.977157703217275e-07, 0.000725285, 0, False)),
            (ModelParams(n=3, t=4, r=1, epsilon=0.1, mu=0.2), "power", 50,
             (0.06228694575000054, 0.006790758256904738, 0.12331166250001938, 32, True)),
            # 3,712 trapped runs, at 12 distinct (position, reward so far) pairs
            (ModelParams(n=3, t=4, r=1, epsilon=0.1, mu=0.2), "time", 5000,
             (2017.23125, 17.37938965856305, 3333.5, 3712, True)),
            (ModelParams(n=3, t=4, r=1, epsilon=0.1, mu=0.2), "power", 5000,
             (0.07462533466690234, 0.0006429100128322514, 0.12331576050001937, 3712, True)),
            (ModelParams(n=200, t=10, r=4, epsilon=0.1, mu=0.2, u=3), "time", 2000,
             (2.53575, 0.03558379648148884, 9.999999999999995, 0, False)),
            # firing groups of 1,599 and 1,600: log-space masses
            (ModelParams(n=1600, t=10, r=4, epsilon=0.1, mu=0.2, u=1), "time", 200,
             (1.605, 0.11508517710786975, 7.499999999999997, 0, False)),
        ],
        ids=["n8", "n8-power", "n6eps3-time", "n6eps3-power", "trapped-power", "trapped5000-time",
             "trapped5000-power", "restab200", "restab1600"],
    )
    def test_pinned_per_seed_values(self, p, kind, samples, want):
        # the draws and steps of one seed, pinned to the last bit
        mc = monte_carlo(p, MICAZ, reward_kind=kind, samples=samples, seed=7)
        assert (mc.mean, mc.std_error, mc.max_observed, mc.censored, mc.trapped) == want

    def test_pinned_owner_table_above_16_bits(self):
        # 92,378 states, so each slot's owning state is held as uint32
        mc = monte_carlo(ModelParams(n=10, t=10, r=2, epsilon=0.1, mu=0.2), samples=500, seed=7)
        assert repr(mc) == (
            "MonteCarloResult(mean=3.4913999999999996, std_error=0.06447857825749737, "
            "max_observed=12.6, samples=500, censored=0, seed=7, trapped=False)"
        )

    @pytest.mark.parametrize("kind", ["time", "power"])
    @pytest.mark.parametrize(
        "p, lam",
        [
            (ModelParams(n=3, t=4, r=1, epsilon=0.1, mu=0.2), 1.0),
            (ModelParams(n=3, t=4, r=2, epsilon=0.5, mu=0.2), 1.0),
            (ModelParams(n=4, t=5, r=2, epsilon=0.1, mu=0.0), 1.0),
            (ModelParams(n=4, t=5, r=2, epsilon=0.1, mu=1.0), 1.0),
            (ModelParams(n=8, t=10, r=6, epsilon=0.3, mu=0.2), 0.6),
        ],
        ids=["trapped", "r2", "mu0", "mu1", "n8r6"],
    )
    def test_filled_rewards_equal_the_build(self, monkeypatch, p, lam, kind):
        # runs that are caught call _closed_set with the sampler's outcomes,
        # which fill every slot the draw can take of the states asked for
        model, filled, closed_set = build_dtmc(p), [], analysis._closed_set

        def spy(states, flag, outcomes):
            filled.append(outcomes(np.arange(model.n_states)))
            return closed_set(states, flag, outcomes)

        monkeypatch.setattr(analysis, "_closed_set", spy)
        monte_carlo(p, MICAZ, lam=lam, reward_kind=kind, samples=200, seed=1)
        owner, succ, reward = filled[0]
        a, rewards = model.transitions, transition_rewards(model, kind)
        assert np.array_equal(np.unique(owner), np.arange(model.n_states))  # every state has a slot
        for i, j, r in zip(owner.tolist(), succ.tolist(), reward.tolist()):
            (k,) = np.flatnonzero(a.indices[a.indptr[i]:a.indptr[i + 1]] == j) + a.indptr[i]
            assert rewards[k] == r, (model.states[i], model.states[j], kind)

    def test_zero_step_cap_accumulates_nothing(self):
        p = params(n=3, t=4, r=1, epsilon=0.1, mu=0.2)
        mc = monte_carlo(p, samples=200, seed=0, step_cap=0)
        assert mc.mean == mc.max_observed == 0.0

    def test_rejects_unknown_reward_kind(self):
        with pytest.raises(ValueError):
            monte_carlo(params(), reward_kind="energy", samples=10)

    def test_rejects_negative_seed(self):
        p = params(n=3, t=4, r=1, epsilon=0.1, mu=0.2)
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            monte_carlo(p, samples=20, seed=-1)

    def test_rejects_negative_step_cap(self):
        p = params(n=3, t=4, r=1, epsilon=0.1, mu=0.2)
        with pytest.raises(ValueError, match="step_cap must be at least 0, got -3"):
            monte_carlo(p, samples=20, seed=1, step_cap=-3)

    @pytest.mark.parametrize("name, value", [("samples", 2.5), ("seed", 1.5), ("step_cap", 2.0)])
    def test_rejects_non_integral_counts(self, name, value):
        p, counts = params(n=3, t=4, r=1, epsilon=0.1, mu=0.2), dict(samples=20, seed=1, step_cap=100)
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value}"):
            monte_carlo(p, **{**counts, name: value})
        # a NumPy integer passes, and gives the result of the same int
        assert monte_carlo(p, **{**counts, name: np.int64(counts[name])}) == monte_carlo(p, **counts)


class TestFailureDraw:
    SIZES = [0, 1, 3, 8, 200, 1029]

    @staticmethod
    def cdf(table, k):
        """P(F <= f) for f = 0..k-1, as the running sum of the build's masses."""
        return np.array(list(accumulate(table.masses(k)))[:-1])

    @pytest.mark.parametrize("mu", [0.0, 0.2, 1.0])
    def test_uniforms_around_each_threshold(self, mu):
        # one table for all sizes, as the sampler shares it; its stated error
        # is 2G * 2**-52 for G sizes, so uniforms that far off a threshold
        # fall on the side they are on
        table = FiringTable(params(n=1029, t=4, r=1, mu=mu))
        draw = FailureDraw(table, np.array(self.SIZES))
        delta = 2 * len(self.SIZES) * 2.0**-52
        for row, k in enumerate(self.SIZES):
            cdf = self.cdf(table, k)
            below, above = np.r_[0.0, cdf], np.r_[cdf, 1.0]  # P(F < f), P(F <= f)
            nxt = np.minimum(above[1:], 1.0)
            f = np.flatnonzero((above[:-1] - delta > below[:-1]) & (above[:-1] + delta < nxt))
            rows = np.full(len(f), row)
            assert np.array_equal(draw.failures(rows, above[f] - delta), f)
            assert np.array_equal(draw.failures(rows, above[f] + delta), f + 1)
            if mu == 0.2 and k >= 3:
                assert len(f) >= 3  # the check is not vacuous

    @pytest.mark.parametrize("mu", [0.0, 0.2, 1.0])
    def test_drawable_counts(self, mu):
        # a count can be drawn iff the uniform at its lower end, P(F < f)
        # (the largest uniform once that reaches one), draws it
        table = FiringTable(params(n=1029, t=4, r=1, mu=mu))
        draw = FailureDraw(table, np.array(self.SIZES))
        for row, k in enumerate(self.SIZES):
            f, rows = np.arange(k + 1), np.full(k + 1, row)
            low = np.minimum(np.r_[0.0, self.cdf(table, k)], np.nextafter(1.0, 0.0))
            drawable = draw.drawable(rows, f)
            assert np.array_equal(drawable, draw.failures(rows, low) == f)
            if mu in (0.0, 1.0):  # one count has all the mass
                assert np.array_equal(drawable, f == (k if mu else 0))

    @pytest.mark.parametrize("mu", [0.0, 0.2, 1.0])
    def test_single_size_is_exact(self, mu):
        # alone in its table a size keeps keys and thresholds exact: the
        # largest uniform below a threshold gives f, the threshold f + 1
        table = FiringTable(params(n=1029, t=4, r=1, mu=mu))
        for k in self.SIZES:
            cdf = self.cdf(table, k)
            f = np.flatnonzero((np.diff(np.r_[0.0, cdf]) > 0) & (cdf < 1.0))
            f = f[np.r_[cdf, 1.0][f + 1] > cdf[f]]
            rows = np.zeros(len(f), np.int64)
            draw = FailureDraw(table, np.array([k]))
            assert np.array_equal(draw.failures(rows, np.nextafter(cdf[f], 0.0)), f)
            assert np.array_equal(draw.failures(rows, cdf[f]), f + 1)

    @pytest.mark.parametrize("mu", [0.0, 1.0])
    def test_certain_outcomes(self, mu):
        sizes = np.array([*self.SIZES, 1600])
        draw = FailureDraw(FiringTable(params(n=1600, t=4, r=1, mu=mu)), sizes)
        u = np.r_[0.0, np.random.default_rng(0).random(50), np.nextafter(1.0, 0.0)]
        for row, k in enumerate(sizes):
            assert np.all(draw.failures(np.full(len(u), row), u) == (k if mu else 0))

    def test_group_beyond_the_build_limit_matches_the_exact_law(self):
        k, mu = 1600, 0.25  # a short mu keeps the exact fractions fast
        assert k > FiringTable.MAX_GROUP
        table = FiringTable(params(n=k, t=4, r=1, mu=mu))
        draw = FailureDraw(table, np.array([k]))
        cdf = list(accumulate(exact_masses(k, mu)))  # P(F <= f)
        for f in [330, 380, 400, 420, 480]:
            exact = float(cdf[f])
            rows = np.zeros(2, np.int64)
            assert list(draw.failures(rows, np.array([exact - 1e-12, exact + 1e-12]))) == [f, f + 1]
