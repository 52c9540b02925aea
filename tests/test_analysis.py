import dataclasses
import math
from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from oracles import csr_rows, natural_factor, rational_solve
from pcosync import analysis
from pcosync.analysis import (
    AnalysisQuery,
    FailureDraw,
    aggregate,
    expected_reward,
    monte_carlo,
    reach_probability,
    solve_queries,
    solve_query,
    target_set,
)
from pcosync.core import ModelParams, is_synchronised
from pcosync.dtmc import MICAZ, DtmcModel, build_dtmc
from pcosync.dynamics import FiringTable


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
        reach = reach_probability(hand_model, targets)
        for i in np.flatnonzero(targets):
            assert reach[i] == 1.0

    def test_all_states_synchronise(self, hand_model):
        reach = reach_probability(hand_model, target_set(hand_model, 1.0))
        assert np.allclose(reach, 1.0)

    def test_trapped_state_scores_zero(self):
        # with 2 phases and a refractory first phase, a split pair loops forever
        model = build_dtmc(params(n=2, t=2, r=1, mu=0.2))
        reach = reach_probability(model, target_set(model, 1.0))
        assert reach[model.states.index((1, 1))] == 0.0


class TestExpectedReward:
    def test_targets_are_zero(self, hand_model):
        targets = target_set(hand_model, 1.0)
        values = expected_reward(hand_model, targets, "time")
        for i in np.flatnonzero(targets):
            assert values[i] == 0.0

    def test_single_step_identity(self):
        # (1,1) with no refractory fires both oscillators in one step
        model = build_dtmc(params(n=2, t=2, r=0))
        values = expected_reward(model, target_set(model, 1.0), "time")
        assert values[model.states.index((1, 1))] == pytest.approx(0.5)

    def test_hand_solved_chain(self, hand_model):
        # (1,0,1) -> (1,1,0) -> (0,1,1) -> synchronised, one third of a
        # cycle per step
        values = expected_reward(hand_model, target_set(hand_model, 1.0), "time")
        assert values[hand_model.states.index((0, 1, 1))] == pytest.approx(1 / 3)
        assert values[hand_model.states.index((1, 1, 0))] == pytest.approx(2 / 3)
        assert values[hand_model.states.index((1, 0, 1))] == pytest.approx(1.0)

    def test_infinite_where_not_certain(self):
        model = build_dtmc(params(n=2, t=2, r=1, mu=0.2))
        values = expected_reward(model, target_set(model, 1.0), "time")
        assert math.isinf(values[model.states.index((1, 1))])

    def test_power_reward_hand_value(self, hand_model):
        # (0,1,1): one firing step; the phase-2 node listens, the firing
        # node listens too, then both transmit after resetting
        values = expected_reward(hand_model, target_set(hand_model, 1.0), "power")
        expected = 2 * MICAZ.w_receive(3) + 2 * MICAZ.w_transmit()
        assert values[hand_model.states.index((0, 1, 1))] == pytest.approx(expected)

    def test_rejects_unknown_kind(self, hand_model):
        with pytest.raises(ValueError):
            expected_reward(hand_model, np.zeros(hand_model.n_states, dtype=bool), "fuel")


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
        reach_probability(hand_model, targets)
    with pytest.raises(ValueError, match=message):
        expected_reward(hand_model, targets, "time")


class TestGraphFiniteness:
    """Whether a reward is finite follows the graph, not the reach value."""

    def test_rare_step_into_a_trap_is_infinite(self):
        # (1,0,1,1) enters (1,1,0,1) with probability 1e-12, and from there
        # the trap (2,0,1,0) almost surely: its reach value is 1 - 1e-12
        model = build_dtmc(ModelParams(n=3, t=4, r=2, epsilon=0.5, mu=1e-12))
        targets = target_set(model, 1.0)
        values = expected_reward(model, targets, "time")
        reach = reach_probability(model, targets)
        assert reach[model.states.index((2, 0, 1, 0))] == 0.0
        assert reach[model.states.index((1, 1, 0, 1))] < 1e-11
        assert reach[model.states.index((1, 0, 1, 1))] > 1.0 - 1e-11
        assert math.isinf(values[model.states.index((1, 0, 1, 1))])

    def test_certain_target_behind_rare_steps_is_finite(self):
        # (1,0,1) stays put with probability 1 - 1e-12, so its float reach
        # value comes out near 0.99987, yet it synchronises for certain
        mu = 1e-12
        model = build_dtmc(ModelParams(n=2, t=3, r=0, epsilon=0.5, mu=mu))
        values = expected_reward(model, target_set(model, 1.0), "time")
        want = (1 + 2 * mu) / (3 * mu * (1 - mu))
        assert values[model.states.index((1, 0, 1))] == pytest.approx(want, rel=1e-3)

    def test_paths_through_the_target_do_not_count(self):
        # 0 -> 1 -> 2, where 1 is the target and 2 a trap: 0 enters the
        # target for certain, though a path from it ends in the trap
        p = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]))
        chain = SimpleNamespace(transitions=p, rewards={}, n_states=3)
        system = analysis._System(chain, np.array([False, True, False]))
        assert system.certain.tolist() == [True, True, False]
        assert system.idx.tolist() == [0]

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

    def test_per_node_conversion(self, hand_model):
        targets = target_set(hand_model, 1.0)
        reach = reach_probability(hand_model, targets)
        values = expected_reward(hand_model, targets, "power")
        result = aggregate(hand_model, values, reach, "avg", "power")
        assert result.per_node_mWh == pytest.approx(result.value / 2 * 1000.0)


def loop_reference(model, targets, reward_kind, exact=False):
    """Per-state reachability and expected reward straight from the
    transition rows: backward searches over predecessor lists for the
    states that reach the target and those that reach it with probability
    one, then one dense solve per system, or, if ``exact``, one
    ``rational_solve`` of its float entries, the right-hand side summed
    exactly."""
    n = model.n_states
    targets = set(np.flatnonzero(targets).tolist())
    rows = csr_rows(model)
    predecessors = [[] for _ in range(n)]
    for src, row in enumerate(rows):
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
    certain = everything - backward(everything - reaching, everything - targets)

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
    system however many level blocks its factor has."""
    calls = []
    real = analysis._factor

    def counting(a):
        calls.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(analysis, "_factor", counting)
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
                want_values = expected_reward(fresh, target_set(fresh, 1.0), kind)
                got_values = expected_reward(cached, target_set(cached, 1.0), kind)
                np.testing.assert_allclose(got_values, want_values, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name", sorted(FACTOR_MODELS))
    @pytest.mark.parametrize("lam", [1.0, 0.6])
    def test_matches_loop_reference(self, name, lam):
        p = FACTOR_MODELS[name]
        model = build_dtmc(p)
        targets = target_set(model, lam)
        for kind in ("time", "power"):
            want_reach, want_values = loop_reference(model, targets, kind)
            reach = reach_probability(model, targets)
            values = expected_reward(model, targets, kind)
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
        # the system keeps its own copy of the mask it was built for
        p = FACTOR_MODELS["full"]
        model, fresh = build_dtmc(p), build_dtmc(p)
        targets = target_set(model, 1.0)
        expected_reward(model, targets, "time")
        targets[:] = target_set(model, 0.6)
        got = expected_reward(model, targets, "time")
        assert len(splu_calls) == 2
        assert np.array_equal(got, expected_reward(fresh, target_set(fresh, 0.6), "time"))

    def test_residual_is_reported(self):
        model = build_dtmc(FACTOR_MODELS["full"])
        result = solve_query(model, AnalysisQuery(lam=1.0, reward_kind="power"))
        # reach values are of order one, power values of order 1e-4 Wh
        assert 0.0 < result.residual < 1e-14

    def test_four_queries_solve_each_right_hand_side_once(self, monkeypatch):
        sweeps = []
        real = analysis._System._solve

        def counting(system, b):
            sweeps.append(len(system.idx))
            return real(system, b)

        monkeypatch.setattr(analysis._System, "_solve", counting)
        # in "full" every unknown is in Prob1, so its reach is not solved
        for name, want in (("full", [784] * 2), ("partial", [12] * 3)):
            p = FACTOR_MODELS[name]
            model = build_dtmc(p)
            sweeps.clear()
            list(solve_queries(model, FOUR_QUERIES))
            assert sweeps == want, name


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
        for kind in ("time", "power"):
            want_reach, want_values = loop_reference(model, targets, kind, exact=True)
            reach = reach_probability(model, targets)
            values = expected_reward(model, targets, kind)
            np.testing.assert_allclose(reach, want_reach, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(values, want_values, rtol=1e-12, atol=0.0)


# FACTOR_MODELS, the edge values of mu, R, T, N and epsilon, and a model
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
}

LEVEL_MODELS = {**FACTOR_MODELS, "n8r2": ModelParams(n=8, t=10, r=2, epsilon=0.1, mu=0.2)}


def factored_systems(p):
    """The matrix a and the system of the model's reach and reward solves at
    lambda = 1, if it is not empty."""
    model = build_dtmc(p)
    system = analysis._System(model, target_set(model, 1.0))
    return [(model.transitions[system.idx][:, system.idx], system)] if len(system.idx) else []


class TestBlockSolve:
    @pytest.mark.parametrize("name", sorted(LEVEL_MODELS))
    def test_levels_order_the_condensation(self, name):
        p = LEVEL_MODELS[name]
        for a, _ in factored_systems(p):
            level = np.full(a.shape[0], -1)
            for depth, (idx, rows, _) in enumerate(analysis._factor(a)):
                assert np.all(np.diff(idx) > 0)
                assert np.all(level[idx] == -1)  # no unknown in two blocks
                level[idx] = depth
                assert (rows != a[idx]).nnz == 0
            assert np.all(level >= 0)
            _, scc = connected_components(a, directed=True, connection="strong")
            i, j = a.nonzero()
            cross = scc[i] != scc[j]
            # an unknown's block comes after those of the other SCCs it
            # depends on, and the members of one SCC share a block
            assert np.all(level[i[cross]] > level[j[cross]])
            assert np.all(level[i[~cross]] == level[j[~cross]])

    @pytest.mark.parametrize("name", sorted(LEVEL_MODELS))
    def test_blocks_are_diagonal_blocks_of_the_system(self, name, monkeypatch):
        p = LEVEL_MODELS[name]
        blocks = []
        real = analysis.spla.splu

        def recording(block, **kwargs):
            blocks.append(block)
            return real(block, **kwargs)

        monkeypatch.setattr(analysis.spla, "splu", recording)
        for a, system in factored_systems(p):
            system_matrix = sp.identity(len(system.idx), format="csr") - a
            assert len(blocks) == len(system.levels)
            for (idx, _, _), block in zip(system.levels, blocks):
                want = system_matrix[idx][:, idx]
                assert block.format == "csc" and block.shape == want.shape
                assert (block != want).nnz == 0

    @pytest.mark.parametrize("name", sorted(LEVEL_MODELS))
    def test_residual_is_the_whole_systems(self, name):
        # taken level by level, the residual is bit for bit the one of the
        # whole system, each row of a x summed in stored order
        p = LEVEL_MODELS[name]
        model = build_dtmc(p)
        for kind in ("time", "power"):
            result = solve_query(model, AnalysisQuery(lam=1.0, reward_kind=kind))
            system, want = analysis._System(model, target_set(model, 1.0)), 0.0
            analysis._reach(system), analysis._reward(system, kind)  # the solves the query makes
            a = model.transitions[system.idx][:, system.idx]
            for solved in ("reach", kind):
                if solved in system.solutions and len(system.idx):
                    x, b = system.solutions[solved][0], system.rhs(solved)[system.idx]
                    want = max(want, float(np.max(np.abs(x - a @ x - b))))
            assert result.residual == want
            assert want > 0.0 or not len(system.idx)

    @pytest.mark.parametrize("name", sorted(SOLVE_MODELS))
    @pytest.mark.parametrize("lam", [1.0, 0.6])
    def test_matches_natural_order_factor(self, name, lam, monkeypatch):
        p = SOLVE_MODELS[name]

        def solve(model):
            targets = target_set(model, lam)
            reach = reach_probability(model, targets)
            return [reach] + [
                expected_reward(model, targets, kind) for kind in ("time", "power")
            ]

        got = solve(build_dtmc(p))
        monkeypatch.setattr(analysis, "_factor", natural_factor)
        want = solve(build_dtmc(p))
        for g, w in zip(got, want):
            np.testing.assert_array_equal(np.isinf(g), np.isinf(w))
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0)


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
        values = expected_reward(model, target_set(model, 1.0), kind)
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
        targets, a = target_set(model, 1.0), model.transitions
        assert np.all(np.diff(a.indptr) == 1) and np.all(a.data == 1.0)
        per_start = []
        for s in np.flatnonzero(model.initial).tolist():
            total = 0.0
            for _ in range(50):
                if targets[s]:
                    break
                total += model.rewards[kind][a.indptr[s]]
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
        a, flag = model.transitions, target_set(model, 1.0)
        assert np.all(np.diff(a.indptr) == 1)

        def outcomes(states):
            return states, a.indices[states], model.rewards[kind][states]

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
                chain_sum, s = chain_sum + model.rewards[kind][s], a.indices[s]
                closed_sum, h = closed_sum + r[h], nxt[h]
            assert chain_sum == closed_sum

    @pytest.mark.parametrize(
        "p, kind, samples, want",
        [
            (ModelParams(n=8, t=10, r=1, epsilon=0.1, mu=0.2), "time", 5000,
             (4.44158, 0.06355737037185952, 100.39999999999937, 0, False)),
            (ModelParams(n=3, t=4, r=1, epsilon=0.1, mu=0.2), "power", 50,
             (0.06228694575000054, 0.006790758256904738, 0.12331166250001938, 32, True)),
            (ModelParams(n=200, t=10, r=4, epsilon=0.1, mu=0.2, u=3), "time", 2000,
             (2.53575, 0.03558379648148884, 9.999999999999995, 0, False)),
            # firing groups of 1,599 and 1,600: log-space masses
            (ModelParams(n=1600, t=10, r=4, epsilon=0.1, mu=0.2, u=1), "time", 200,
             (1.605, 0.11508517710786975, 7.499999999999997, 0, False)),
        ],
        ids=["n8", "trapped-power", "restab200", "restab1600"],
    )
    def test_pinned_per_seed_values(self, p, kind, samples, want):
        # the draws and steps of one seed, pinned to the last bit
        mc = monte_carlo(p, MICAZ, reward_kind=kind, samples=samples, seed=7)
        assert (mc.mean, mc.std_error, mc.max_observed, mc.censored, mc.trapped) == want

    def test_zero_step_cap_accumulates_nothing(self):
        p = params(n=3, t=4, r=1, epsilon=0.1, mu=0.2)
        mc = monte_carlo(p, samples=200, seed=0, step_cap=0)
        assert mc.mean == mc.max_observed == 0.0

    def test_rejects_unknown_reward_kind(self):
        with pytest.raises(ValueError):
            monte_carlo(params(), reward_kind="energy", samples=10)

    def test_rejects_negative_step_cap(self):
        p = params(n=3, t=4, r=1, epsilon=0.1, mu=0.2)
        with pytest.raises(ValueError, match="step_cap must be at least 0, got -3"):
            monte_carlo(p, samples=20, seed=1, step_cap=-3)


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
        k, mu = 1600, 0.2
        assert k > FiringTable.MAX_GROUP
        table = FiringTable(params(n=k, t=4, r=1, mu=mu))
        draw = FailureDraw(table, np.array([k]))
        # P(F <= f) = sum_j C(k, j) a**j b**(k - j) / d**k for mu = a / d, b = d - a
        a, d = Fraction(mu).as_integer_ratio()
        terms = [math.comb(k, j) * a**j * (d - a) ** (k - j) for j in range(401)]
        for f in [250, 300, 320, 340, 400]:
            exact = float(Fraction(sum(terms[: f + 1]), d**k))
            rows = np.zeros(2, np.int64)
            assert list(draw.failures(rows, np.array([exact - 1e-12, exact + 1e-12]))) == [f, f + 1]
