import itertools
import math
import tracemalloc
from collections import deque
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (compositions, csr_rows, materialized_skip_power, reference_build, row_sum_bound,
                     sorted_initial_weights)
from pcosync import dtmc
from pcosync.core import ModelParams, is_firing
from pcosync.dtmc import (
    MICAZ,
    DtmcModel,
    HardwareProfile,
    StateSpace,
    StateSpaceLimitExceeded,
    build_dtmc,
    enumerate_states,
    initial_weights,
    largest_counts,
    multinomial,
    restabilisation_support,
    skip_power,
    state_array,
    state_count,
    state_power,
    transition_rewards,
)
from pcosync.dynamics import FiringTable, chain_updates, skip_successor, successor_distribution


def params(**kw):
    base = dict(n=3, t=4, r=1, epsilon=0.1, mu=0.2)
    base.update(kw)
    return ModelParams(**base)


class TestHardwareProfile:
    def test_micaz_energies(self):
        # 20 uA idle, 19.7 mA receive, 17.4 mA transmit at 3 V
        assert MICAZ.w_idle(10) == pytest.approx(20e-6 * 3.0 / 36000.0)
        assert MICAZ.w_receive(10) == pytest.approx(19.7e-3 * 3.0 / 36000.0)
        assert MICAZ.w_transmit() == pytest.approx(17.4e-3 * 3.0 * 1e-3 / 3600.0)

    def test_rejects_non_positive_fields(self):
        with pytest.raises(ValueError):
            HardwareProfile("bad", 0.0, 1.0, 1.0, 3.0, 1.0, 1e-3)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["idle_a", "voltage", "cycle_s", "message_s"])
    def test_rejects_non_finite_fields(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            replace(MICAZ, **{field: value})

    def test_energy_scales_with_cycle_length(self):
        slow = HardwareProfile("slow", 20e-6, 19.7e-3, 17.4e-3, 3.0, 10.0, 1e-3)
        assert slow.w_receive(10) == pytest.approx(10.0 * MICAZ.w_receive(10))
        assert slow.w_transmit() == MICAZ.w_transmit()


class TestStateEnumeration:
    def test_count_formula(self):
        for n in range(1, 9):
            for t in range(2, 8):
                p = params(n=n, t=t, r=0)
                assert state_count(p) == len(list(enumerate_states(p)))

    def test_lexicographic_order_and_totals(self):
        p = params(n=2, t=3)
        states = list(enumerate_states(p))
        assert states == sorted(states)
        assert all(sum(s) == 2 for s in states)
        assert states[0] == (0, 0, 2)
        assert states[-1] == (2, 0, 0)

    @pytest.mark.parametrize("n, t", [(1, 2), (1, 5), (2, 2), (3, 4), (4, 3), (5, 5), (6, 2)])
    def test_matches_brute_force_enumeration(self, n, t):
        p = params(n=n, t=t, r=0)
        want = [s for s in itertools.product(range(n + 1), repeat=t) if sum(s) == n]
        got = state_array(p)
        assert got.dtype == np.min_scalar_type(n)
        assert got.tolist() == [list(s) for s in want]


class TestMultinomial:
    def test_small_values(self):
        assert multinomial((2, 0, 0)) == 1
        assert multinomial((1, 1, 0)) == 2
        assert multinomial((2, 2, 1)) == math.factorial(5) // (2 * 2)

    @pytest.mark.parametrize("t", range(2, 11))
    def test_sum_is_t_power_n(self, t):
        for n in range(1, 9):
            p = params(n=n, t=t, r=0)
            assert sum(multinomial(s) for s in enumerate_states(p)) == t**n


class TestRestabilisationSupport:
    def test_matches_brute_force_filter(self):
        p = params(n=10, t=10, r=4)
        for u in (1, 2, 3):
            support = restabilisation_support(replace(p, u=u))
            brute = [
                s for s in enumerate_states(p) if any(k >= p.n - u for k in s)
            ]
            assert list(map(tuple, support.tolist())) == brute

    def test_u_bounds(self):
        p = params(n=5, t=4)
        with pytest.raises(ValueError):
            restabilisation_support(replace(p, u=0))
        with pytest.raises(ValueError):
            restabilisation_support(replace(p, u=5))  # u must stay below n


class TestInitialDistribution:
    def test_full_mode_weights(self):
        p = params(n=2, t=3)
        support, weights = initial_weights(p)
        dist = dict(zip(map(tuple, support.tolist()), weights.tolist()))
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        assert dist[(2, 0, 0)] == pytest.approx(1 / 9)
        assert dist[(1, 1, 0)] == pytest.approx(2 / 9)

    def test_restabilisation_mode_weights(self):
        p = params(n=5, t=3, u=1)
        support, weights = initial_weights(p)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert all(any(k >= 4 for k in s) for s in support.tolist())

    @pytest.mark.parametrize(
        "p",
        [params(n=n, t=t, r=1) for n in (1, 2, 8, 12) for t in (2, 3, 10)]
        + [
            params(n=6, t=5, r=2, u=1),
            params(n=6, t=5, r=2, u=5),
            params(n=10, t=10, r=4, u=1),
            params(n=10, t=10, r=4, u=9),
            params(n=8, t=40, r=4, u=2),
            params(n=100, t=40, r=4, u=1),
            params(n=3000, t=10, r=4, u=5),  # 3001**6 > 2**63: an object key
        ],
        ids=str,
    )
    def test_same_bits_as_sorted_keys(self, p):
        # any state of a key stands for it, so the weights keep every bit
        for got, want in zip(initial_weights(p), sorted_initial_weights(p)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("t", [1, 2, 3, 10, 40])
    def test_largest_counts_are_the_sorted_tail(self, t):
        rng = np.random.default_rng(t)
        for rows in (1, 300):
            states = rng.integers(0, 6, size=(rows, t)).astype(np.uint8)  # many ties
            before = states.copy()
            for digits in range(1, t + 1):
                top = largest_counts(states, digits)
                assert len(top) == digits and {column.dtype for column in top} == {states.dtype}
                assert np.array_equal(np.array(top), np.sort(states, axis=1)[:, -digits:].T)
            assert np.array_equal(states, before)  # the network works on a copy

    def test_u_out_of_range(self):
        for u in (0, 3, -1):  # N = 3
            with pytest.raises(ValueError, match=r"U must satisfy 1 <= U < N"):
                params(u=u)


class TestPowerRewards:
    def test_state_power_splits_idle_and_receive(self):
        p = params(n=5, t=4, r=2)
        sigma = (2, 1, 1, 1)
        expected = 3 * MICAZ.w_idle(4) + 2 * MICAZ.w_receive(4)
        assert state_power(sigma, p, MICAZ) == pytest.approx(expected)

    def test_zero_refractory_all_receive(self):
        p = params(n=4, t=4, r=0)
        assert state_power((1, 1, 1, 1), p, MICAZ) == pytest.approx(
            4 * MICAZ.w_receive(4)
        )

    def test_skip_power_matches_materialized_intermediates(self):
        for t in range(2, 7):
            for r in range(0, t):
                p = params(n=4, t=t, r=r)
                for sigma in enumerate_states(p):
                    if is_firing(sigma):
                        continue
                    got = skip_power(sigma, p, MICAZ, skip_successor(sigma)[1])
                    want = materialized_skip_power(sigma, p, MICAZ)
                    assert got == pytest.approx(want, rel=1e-15), (sigma, p)


class TestBuildDtmc:
    def test_row_stochastic(self):
        model = build_dtmc(params(n=4, t=5, r=1))
        for row in csr_rows(model):
            assert sum(prob for _, prob, _, _ in row) == pytest.approx(1.0, abs=1e-12)

    def test_all_states_reachable_from_initial_support(self):
        model = build_dtmc(params(n=3, t=4, r=1))
        rows = csr_rows(model)
        seen = set(np.flatnonzero(model.initial).tolist())
        queue = deque(seen)
        while queue:
            i = queue.popleft()
            for target, *_ in rows[i]:
                if target not in seen:
                    seen.add(target)
                    queue.append(target)
        assert seen == set(range(model.n_states))

    def test_full_mode_covers_all_states(self):
        p = params(n=3, t=4, r=1)
        model = build_dtmc(p)
        assert model.n_states == state_count(p)

    def test_time_rewards(self):
        p = params(n=2, t=4, r=1)
        model = build_dtmc(p)
        for sigma, row in zip(model.states, csr_rows(model)):
            for _, _, time_reward, _ in row:
                if is_firing(sigma):
                    assert time_reward == pytest.approx(1.0 / p.t)
                else:
                    delta = max(phi for phi in range(1, 5) if sigma[phi - 1] > 0)
                    assert time_reward == pytest.approx((p.t - delta) / p.t)

    def test_firing_power_includes_transmissions(self):
        # 2 oscillators, 2 phases, no failures: (0,2) resets to (2,0)
        p = params(n=2, t=2, r=1, mu=0.0)
        model = build_dtmc(p)
        i = model.states.index((0, 2))
        ((target, _, _, power_reward),) = csr_rows(model)[i]
        assert model.states[target] == (2, 0)
        expected = 2 * MICAZ.w_receive(2) + 2 * MICAZ.w_transmit()
        assert power_reward == pytest.approx(expected)

    def test_skip_transition_power(self):
        p = params(n=2, t=2, r=1, mu=0.0)
        model = build_dtmc(p)
        i = model.states.index((2, 0))
        ((_, _, _, power_reward),) = csr_rows(model)[i]
        # both nodes idle through the single refractory step
        assert power_reward == pytest.approx(2 * MICAZ.w_idle(2))

    def test_restabilisation_mode_is_smaller_and_closed(self):
        p = params(n=10, t=10, r=4, u=1)
        model = build_dtmc(p)
        assert model.n_states < state_count(p)
        for row in csr_rows(model):
            for target, *_ in row:
                assert 0 <= target < model.n_states

    @pytest.mark.parametrize(
        "p",
        [
            params(n=4, t=5, r=1),
            params(n=2, t=2, r=1, mu=0.0),
            params(n=6, t=8, r=2, mu=0.99),
            params(n=35, t=10, r=4, u=3),
        ],
        ids=["n4t5", "n2t2mu0", "n6t8mu99", "restab35"],
    )
    def test_chain_is_canonical_csr_with_aligned_rewards(self, p):
        model = build_dtmc(p)
        assert model.transitions.has_canonical_format
        assert model.transitions.shape == (model.n_states, model.n_states)
        assert set(model.rewards) == {"time", "power"}
        for kind, rewards in model.rewards.items():
            assert rewards.shape == (model.n_states,)
            assert transition_rewards(model, kind).shape == (model.transitions.nnz,) == (model.n_transitions,)

    def test_models_compare_by_value(self):
        assert build_dtmc(params()) == build_dtmc(params())
        assert build_dtmc(params()) != build_dtmc(params(mu=0.3))

    def test_u_is_a_model_parameter(self):
        assert "mode" not in {f.name for f in fields(DtmcModel)}
        assert ModelParams(n=8, t=10, r=2, epsilon=0.1, mu=0.2, u=3) != ModelParams(
            n=8, t=10, r=2, epsilon=0.1, mu=0.2
        )
        assert build_dtmc(params(u=1)).params.u == 1

    def test_equal_builds_hash_alike(self):
        a, b = build_dtmc(params(u=1)), build_dtmc(params(u=1))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, build_dtmc(params())}) == 2

    def test_state_space_cap(self):
        with pytest.raises(StateSpaceLimitExceeded):
            build_dtmc(params(n=6, t=6, r=1), max_states=10)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_is_rejected_before_any_work(self, monkeypatch, cap):
        monkeypatch.setattr(dtmc, "initial_weights", lambda p: pytest.fail("built the support"))
        with pytest.raises(ValueError, match=f"max_states must be at least 1, got {cap}"):
            build_dtmc(params(u=1), max_states=cap)

    def test_full_cap_is_checked_before_the_states_are_built(self, monkeypatch):
        monkeypatch.setattr(dtmc, "state_array", lambda p: pytest.fail("built the states"))
        with pytest.raises(StateSpaceLimitExceeded):
            build_dtmc(params(n=30, t=10, r=1), max_states=10)  # 211,915,132 states

    def test_full_mode_beyond_max_group(self):
        # Gamma holds a group of every size up to N; at T = 2, R = 1 no group
        # is absorbed, so each row folds the masses of its firing group alone
        n = 1100
        assert n > FiringTable.MAX_GROUP
        model = build_dtmc(params(n=n, t=2, r=1))
        assert model.n_states == n + 1
        assert np.abs(model.transitions.sum(axis=1).A1 - 1.0).max() <= row_sum_bound(n)

    def test_indexing_is_lexicographic(self):
        model = build_dtmc(params(n=3, t=3, r=1))
        assert list(model.states) == sorted(model.states)
        assert all(model.states.index(s) == i for i, s in enumerate(model.states))

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=5),
        st.sampled_from([0.0, 0.3, 1.0]),
    )
    @settings(max_examples=30, deadline=None)
    def test_stochasticity_property(self, n, t, mu):
        p = ModelParams(n=n, t=t, r=min(1, t - 1), epsilon=0.1, mu=mu)
        model = build_dtmc(p)
        for row in csr_rows(model):
            assert sum(prob for _, prob, _, _ in row) == pytest.approx(1.0, abs=1e-12)


@st.composite
def small_models(draw):
    t = draw(st.integers(min_value=2, max_value=8))
    return ModelParams(
        n=draw(st.integers(min_value=1, max_value=6)),
        t=t,
        r=draw(st.integers(min_value=0, max_value=t - 1)),
        epsilon=draw(st.floats(min_value=0.01, max_value=3.0)),
        mu=draw(st.sampled_from([0.0, 0.2, 0.5, 0.99, 1.0])),
    )


def assert_firing_rows_match_oracle(model):
    """Every firing row equals successor_distribution exactly: same targets
    in the same order, bit-identical probabilities."""
    p = model.params
    for sigma, row in zip(model.states, csr_rows(model)):
        if not is_firing(sigma):
            continue
        want = [(b.target, b.probability) for b in successor_distribution(sigma, p).branches]
        got = [(model.states[target], prob) for target, prob, _, _ in row]
        assert got == want, (sigma, p)


class TestFiringTable:
    @pytest.mark.parametrize("p", [params(n=8, t=10, r=2), params(n=5, t=6, r=0, epsilon=2.5)])
    def test_chain_entries_equal_chain_updates(self, p):
        table = FiringTable(p)
        assert table.dest.shape == (p.n + 1, p.t)
        for s in range(p.n + 1):
            fired, updated = chain_updates(s, p)
            assert table.dest[s].tolist() == [1 if f else u for f, u in zip(fired, updated)]
            assert (table.dest[s] == 1).tolist() == fired  # a group that does not fire lands on >= 2

    @given(small_models())
    @example(ModelParams(n=6, t=8, r=1, epsilon=3.0, mu=0.2))
    @settings(max_examples=100, deadline=None)
    def test_each_target_is_one_f_t_interval(self, p):
        # what ``branches`` rests on: the f_T values that reach one target
        # form an interval, and all of them fire the same occupied phases
        for sigma in enumerate_states(p):
            if not is_firing(sigma):
                continue
            for branch in successor_distribution(sigma, p).branches:
                f_t = sorted({fv[-1] for fv in branch.witnesses})
                assert f_t == list(range(f_t[0], f_t[-1] + 1)), (sigma, branch.target, p)
                fired = {tuple(f is not None and k > 0 for k, f in zip(sigma, fv)) for fv in branch.witnesses}
                assert len(fired) == 1, (sigma, branch.target, p)

    # the examples sum products over two or more absorbed groups in rows
    # whose last bits depend on the summation order
    @given(small_models())
    @example(ModelParams(n=5, t=4, r=0, epsilon=3.0, mu=0.2))
    @example(ModelParams(n=6, t=8, r=1, epsilon=3.0, mu=0.2))
    @settings(max_examples=100, deadline=None)
    def test_build_rows_equal_oracle(self, p):
        assert_firing_rows_match_oracle(build_dtmc(p))

    # at N = 200 a key folds up to 1,552 products, among 45 distinct
    # segment lengths
    @pytest.mark.parametrize("n", [35, 200])
    def test_restabilisation_rows_equal_oracle(self, n):
        assert_firing_rows_match_oracle(build_dtmc(params(n=n, t=10, r=4, u=3)))

    @pytest.mark.parametrize("eps", [1e200, 1e308])
    @pytest.mark.parametrize("kw", [dict(n=3, t=4, r=1), dict(n=5, t=4, r=0), dict(n=6, t=8, r=2)])
    def test_huge_epsilon_builds_the_epsilon_t_chain(self, kw, eps):
        # epsilon = T already absorbs every perturbed group outside the
        # refractory interval; phi * alpha * 1e308 would overflow the rounding
        def arrays(model):
            a = model.transitions
            return repr([(x.dtype, x.tolist()) for x in (
                a.indptr, a.indices, a.data, model.rewards["time"], model.rewards["power"],
                transition_rewards(model, "time"), transition_rewards(model, "power"),
                model.initial, model.states.array,
            )])

        want = arrays(build_dtmc(params(**kw, epsilon=float(kw["t"]))))
        assert arrays(build_dtmc(params(**kw, epsilon=eps))) == want


def assert_same_as_reference_build(p):
    """States, CSR arrays, rewards and initial weights equal the
    breadth-first reference build, compared by repr."""
    model = build_dtmc(p)
    states, transitions, rewards, initial = reference_build(p)
    assert list(model.states) == list(states)
    for attr in ("data", "indices", "indptr"):
        got, want = getattr(model.transitions, attr), getattr(transitions, attr)
        assert got.dtype == want.dtype and repr(got.tolist()) == repr(want.tolist()), attr
    for kind in ("time", "power"):
        assert repr(transition_rewards(model, kind).tolist()) == repr(rewards[kind].tolist()), kind
    assert repr(model.initial.tolist()) == repr([initial[i] for i in range(len(states))])


class TestArrayBuild:
    @given(small_models(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_build(self, p, data):
        assert_same_as_reference_build(p)
        if p.n > 1:
            u = data.draw(st.integers(min_value=1, max_value=p.n - 1), label="u")
            assert_same_as_reference_build(replace(p, u=u))

    @pytest.mark.parametrize(
        "p",
        [
            params(n=8, t=10, r=2),
            # masses of 8 or more oscillators: (1 - mu)**8 differs in the
            # last bit when the exponent is a NumPy integer
            params(n=10, t=4, r=1),
            params(n=35, t=10, r=4, u=3),
            # |Gamma| >= 2**63: ranks are Python ints
            params(n=30, t=40, r=1, u=1),
            # |Gamma| < 2**63, but C(N + T - 1, b) is not for some b < T
            params(n=25, t=45, r=2, epsilon=0.2, u=1),
            # five absorbed groups, (N + 1)**8 >= 2**63: keys are Python ints
            params(n=1000, t=6, r=1, u=5),
            # T**N on both sides of 2**53
            params(n=52, t=2, r=0),
            params(n=53, t=2, r=0),
            params(n=33, t=3, r=0),
            params(n=34, t=3, r=0),
            # k_T up to 200: 145 keys fold 40,347 products, the longest 1,552
            params(n=200, t=10, r=4, u=3),
            # up to 121 absorbed failure patterns per f_T, 448 products in a key
            params(n=24, t=4, r=0, epsilon=0.2),
            # every broadcast succeeds, or every one fails: most products are 0.0
            params(n=6, t=8, r=2, mu=0.0),
            params(n=6, t=8, r=2, mu=1.0),
            # a lone oscillator, so no group is ever absorbed
            params(n=1, t=10, r=2),
            # the largest |Gamma| below 2**63 at T=10, and the smallest above:
            # the last int64 rank table and the first of Python ints
            params(n=525, t=10, r=4, u=1),
            params(n=526, t=10, r=4, u=1),
        ],
        ids=[
            "n8t10", "n10t4", "restab35", "huge-gamma", "wide-binomials", "huge-keys",
            "n52t2", "n53t2", "n33t3", "n34t3", "restab200", "n24t4", "mu0", "mu1", "n1",
            "int64-edge", "object-edge",
        ],
    )
    def test_matches_reference_build_explicit(self, p):
        assert_same_as_reference_build(p)

    def test_rank_is_enumeration_position(self):
        for n in range(1, 10):
            for t in range(2, 11):
                p = params(n=n, t=t, r=0)
                want = np.array(list(compositions(n, t)))
                space = StateSpace(p, state_array(p))
                assert np.array_equal(space.array, want), (n, t)
                assert space.rank(want).tolist() == list(range(len(want))), (n, t)
                # all of Gamma: a row is its rank; without the first state, found by rank
                assert space.rows(want).tolist() == list(range(len(want))), (n, t)
                part = StateSpace(p, want[1:])
                assert part.rows(want[1:]).tolist() == list(range(len(want) - 1)), (n, t)

    @pytest.mark.parametrize("n", [525, 526])
    def test_rank_matches_python_int_oracle_at_the_int64_edge(self, n):
        p = params(n=n, t=10, r=4, u=1)
        support = restabilisation_support(p)
        want = []
        for sigma in support.tolist():
            rank, m = 0, n
            for i, k in enumerate(sigma[:-1]):
                r = p.t - 1 - i
                rank += math.comb(m + r, r) - math.comb(m - k + r, r)
                m -= k
            want.append(rank)
        assert want[-1] == state_count(p) - 1  # (N, 0, ..., 0), the top of Gamma
        space = StateSpace(p, support)
        assert space.rank(support).tolist() == want
        assert space.rows(support).tolist() == list(range(len(support)))

    def test_rank_table_calls_math_comb_only_for_the_state_count(self, monkeypatch):
        p = params(n=200, t=10, r=4, u=3)
        support = restabilisation_support(p)
        calls = []
        comb = math.comb
        monkeypatch.setattr(math, "comb", lambda *a: calls.append(a) or comb(*a))
        StateSpace(p, support)
        assert len(calls) <= 2

    def test_full_space_holds_no_rank_array(self):
        p = params(n=10, t=10, r=2)
        array = state_array(p)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            space = StateSpace(p, array)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        # the rank array of all 92,378 states would take 739 KB
        assert space.rows(array[-1]) == len(array) - 1 and held < 100_000

    def test_model_holds_the_chain_and_per_state_rewards(self):
        # a full N=10 build leaves held its CSR arrays, states, initial
        # weights and one reward per state and kind (1.5 MB); rewards per
        # transition would take 16 bytes for each of 176,466 (2.8 MB)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model = build_dtmc(params(n=10, t=10, r=2))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        a = model.transitions
        arrays = (a.indptr, a.indices, a.data, model.states.array, model.initial)
        assert held <= sum(x.nbytes for x in arrays) + 2 * 8 * model.n_states + 100_000

    def test_index_finds_only_model_states(self):
        p = params(n=10, t=10, r=4, u=1)
        model = build_dtmc(p)
        assert all(model.states.index(sigma) == i for i, sigma in enumerate(model.states))
        assert all(sigma in model.states for sigma in model.states)
        outside = min(set(enumerate_states(p)) - set(model.states))
        for sigma in (outside, (10,) * 10, (5, 5), (-1, 11, 0, 0, 0, 0, 0, 0, 0, 0)):
            assert sigma not in model.states
            with pytest.raises(ValueError):
                model.states.index(sigma)
        # Sequence semantics: whatever compares equal to a state finds its row
        i = len(model.states) // 2
        for sigma in (tuple(map(float, model.states[i])), np.array(model.states[i])):
            assert sigma in model.states
            assert model.states.index(sigma) == i
        small = build_dtmc(params(n=2, t=2, r=1), MICAZ)
        assert (1.0, 1.0) in small.states
        assert small.states.index((1.0, 1.0)) == small.states.index((1, 1))
        for sigma in ((1.5, 0.5), ("a", "b"), ("1", "1"), (None, 2), (math.nan, 2), (math.inf, 1), 2):
            assert sigma not in small.states
            with pytest.raises(ValueError):
                small.states.index(sigma)
