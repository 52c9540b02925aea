import itertools
import math
import sys
import tracemalloc
from fractions import Fraction
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    InconsistentFailureVector,
    brute_force_failure_vector_count,
    brute_force_successors,
    enumerate_failure_vectors,
    enumerate_states,
    exact_masses,
    failure_probability,
    firing_successor,
    is_synchronised,
    log_mass_bound,
    resolve_chain,
    stepped_walks,
    successor_distribution,
)
from pcosync import dynamics
from pcosync.core import ModelParams, is_firing
from pcosync.dtmc import StateSpace, initial_weights
from pcosync.dynamics import (
    FOLD_BLOCK,
    FiringTable,
    chain_updates,
    fold_segments,
    fold_walks,
    groups,
    skip_lengths,
    skip_successor,
)

REF_PARAMS = ModelParams(n=8, t=10, r=2, epsilon=0.1, mu=0.2)
SIGMA_0 = (2, 1, 0, 0, 5, 0, 0, 0, 0, 0)
SIGMA_1 = (0, 0, 0, 0, 0, 2, 1, 0, 0, 5)
SIGMA_2 = (6, 0, 0, 0, 0, 0, 0, 0, 0, 2)
SIGMA_3 = (2, 6, 0, 0, 0, 0, 0, 0, 0, 0)


def zero_failure_vector(sigma, p):
    (fv,) = [
        v
        for v in enumerate_failure_vectors(sigma, p)
        if all(f in (None, 0) for f in v)
    ]
    return fv


def small_states(n_max=4, t_max=5):
    for t in range(2, t_max + 1):
        for n in range(1, n_max + 1):
            p = ModelParams(n=n, t=t, r=1, epsilon=0.1, mu=0.3)
            for sigma in enumerate_states(p):
                yield sigma, p


@st.composite
def random_state(draw, n_max=8, t_max=10):
    t = draw(st.integers(min_value=2, max_value=t_max))
    counts = draw(
        st.lists(st.integers(min_value=0, max_value=n_max), min_size=t, max_size=t)
    )
    n = sum(counts)
    if n == 0:
        counts[0] = 1
        n = 1
    r = draw(st.integers(min_value=0, max_value=t - 1))
    eps = draw(st.floats(min_value=0.01, max_value=1.0))
    mu = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    return tuple(counts), ModelParams(n=n, t=t, r=r, epsilon=eps, mu=mu)


class TestSkipSuccessor:
    def test_shift_to_next_firing_state(self):
        assert skip_successor(SIGMA_0) == (SIGMA_1, 5)

    def test_single_step_shift(self):
        assert skip_successor((0, 3, 1, 0)) == ((0, 0, 3, 1), 1)

    def test_rejects_firing_state(self):
        with pytest.raises(ValueError):
            skip_successor((0, 0, 2))

    @pytest.mark.parametrize(
        "p",
        [
            ModelParams(n=3, t=4, r=1, epsilon=0.1, mu=0.0),
            ModelParams(n=4, t=5, r=2, epsilon=0.1, mu=1.0),
            ModelParams(n=1, t=6, r=0, epsilon=0.1, mu=0.2),
            ModelParams(n=5, t=2, r=1, epsilon=0.5, mu=0.5),
            ModelParams(n=6, t=8, r=1, epsilon=3.0, mu=0.2),
        ],
        ids=["mu0", "mu1", "n1", "t2", "eps3"],
    )
    def test_skip_lengths_are_the_shifts(self, p):
        # the one skip length a batch shares for its successors and rewards
        states = np.array(list(enumerate_states(p)))
        want = [0 if is_firing(sigma) else skip_successor(sigma)[1] for sigma in map(tuple, states.tolist())]
        assert skip_lengths(states).tolist() == want
        assert [skip_lengths(np.array(sigma)) for sigma in states.tolist()] == want  # one state: a scalar

    @given(random_state())
    @settings(max_examples=200, deadline=None)
    def test_lands_on_firing_state_and_conserves(self, sp):
        sigma, p = sp
        if is_firing(sigma):
            return
        target, skipped = skip_successor(sigma)
        assert is_firing(target)
        assert sum(target) == sum(sigma)
        assert 1 <= skipped <= p.t - 1


class TestResolveChain:
    def test_reference_chain(self):
        out = resolve_chain(SIGMA_1, zero_failure_vector(SIGMA_1, REF_PARAMS), REF_PARAMS)
        occupied_fired = {
            phi for phi in range(1, 11) if out.fired[phi - 1] and SIGMA_1[phi - 1] > 0
        }
        assert occupied_fired == {7, 10}
        assert out.updated[6] == 12
        assert out.updated[5] == 10

    def test_lone_firing_group(self):
        p = ModelParams(n=5, t=6, r=1, epsilon=0.1, mu=0.2)
        sigma = (0, 0, 0, 0, 0, 5)
        for fv in enumerate_failure_vectors(sigma, p):
            out = resolve_chain(sigma, fv, p)
            occupied_fired = {
                phi for phi in range(1, 7) if out.fired[phi - 1] and sigma[phi - 1] > 0
            }
            assert occupied_fired == {6}

    def test_refractory_group_unperturbed(self):
        out = resolve_chain(SIGMA_2, zero_failure_vector(SIGMA_2, REF_PARAMS), REF_PARAMS)
        assert not out.fired[0]
        assert out.updated[0] == 2  # phase-1 group sits in the refractory interval

    def test_rejects_non_firing_state(self):
        with pytest.raises(ValueError):
            resolve_chain(SIGMA_0, (None,) * 10, REF_PARAMS)

    def test_rejects_star_on_firing_group(self):
        with pytest.raises(InconsistentFailureVector):
            resolve_chain(SIGMA_1, (None,) * 10, REF_PARAMS)

    def test_rejects_failure_count_on_non_fired_group(self):
        fv = list(zero_failure_vector(SIGMA_2, REF_PARAMS))
        fv[0] = 0  # phase 1 does not fire here
        with pytest.raises(InconsistentFailureVector):
            resolve_chain(SIGMA_2, tuple(fv), REF_PARAMS)

    def test_rejects_out_of_range_count(self):
        fv = list(zero_failure_vector(SIGMA_1, REF_PARAMS))
        fv[9] = 6  # only five oscillators fire at the last phase
        with pytest.raises(InconsistentFailureVector):
            resolve_chain(SIGMA_1, tuple(fv), REF_PARAMS)

    @given(random_state())
    @settings(max_examples=200, deadline=None)
    def test_fired_phases_upward_closed(self, sp):
        sigma, p = sp
        if not is_firing(sigma):
            return
        # the fired flags depend only on f_T: one consistent vector per f_T,
        # with no failures in the absorbed groups
        k_t = sigma[p.t - 1]
        for f_t in range(k_t + 1):
            fired, _ = chain_updates(k_t - f_t, p)
            fv = tuple(0 if f else None for f in fired[:-1]) + (f_t,)
            out = resolve_chain(sigma, fv, p)
            flags = [
                out.fired[phi - 1]
                for phi in range(p.r + 1, p.t + 1)
                if sigma[phi - 1] > 0
            ]
            # once a phase fires, every higher occupied phase fires too
            assert flags == sorted(flags)


class TestEnumerateFailureVectors:
    def test_count_matches_per_oscillator_projection(self):
        assert len(enumerate_failure_vectors(SIGMA_1, REF_PARAMS)) == (
            brute_force_failure_vector_count(SIGMA_1, REF_PARAMS)
        )

    def test_count_matches_on_small_models(self):
        for sigma, p in small_states():
            if not is_firing(sigma):
                continue
            assert len(enumerate_failure_vectors(sigma, p)) == (
                brute_force_failure_vector_count(sigma, p)
            ), (sigma, p)

    def test_at_least_two_vectors(self):
        for sigma, p in small_states():
            if is_firing(sigma):
                assert len(enumerate_failure_vectors(sigma, p)) >= 2

    def test_vectors_are_distinct_and_consistent(self):
        vectors = enumerate_failure_vectors(SIGMA_1, REF_PARAMS)
        assert len(set(vectors)) == len(vectors)
        for fv in vectors:
            resolve_chain(SIGMA_1, fv, REF_PARAMS)  # must not raise

    def test_rejects_non_firing_state(self):
        with pytest.raises(ValueError):
            enumerate_failure_vectors(SIGMA_0, REF_PARAMS)


class TestFiringSuccessor:
    def test_reference_trajectory(self):
        assert firing_successor(SIGMA_1, zero_failure_vector(SIGMA_1, REF_PARAMS), REF_PARAMS) == SIGMA_2
        assert firing_successor(SIGMA_2, zero_failure_vector(SIGMA_2, REF_PARAMS), REF_PARAMS) == SIGMA_3

    @given(random_state(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_population_conserved(self, sp, data):
        sigma, p = sp
        if not is_firing(sigma):
            return
        # one consistent failure vector per example: f_T fixes the absorbed
        # groups, each of which then draws its own failure count
        t, k_t = p.t, sigma[p.t - 1]
        fv = [None] * t
        fv[t - 1] = f_t = data.draw(st.integers(min_value=0, max_value=k_t))
        fired, _ = chain_updates(k_t - f_t, p)
        for phi in range(t - 1, 0, -1):
            if fired[phi - 1]:
                fv[phi - 1] = data.draw(st.integers(min_value=0, max_value=sigma[phi - 1]))
        succ = firing_successor(sigma, tuple(fv), p)
        assert sum(succ) == sum(sigma)
        assert succ[0] >= sigma[p.t - 1]  # the firing group resets to phase 1


class TestFailureProbability:
    def test_zero_failures_with_zero_mu(self):
        fv = zero_failure_vector(SIGMA_1, REF_PARAMS)
        assert failure_probability(SIGMA_1, fv, 0.0) == 1.0

    def test_binomial_point_mass(self):
        sigma = (0, 0, 3)
        assert failure_probability(sigma, (None, None, 1), 0.2) == pytest.approx(
            3 * 0.2 * 0.8**2
        )


class TestGroups:
    @pytest.mark.parametrize(
        "key",
        [
            np.array([5, 3, 5, 1, 3, 3, 9, 1], np.int64),
            np.random.default_rng(5).integers(-2**62, 2**62, 2000) // 2**55,  # many repeats
            np.array([3**50, 1, 3**50, 2**70, 1, -7], dtype=object),
            np.array([], np.int64),
            np.array([42], np.int64),
        ],
        ids=["int64", "random-int64", "object", "empty", "single"],
    )
    def test_same_groups_as_unique(self, key):
        first, inverse = groups(key)
        values, want = np.unique(key, return_inverse=True)
        assert np.array_equal(key[first], values)  # ascending, each position holds its value
        assert inverse.shape == key.shape and np.array_equal(inverse, want.reshape(-1))
        assert np.array_equal(key[first][inverse], key)  # the inverse maps back


class TestFoldSegments:
    def test_left_fold_of_ragged_segments(self):
        rng = np.random.default_rng(3)
        # a left fold of the first gives 1.0; np.sum and np.add.reduceat,
        # which add pairwise, give 1.0000000000000018
        segments = [
            [1.0] + [2.0**-53] * 16, [], [0.1] * 7, rng.random(40).tolist(), [],
            (rng.random(3) * 1e-10).tolist(), [5.0], rng.random(17).tolist(),
        ]
        acc = [0.0, *rng.random(len(segments) - 1).tolist()]
        # laid out in another order than the segments'
        layout = rng.permutation(len(segments))
        values = np.array([v for i in layout for v in segments[i]])
        length = np.array([len(seg) for seg in segments])
        start = np.empty_like(length)
        start[layout] = np.cumsum(length[layout]) - length[layout]
        got = fold_segments(values, start, length, np.array(acc))
        want = [reduce(add, seg, a) for seg, a in zip(segments, acc)]
        assert repr(got.tolist()) == repr(want)
        assert got[0] == 1.0

    @pytest.mark.parametrize("block", [FOLD_BLOCK, 7])
    def test_segments_of_one_length_fold_in_blocks(self, monkeypatch, block):
        # 30 segments of length 5, empty ones between them and one of 600:
        # a small block splits both the group of 30 and the long segment
        monkeypatch.setattr(dynamics, "FOLD_BLOCK", block)
        rng = np.random.default_rng(11)
        segments = [rng.random(5).tolist() for _ in range(30)]
        segments[3:3] = [[], []]
        segments.insert(17, (rng.random(600) * 10.0 ** rng.integers(-9, 3, 600)).tolist())
        segments.append([])
        acc = rng.random(len(segments)) * 1e-3
        length = np.array([len(seg) for seg in segments])
        start = np.cumsum(length) - length
        got = fold_segments(np.concatenate([np.array(seg) for seg in segments]), start, length, acc)
        want = [reduce(add, seg, a) for seg, a in zip(segments, acc.tolist())]
        assert repr(got.tolist()) == repr(want)


class TestFoldWalks:
    @staticmethod
    def walks(rng, positions, runs, accs):
        """A random function on ``positions`` (every one a closed functional
        graph), ``runs`` walks from random positions, and sums so far drawn
        from ``accs`` values, so that many walks share a position and an acc."""
        nxt = rng.integers(0, positions, positions)
        reward = rng.random(positions) * 10.0 ** rng.integers(-9, 3, positions)
        start = rng.integers(0, positions, runs)
        acc = rng.choice(np.r_[0.0, rng.random(accs - 1) * 1e3], runs)
        return start, acc, nxt, reward

    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 2), (5, 40, 3), (60, 3712, 12)])
    @pytest.mark.parametrize("block", [FOLD_BLOCK, 7])
    def test_blocked_fold_equals_stepping(self, monkeypatch, block, shape):
        # every block boundary the pair count gives, and a trapped run's cap
        monkeypatch.setattr(dynamics, "FOLD_BLOCK", block)
        start, acc, nxt, reward = self.walks(np.random.default_rng(sum(shape)), *shape)
        pairs = len({(s, a) for s, a in zip(start.tolist(), acc.tolist())})
        length = max(1, block // max(pairs, len(nxt)))
        assert pairs < len(start) or len(start) == 1
        for steps in sorted({0, 1, length - 1, length, length + 1, 10_000}):
            got = fold_walks(start, acc.copy(), nxt, reward, steps)
            want = stepped_walks(start, acc, nxt, reward, steps)
            assert repr(got.tolist()) == repr(want.tolist()), steps

    def test_equal_values_with_other_bits_fold_apart(self):
        # -0.0 == 0.0, but each keeps its own bits through the fold
        start, acc = np.zeros(4, np.int64), np.array([0.0, -0.0, 0.0, -0.0])
        got = fold_walks(start, acc, np.zeros(1, np.int64), np.array([-0.0]), 3)
        assert np.signbit(got).tolist() == [False, True, False, True]

    def test_blocks_bound_the_working_memory(self):
        # 100,000 steps of 50 pairs: one unblocked table of positions or
        # rewards would hold 5,000,000 values (40 MB); the blocked fold
        # holds a few arrays of at most FOLD_BLOCK values each
        start, acc, nxt, reward = self.walks(np.random.default_rng(5), 50, 400, 1)
        tracemalloc.start()
        fold_walks(start, acc, nxt, reward, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 6 * FOLD_BLOCK * 8


class TestFiringTableMasses:
    def test_numpy_group_size_leaves_python_masses(self):
        # a NumPy k would form the powers in NumPy, differing in the last
        # bit, and cache them under a key equal to the Python int
        table = FiringTable(ModelParams(n=9, t=4, r=1, epsilon=0.1, mu=0.2))
        table.masses(np.int64(9))
        want = [failure_probability((9,), (f,), 0.2) for f in range(10)]
        assert repr(table.masses(9)) == repr(want)

    def test_group_size_limit(self):
        table = FiringTable(ModelParams(n=2, t=3, r=1, epsilon=0.1, mu=0.2))
        limit = FiringTable.MAX_GROUP
        assert len(table.masses(limit)) == limit + 1
        # above the limit the terms are formed in log space from the exact C(k, f)
        k, log_mu, log_nu = limit + 1, math.log(0.2), math.log1p(-0.2)
        want = [math.exp(math.log(math.comb(k, f)) + f * log_mu + (k - f) * log_nu) for f in range(k + 1)]
        assert repr(table.masses(k)) == repr(want)

    @pytest.mark.parametrize("k", [1030, 1100])
    @pytest.mark.parametrize("mu", [0.125, 0.25, 0.75])
    def test_log_space_masses_match_the_exact_law(self, k, mu):
        # every term in the normal float range lies within the bound the
        # masses docstring states; a short mu keeps the fractions fast
        masses = FiringTable(ModelParams(n=2, t=3, r=1, epsilon=0.1, mu=mu)).masses(k)
        exact = exact_masses(k, mu)
        normal = [f for f, e in enumerate(exact) if e >= Fraction(sys.float_info.min)]
        assert len(normal) > k // 2
        worst = max(abs(Fraction(masses[f]) - exact[f]) / exact[f] for f in normal)
        assert worst <= log_mass_bound(k)


class TestFiringTableBranches:
    @pytest.mark.parametrize(
        "p",
        [
            ModelParams(n=8, t=10, r=2, epsilon=0.1, mu=0.2),
            ModelParams(n=6, t=8, r=1, epsilon=3.0, mu=0.2),
            ModelParams(n=200, t=10, r=4, epsilon=0.1, mu=0.2, u=3),
        ],
        ids=["n8", "n6eps3", "restab200"],
    )
    @pytest.mark.parametrize("size", [333, 4096])
    def test_blocks_of_rows_give_their_slices_of_the_branches(self, p, size):
        # each block of source rows, its rows offset by the block's start,
        # gives the matching slice of the whole support's branches, bit for
        # bit, though its targets lie anywhere in the space
        support, _ = initial_weights(p)
        space, skips, table = StateSpace(p, support), skip_lengths(support), FiringTable(p)
        whole = table.branches(support, skips, space.rows)
        for start in range(0, len(support), size):
            rows, probs, targets = table.branches(support[start:start + size], skips[start:start + size], space.rows)
            block = (whole[0] >= start) & (whole[0] < start + size)
            assert np.array_equal(rows + start, whole[0][block])
            assert repr(probs.tolist()) == repr(whole[1][block].tolist())
            assert np.array_equal(targets, whole[2][block])


class TestSuccessorDistribution:
    def test_non_firing_single_branch(self):
        dist = successor_distribution(SIGMA_0, REF_PARAMS)
        assert len(dist.branches) == 1
        assert dist.branches[0].target == SIGMA_1
        assert dist.branches[0].probability == 1.0

    def test_probabilities_sum_to_one(self):
        for sigma, p in small_states():
            dist = successor_distribution(sigma, p)
            total = sum(b.probability for b in dist.branches)
            assert total == pytest.approx(1.0, abs=1e-12), (sigma, p)

    def test_deterministic_when_mu_zero(self):
        p = ModelParams(n=8, t=10, r=2, epsilon=0.1, mu=0.0)
        dist = successor_distribution(SIGMA_1, p)
        assert len(dist.branches) == 1
        assert dist.branches[0].target == SIGMA_2

    def test_deterministic_when_mu_one(self):
        p = ModelParams(n=8, t=10, r=2, epsilon=0.1, mu=1.0)
        dist = successor_distribution(SIGMA_1, p)
        assert len(dist.branches) == 1
        # nothing gets through: only the firing group resets
        assert dist.branches[0].target == (5, 0, 0, 0, 0, 0, 2, 1, 0, 0)

    def test_synchrony_is_absorbing(self):
        for n, t in [(1, 3), (4, 5), (8, 10)]:
            p = ModelParams(n=n, t=t, r=1, epsilon=0.1, mu=0.3)
            sigma = (0,) * (t - 1) + (n,)
            for _ in range(2 * t):
                dist = successor_distribution(sigma, p)
                for b in dist.branches:
                    assert is_synchronised(b.target)
                sigma = dist.branches[0].target

    def test_merged_targets_keep_witnesses(self):
        dist = successor_distribution(SIGMA_1, REF_PARAMS)
        assert sum(len(b.witnesses) for b in dist.branches) == len(
            enumerate_failure_vectors(SIGMA_1, REF_PARAMS)
        )
        for b in dist.branches:
            for fv in b.witnesses:
                assert firing_successor(SIGMA_1, fv, REF_PARAMS) == b.target

    @pytest.mark.parametrize("mu", [0.0, 0.3, 1.0])
    def test_matches_per_oscillator_brute_force(self, mu):
        for t in range(2, 6):
            for r in range(0, 3):
                if r >= t:
                    continue
                for n in range(1, 5):
                    p = ModelParams(n=n, t=t, r=r, epsilon=0.1, mu=mu)
                    for sigma in enumerate_states(p):
                        if not is_firing(sigma):
                            continue
                        expected = brute_force_successors(sigma, p)
                        dist = successor_distribution(sigma, p)
                        got = {b.target: b.probability for b in dist.branches}
                        assert set(got) == set(expected), (sigma, p)
                        for tgt, prob in expected.items():
                            assert got[tgt] == pytest.approx(prob, abs=1e-9), (sigma, p)
