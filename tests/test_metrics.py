import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcosync.core import is_synchronised
from pcosync.dtmc import enumerate_states, state_array
from pcosync.core import ModelParams
from pcosync.metrics import (
    ContinuousConfig,
    order_parameter,
    order_parameter_gradient,
    order_parameter_sqrt_form,
    phase_coherence,
    phase_coherences,
    phase_position,
    r_min,
)

thetas_strategy = st.lists(
    st.floats(min_value=0.0, max_value=2.0 * math.pi), min_size=2, max_size=8
).map(tuple)


class TestPhasePosition:
    def test_first_phase_is_one(self):
        assert phase_position(1, 10) == pytest.approx(1.0 + 0j)

    def test_quarter_circle(self):
        assert phase_position(3, 8) == pytest.approx(1j)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            phase_position(0, 10)
        with pytest.raises(ValueError):
            phase_position(11, 10)


class TestPhaseCoherence:
    def test_reference_value(self):
        assert phase_coherence((0, 0, 0, 0, 0, 2, 1, 0, 0, 5), 10) == pytest.approx(
            0.4671, abs=5e-5
        )

    def test_synchronised_is_exactly_one(self):
        assert phase_coherence((0, 8, 0, 0), 4) == 1.0
        assert phase_coherence((0, 0, 0, 1), 4) == 1.0

    def test_antipodal_is_zero(self):
        assert phase_coherence((1, 0, 1, 0), 4) == pytest.approx(0.0, abs=1e-12)

    def test_one_iff_synchronised_exhaustive(self):
        for n in range(1, 7):
            for t in range(2, 9):
                p = ModelParams(n=n, t=t, r=0, epsilon=0.1, mu=0.0)
                for sigma in enumerate_states(p):
                    if is_synchronised(sigma):
                        assert phase_coherence(sigma, t) == 1.0
                    else:
                        assert phase_coherence(sigma, t) < 1.0

    def test_rotation_invariance(self):
        # cyclically shifting all phases leaves the magnitude unchanged
        sigma = (3, 0, 1, 2, 0, 0, 1, 0, 0, 1)
        t = len(sigma)
        base = phase_coherence(sigma, t)
        for shift in range(1, t):
            rotated = tuple(sigma[(i - shift) % t] for i in range(t))
            assert phase_coherence(rotated, t) == pytest.approx(base, abs=1e-12)

    def test_array_form_is_bit_identical(self):
        for n in range(1, 9):
            for t in range(2, 11):
                states = state_array(ModelParams(n=n, t=t, r=0, epsilon=0.1, mu=0.0))
                got = [repr(c) for c in phase_coherences(states, t).tolist()]
                want = [repr(phase_coherence(s, t)) for s in map(tuple, states.tolist())]
                assert got == want, (n, t)

    def test_matches_continuous_placement(self):
        sigma = (2, 0, 3, 0, 1, 0, 0, 2)
        t = len(sigma)
        thetas = []
        for phi, k in enumerate(sigma, start=1):
            thetas.extend([2.0 * math.pi * (phi - 1) / t] * k)
        assert phase_coherence(sigma, t) == pytest.approx(
            order_parameter(ContinuousConfig(tuple(thetas))), abs=1e-12
        )


class TestOrderParameter:
    def test_range(self):
        c = ContinuousConfig((0.1, 2.0, 4.5))
        assert 0.0 <= order_parameter(c) <= 1.0

    def test_rejects_out_of_range_phases(self):
        with pytest.raises(ValueError):
            ContinuousConfig((0.0, 7.0))

    @given(thetas_strategy)
    @settings(max_examples=200, deadline=None)
    def test_sqrt_form_agrees(self, thetas):
        c = ContinuousConfig(thetas)
        assert order_parameter(c) == pytest.approx(
            order_parameter_sqrt_form(c), abs=1e-12
        )


class TestGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(12345)
        h = 1e-6
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 9))
            # margin keeps theta +- h inside the domain
            thetas = tuple(rng.uniform(1e-5, 2.0 * math.pi - 1e-5, size=n))
            c = ContinuousConfig(thetas)
            if order_parameter(c) <= 0.1:
                continue
            grad = order_parameter_gradient(c)
            for k in range(n):
                hi = list(thetas)
                lo = list(thetas)
                hi[k] += h
                lo[k] -= h
                fd = (
                    order_parameter_sqrt_form(ContinuousConfig(tuple(hi)))
                    - order_parameter_sqrt_form(ContinuousConfig(tuple(lo)))
                ) / (2.0 * h)
                scale = max(abs(fd), 1.0)
                assert abs(grad[k] - fd) / scale <= 1e-6
            checked += 1

    def test_synchronised_gradient_is_zero(self):
        c = ContinuousConfig((1.3,) * 5)
        assert order_parameter_gradient(c) == pytest.approx((0.0,) * 5, abs=1e-15)

    def test_singular_at_zero_coherence(self):
        c = ContinuousConfig((0.0, math.pi))
        with pytest.raises(ValueError):
            order_parameter_gradient(c)


class TestRMin:
    def test_single_oscillator(self):
        assert r_min(1, 10) == pytest.approx(1.0)

    def test_lower_bounds_random_arc_configurations(self):
        # any configuration confined to one arc of width 2*pi/t scores at least r_min
        rng = np.random.default_rng(99)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            t = int(rng.integers(2, 11))
            thetas = tuple(rng.uniform(0.0, 2.0 * math.pi / t, size=n))
            assert order_parameter(ContinuousConfig(thetas)) >= r_min(n, t) - 1e-12

    def test_endpoint_split_attains_minimum(self):
        for n in range(1, 9):
            for t in range(2, 11):
                w = cmath.exp(2j * math.pi / t)
                attained = min(abs(m + (n - m) * w) / n for m in range(n + 1))
                assert r_min(n, t) == pytest.approx(attained, abs=1e-15)

    def test_wide_arc_two_oscillators(self):
        # with t=2 the endpoints are antipodal and an even split cancels
        assert r_min(2, 2) == pytest.approx(0.0, abs=1e-15)

    def test_bounds(self):
        with pytest.raises(ValueError):
            r_min(0, 10)
        with pytest.raises(ValueError):
            r_min(3, 1)
