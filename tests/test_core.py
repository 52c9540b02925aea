import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pcosync.core import (
    ModelParams,
    format_failure_vector,
    is_firing,
    is_synchronised,
    perturbation,
    refractory,
    round_half_up,
    validate_state,
)


def params(**kw):
    base = dict(n=4, t=6, r=1, epsilon=0.1, mu=0.2)
    base.update(kw)
    return ModelParams(**base)


class TestRounding:
    def test_half_rounds_up(self):
        assert round_half_up(3.5) == 4
        assert round_half_up(2.5) == 3
        assert round_half_up(0.5) == 1

    def test_below_half_rounds_down(self):
        assert round_half_up(3.4999) == 3
        assert round_half_up(0.0) == 0

    @given(st.integers(min_value=0, max_value=10_000))
    def test_integers_fixed(self, k):
        assert round_half_up(float(k)) == k


class TestPerturbation:
    def test_known_values(self):
        # values quoted for a 15-node network at coupling 0.1
        assert perturbation(2, 14, 0.1) == 3
        assert perturbation(5, 14, 0.1) == 7

    def test_more_values(self):
        assert perturbation(7, 5, 0.1) == 4  # [3.5] = 4
        assert perturbation(6, 5, 0.1) == 3  # [3.0] = 3
        assert perturbation(9, 1, 0.1) == 1  # [0.9] = 1
        assert perturbation(1, 0, 0.5) == 0

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=20),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_nonnegative(self, phi, alpha, eps):
        assert perturbation(phi, alpha, eps) >= 0

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=19),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_monotone_in_alpha(self, phi, alpha, eps):
        assert perturbation(phi, alpha + 1, eps) >= perturbation(phi, alpha, eps)


class TestRefractory:
    def test_inside_interval_suppressed(self):
        assert refractory(1, 5, 3) == 0
        assert refractory(3, 5, 3) == 0

    def test_outside_interval_passes(self):
        assert refractory(4, 5, 3) == 5
        assert refractory(10, 2, 3) == 2

    def test_zero_r_never_suppresses(self):
        for phi in range(1, 11):
            assert refractory(phi, 7, 0) == 7

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=19),
    )
    def test_result_is_zero_or_delta(self, phi, delta, r):
        assert refractory(phi, delta, r) in (0, delta)


class TestValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(n=0),
            dict(t=1),
            dict(r=-1),
            dict(r=6),  # r must be < t
            dict(epsilon=0.0),
            dict(epsilon=-0.1),
            dict(mu=-0.01),
            dict(mu=1.01),
            dict(epsilon=math.inf),
            dict(epsilon=math.nan),
            dict(u=0),
            dict(u=4),  # U must stay below N = 4
            dict(n=3.5),  # counts are integers
            dict(t=4.0),
            dict(r=1.5),
            dict(u=1.5),
        ],
    )
    def test_bad_params_rejected(self, kw):
        (name,) = kw
        message = {"n": "N", "t": "T", "r": "R", "u": "U"}.get(name, name) + " must"
        with pytest.raises(ValueError, match=message):
            params(**kw)
        with pytest.raises(ValueError, match=message):  # replace checks again
            replace(params(), **kw)

    def test_numpy_integer_counts_accepted(self):
        p = params(n=np.int64(4), t=np.int32(6), r=np.uint8(1), u=np.int64(2))
        assert p == params(u=2)

    def test_state_validation(self):
        p = params(n=3, t=4)
        assert validate_state((1, 0, 2, 0), p) == (1, 0, 2, 0)
        with pytest.raises(ValueError):
            validate_state((1, 0, 2), p)  # wrong length
        with pytest.raises(ValueError):
            validate_state((1, 0, 1, 0), p)  # wrong total
        with pytest.raises(ValueError):
            validate_state((4, 0, -1, 0), p)


class TestStatePredicates:
    def test_firing(self):
        assert is_firing((0, 0, 3))
        assert not is_firing((3, 0, 0))

    def test_synchronised(self):
        assert is_synchronised((0, 5, 0))
        assert not is_synchronised((1, 4, 0))

    def test_failure_vector_rendering(self):
        assert format_failure_vector((None, 0, 2)) == "(*,0,2)"
