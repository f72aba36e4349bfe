import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from propertime.errors import DomainError
from propertime.kinematics import (
    NATURAL,
    KinematicState,
    UnitSystem,
    collaborative_speed,
    elapsed_observer_time,
    gamma,
    observer_from_proper,
    proper_from_observer,
)


def vec(x, y=0.0, z=0.0):
    return np.array([x, y, z])


def observer_velocities(max_beta=0.999):
    return st.tuples(
        st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
        st.floats(0.0, max_beta),
    ).map(lambda t: _scaled(t))


def _scaled(t):
    d = np.array(t[:3])
    n = np.linalg.norm(d)
    if n == 0.0:
        return np.zeros(3)
    return d / n * t[3]


class TestGamma:
    def test_rest(self):
        assert gamma(vec(0.0)) == 1.0

    def test_point_six(self):
        assert gamma(vec(0.6)) == pytest.approx(1.25, rel=1e-15)

    def test_point_eight(self):
        assert gamma(vec(0.8)) == pytest.approx(5.0 / 3.0, rel=1e-15)

    def test_rejects_superluminal(self):
        with pytest.raises(DomainError):
            gamma(vec(1.0))
        with pytest.raises(DomainError):
            gamma(vec(0.9, 0.9))
        with pytest.raises(DomainError):
            gamma(vec(math.nan))

    def test_scales_with_c(self):
        si = UnitSystem(c=299792458.0)
        assert gamma(vec(0.6 * si.c), si) == pytest.approx(1.25, rel=1e-15)


class TestProperObserverMaps:
    def test_rest_maps(self):
        assert np.all(proper_from_observer(vec(0.0)) == 0.0)
        assert np.all(observer_from_proper(vec(0.0)) == 0.0)

    def test_forward_examples(self):
        np.testing.assert_allclose(proper_from_observer(vec(0.6)), vec(0.75), rtol=1e-15)
        np.testing.assert_allclose(proper_from_observer(vec(0.8)), vec(4.0 / 3.0), rtol=1e-15)

    def test_inverse_examples(self):
        np.testing.assert_allclose(observer_from_proper(vec(0.75)), vec(0.6), rtol=1e-15)
        np.testing.assert_allclose(observer_from_proper(vec(4.0 / 3.0)), vec(0.8), rtol=1e-15)

    def test_proper_speed_exceeds_c(self):
        u = proper_from_observer(vec(0.8))
        assert np.linalg.norm(u) > 1.0

    @given(observer_velocities())
    @settings(max_examples=200)
    def test_roundtrip(self, w):
        back = observer_from_proper(proper_from_observer(w))
        np.testing.assert_allclose(back, w, rtol=1e-12, atol=1e-15)

    @given(st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50)))
    def test_observer_speed_below_c(self, u):
        w = observer_from_proper(np.array(u))
        assert np.linalg.norm(w) < 1.0


class TestCollaborativeSpeed:
    def test_rest(self):
        assert collaborative_speed(vec(0.0)) == 1.0

    def test_examples(self):
        assert collaborative_speed(vec(0.75)) == pytest.approx(1.25, rel=1e-15)
        assert collaborative_speed(vec(4.0 / 3.0)) == pytest.approx(5.0 / 3.0, rel=1e-15)

    @given(observer_velocities())
    @settings(max_examples=200)
    def test_b_equals_gamma_c(self, w):
        u = proper_from_observer(w)
        assert collaborative_speed(u) == pytest.approx(gamma(w), rel=1e-12)

    @given(st.floats(0.0, 30.0), st.floats(0.0, 30.0))
    def test_monotone_in_speed(self, s1, s2):
        # strict ordering needs u^2 gaps representable in float64
        assume(abs(s2 * s2 - s1 * s1) > 1e-12)
        b1 = collaborative_speed(vec(s1))
        b2 = collaborative_speed(vec(s2))
        if s1 < s2:
            assert b1 < b2

    def test_identity_w_over_c(self):
        u = vec(2.0, -1.0, 0.5)
        w = observer_from_proper(u)
        np.testing.assert_allclose(w, u / collaborative_speed(u), rtol=1e-15)

    def test_rejects_a_two_vector(self):
        with pytest.raises(DomainError):
            collaborative_speed([1.0, 2.0])


class TestElapsedObserverTime:
    def test_rest_source(self):
        tau = np.linspace(0.0, 3.0, 101)
        t, b_bar = elapsed_observer_time(tau, np.ones_like(tau))
        assert t == pytest.approx(3.0, rel=1e-14)
        assert b_bar == pytest.approx(1.0, rel=1e-14)

    def test_constant_boosted(self):
        tau = np.linspace(0.0, 2.0, 51)
        t, b_bar = elapsed_observer_time(tau, np.full_like(tau, 1.25))
        assert t == pytest.approx(2.5, rel=1e-14)
        assert b_bar == pytest.approx(1.25, rel=1e-14)

    def test_against_closed_form(self):
        # b(s) = sqrt(1 + s^2): antiderivative (s sqrt(1+s^2) + asinh s)/2
        tau = np.linspace(0.0, 1.0, 201)
        t, b_bar = elapsed_observer_time(tau, np.sqrt(1.0 + tau**2))
        exact = 0.5 * (math.sqrt(2.0) + math.log(1.0 + math.sqrt(2.0)))
        assert exact == pytest.approx(1.14779, abs=1e-5)
        assert t == pytest.approx(exact, rel=1e-9)
        assert b_bar == pytest.approx(exact, rel=1e-9)

    def test_rejects_non_monotone_grid(self):
        with pytest.raises(DomainError):
            elapsed_observer_time([0.0, 0.5, 0.4], [1.0, 1.0, 1.0])

    def test_rejects_subluminal_b(self):
        with pytest.raises(DomainError):
            elapsed_observer_time([0.0, 1.0, 2.0], [1.0, 0.99, 1.0])

    def test_rejects_mismatched_grids(self):
        with pytest.raises(DomainError):
            elapsed_observer_time([0.0, 1.0, 2.0], [1.0, 1.0])


class TestKinematicState:
    def test_derived_quantities(self):
        state = KinematicState(x=vec(1.0), u=vec(0.75), tau=0.0, t=0.0)
        assert state.b == pytest.approx(1.25, rel=1e-15)
        np.testing.assert_allclose(state.w, vec(0.6), rtol=1e-15)
        assert state.b >= NATURAL.c
        assert np.linalg.norm(state.w) < NATURAL.c


def test_unit_system_validation():
    with pytest.raises(DomainError):
        UnitSystem(c=0.0)
    with pytest.raises(TypeError):
        UnitSystem(c=1.0, charge_convention="si")
