import math

import numpy as np
import pytest

from oracles import retarded_time_by_quadrature, retarded_time_constant_velocity
from propertime.errors import DegenerateGeometryError, RetardationError
from propertime.fields import (
    SourceTrajectory,
    dissipative_coefficient,
    effective_photon_mass,
    electric_field,
    electric_field_terms,
    field_geometry,
    fields_at,
    magnetic_field,
    magnetic_field_terms,
    retarded_time,
)

RNG = np.random.default_rng(77)


def oscillating_source(rng, e=1.0):
    amp = rng.uniform(0.2, 0.8, size=3)
    w = rng.uniform(0.5, 1.2)
    return SourceTrajectory(
        e=e,
        position=lambda tau: np.array(
            [amp[0] * np.sin(w * tau), amp[1] * np.sin(2 * w * tau), amp[2] * np.cos(w * tau)]
        ),
        velocity=lambda tau: np.array(
            [amp[0] * w * np.cos(w * tau), 2 * amp[1] * w * np.cos(2 * w * tau),
             -amp[2] * w * np.sin(w * tau)]
        ),
        acceleration=lambda tau: np.array(
            [-amp[0] * w**2 * np.sin(w * tau), -4 * amp[1] * w**2 * np.sin(2 * w * tau),
             -amp[2] * w**2 * np.cos(w * tau)]
        ),
    )


def random_field_point(rng, lo=2.0, hi=6.0):
    x = rng.normal(size=3)
    return x * rng.uniform(lo, hi) / np.linalg.norm(x)


class TestRetardedTime:
    def test_static_source_light_cone(self):
        traj = SourceTrajectory.static(1.0, np.zeros(3))
        assert retarded_time(np.array([1.0, 0, 0]), 5.0, traj) == pytest.approx(4.0, abs=1e-10)

    def test_constant_velocity_quadratic_oracle(self):
        for _ in range(50):
            u = RNG.normal(size=3) * RNG.uniform(0.0, 3.0)
            x0 = RNG.normal(size=3)
            x = random_field_point(RNG)
            tau = RNG.uniform(0.0, 2.0)
            traj = SourceTrajectory.uniform(1.0, x0, u)
            expected = retarded_time_constant_velocity(x, tau, x0, u)
            assert retarded_time(x, tau, traj) == pytest.approx(expected, abs=1e-9)

    def test_on_top_of_source_degenerate(self):
        traj = SourceTrajectory.static(1.0, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DegenerateGeometryError):
            retarded_time(np.array([1.0, 2.0, 3.0]), 1.0, traj)

    def test_short_interval_no_solution(self):
        traj = SourceTrajectory.from_samples(
            1.0, np.linspace(0.0, 1.0, 20), np.zeros((20, 3))
        )
        with pytest.raises(RetardationError):
            retarded_time(np.array([5.0, 0, 0]), 1.0, traj)


class TestRetardedTimeAgainstQuadrature:
    """Each path-integral route against brentq on adaptive quad, to the solve's tolerance."""

    @staticmethod
    def assert_matches_quadrature(traj, n, knots=()):
        rng = np.random.default_rng(12)
        for _ in range(n):
            x = random_field_point(rng)
            tau = rng.uniform(-1.0, 3.0)
            expected = retarded_time_by_quadrature(x, tau, traj, knots)
            assert abs(retarded_time(x, tau, traj) - expected) <= 1e-12 * max(1.0, abs(tau))

    def test_static(self):
        self.assert_matches_quadrature(SourceTrajectory.static(1.0, [0.3, -0.2, 0.5]), 10)

    def test_uniform(self):
        traj = SourceTrajectory.uniform(1.0, [0.3, -0.2, 0.5], [1.5, -0.7, 2.0])
        self.assert_matches_quadrature(traj, 10)

    def test_oscillating(self):
        # one Gauss-Legendre rule over the whole interval misses by up to 1e-2 here
        for _ in range(6):
            self.assert_matches_quadrature(oscillating_source(RNG), 5)

    def test_from_samples(self):
        grid = np.arange(-30.0, 10.0 + 1e-9, 0.25)
        for _ in range(3):
            source = oscillating_source(RNG)
            samples = np.array([source.x(t) for t in grid])
            self.assert_matches_quadrature(SourceTrajectory.from_samples(1.0, grid, samples), 5, grid)

    def test_kicked_charge(self):
        # the velocity jumps at tau = 0.4: no panel across it passes a relative
        # test, and open Gauss-Legendre panels miss it near their ends by 1e-4
        u0, u1 = np.array([0.5, -0.3, 0.2]), np.array([-1.2, 0.8, 0.6])
        traj = SourceTrajectory(
            e=1.0,
            position=lambda tau: (u0 * tau if tau < 0.4 else 0.4 * u0 + u1 * (tau - 0.4)),
            velocity=lambda tau: u0 if tau < 0.4 else u1,
            acceleration=lambda tau: np.zeros(3),
        )
        self.assert_matches_quadrature(traj, 20, [0.4])

    def test_kinked_velocity(self):
        # constant acceleration switched on at tau = 0.4: u is continuous, u' jumps
        u0, a = np.array([0.5, -0.3, 0.2]), np.array([0.4, 0.9, -0.5])
        traj = SourceTrajectory(
            e=1.0,
            position=lambda tau: u0 * tau + 0.5 * a * max(tau - 0.4, 0.0) ** 2,
            velocity=lambda tau: u0 + a * max(tau - 0.4, 0.0),
            acceleration=lambda tau: a * (tau >= 0.4),
        )
        self.assert_matches_quadrature(traj, 20, [0.4])


class TestFieldGeometry:
    def test_static(self):
        traj = SourceTrajectory.static(1.0, np.zeros(3))
        geom = field_geometry(np.array([2.0, 0, 0]), 0.0, traj)
        assert geom.s == pytest.approx(geom.r_mag)
        np.testing.assert_allclose(geom.r_u, geom.r)

    def test_perpendicular(self):
        traj = SourceTrajectory.uniform(1.0, np.zeros(3), np.array([0.0, 0.0, 2.0]))
        geom = field_geometry(np.array([3.0, 0, 0]), 0.0, traj)
        assert geom.s == pytest.approx(3.0, rel=1e-14)

    def test_parallel_contraction(self):
        traj = SourceTrajectory.uniform(1.0, np.zeros(3), np.array([0.75, 0.0, 0.0]))
        geom = field_geometry(np.array([2.0, 0, 0]), 0.0, traj)
        # s = r (1 - |u|/b) with b = 1.25
        assert geom.s == pytest.approx(2.0 * 0.4, rel=1e-14)


class TestElectricField:
    def test_static_coulomb(self):
        traj = SourceTrajectory.static(2.0, np.zeros(3))
        for _ in range(20):
            x = random_field_point(RNG, 0.5, 4.0)
            r = np.linalg.norm(x)
            E = electric_field(x, 7.0, traj)
            np.testing.assert_allclose(E, 2.0 * x / r**3, rtol=1e-12)

    def test_unaccelerated_source_has_no_third_term(self):
        traj = SourceTrajectory.uniform(1.0, np.zeros(3), np.array([1.0, 0.5, 0.0]))
        tau_ret = retarded_time(np.array([3.0, 1.0, 0.0]), 1.0, traj)
        geom = field_geometry(np.array([3.0, 1.0, 0.0]), tau_ret, traj)
        _, t2, t3 = electric_field_terms(geom, traj.u(tau_ret), traj.a(tau_ret), 1.0)
        assert np.all(t2 == 0.0)
        assert np.all(t3 == 0.0)

    def test_third_term_vanishes_iff_u_dot_a_zero(self):
        geom_point = np.array([4.0, 0.5, -0.2])
        # u.a = 0: circular-style kinematics
        u = np.array([0.0, 1.2, 0.0])
        a = np.array([0.8, 0.0, 0.0])
        traj = SourceTrajectory(
            e=1.0,
            position=lambda t: np.zeros(3),
            velocity=lambda t: u,
            acceleration=lambda t: a,
        )
        geom = field_geometry(geom_point, 0.0, traj)
        _, _, t3 = electric_field_terms(geom, u, a, 1.0)
        assert np.all(t3 == 0.0)
        _, _, m3 = magnetic_field_terms(geom, u, a, 1.0)
        assert np.all(m3 == 0.0)
        # u.a != 0: strictly nonzero longitudinal piece
        a2 = np.array([0.8, 0.4, 0.0])
        _, _, t3b = electric_field_terms(geom, u, a2, 1.0)
        assert np.linalg.norm(t3b) > 0.0

    def test_longitudinal_component_present(self):
        u = np.array([1.0, 0.0, 0.0])
        a = np.array([0.5, 0.3, 0.0])
        traj = SourceTrajectory(
            e=1.0,
            position=lambda t: np.zeros(3),
            velocity=lambda t: u,
            acceleration=lambda t: a,
        )
        x = np.array([0.0, 3.0, 0.0])
        geom = field_geometry(x, 0.0, traj)
        _, _, t3 = electric_field_terms(geom, u, a, 1.0)
        assert abs(t3 @ (u / np.linalg.norm(u))) > 0.0


class TestMagneticField:
    def test_static_source_no_field(self):
        traj = SourceTrajectory.static(1.0, np.zeros(3))
        B = magnetic_field(np.array([1.5, 0.3, 0.0]), 5.0, traj)
        np.testing.assert_allclose(B, np.zeros(3), atol=1e-15)

    def test_b_equals_rhat_cross_e(self):
        for _ in range(200):
            traj = oscillating_source(RNG)
            x = random_field_point(RNG)
            tau = RNG.uniform(0.0, 3.0)
            E, B, tau_ret = fields_at(x, tau, traj)
            rvec = x - traj.x(tau_ret)
            r_hat = rvec / np.linalg.norm(rvec)
            np.testing.assert_allclose(
                B, np.cross(r_hat, E), rtol=0, atol=1e-11 * np.linalg.norm(B)
            )

    def test_orthogonality(self):
        for _ in range(200):
            traj = oscillating_source(RNG)
            x = random_field_point(RNG)
            tau = RNG.uniform(0.0, 3.0)
            E, B, _ = fields_at(x, tau, traj)
            assert abs(E @ B) <= 1e-11 * np.linalg.norm(E) * np.linalg.norm(B)


def test_far_field_acceleration_term_scales_inverse_r():
    # second E term along a fixed direction: r_u grows with r, s grows with r
    u = np.array([0.4, 0.1, 0.0])
    a = np.array([0.3, -0.2, 0.1])
    traj = SourceTrajectory(
        e=1.0,
        position=lambda t: np.zeros(3),
        velocity=lambda t: u,
        acceleration=lambda t: a,
    )
    n_hat = np.array([1.0, 1.0, 0.5])
    n_hat /= np.linalg.norm(n_hat)
    radii = np.geomspace(10.0, 1e4, 12)
    mags = []
    for r in radii:
        geom = field_geometry(r * n_hat, 0.0, traj)
        _, t2, _ = electric_field_terms(geom, u, a, 1.0)
        mags.append(np.linalg.norm(t2))
    slope = np.polyfit(np.log(radii), np.log(mags), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.01)


class TestDissipativeCoefficient:
    def test_zero_acceleration(self):
        assert dissipative_coefficient(np.array([1.0, 0, 0]), np.zeros(3)) == 0.0

    def test_orthogonal(self):
        assert dissipative_coefficient(np.array([1.0, 0, 0]), np.array([0, 2.0, 0])) == 0.0

    def test_collinear_value(self):
        # u = a = e_x, c = 1: b^4 = 4
        val = dissipative_coefficient(np.array([1.0, 0, 0]), np.array([1.0, 0, 0]))
        assert val == pytest.approx(0.25, rel=1e-15)


class TestEffectivePhotonMass:
    def test_constant_velocity(self):
        res = effective_photon_mass(np.array([2.0, 0, 0]), np.zeros(3), np.zeros(3))
        assert res.bracket_explicit == 0.0
        assert res.mu == 0.0
        assert not res.imaginary

    def test_circular_motion_massless(self):
        # u.u_dot = 0 and u.u_ddot = -u_dot^2 on a circle
        for _ in range(20):
            R = RNG.uniform(0.5, 3.0)
            w = RNG.uniform(0.2, 2.0)
            phase = RNG.uniform(0.0, 2 * np.pi)
            u = R * np.array([np.cos(phase), np.sin(phase), 0.0])
            ud = R * w * np.array([-np.sin(phase), np.cos(phase), 0.0])
            udd = -(w**2) * u
            res = effective_photon_mass(u, ud, udd)
            scale = (R * w) ** 2
            assert abs(res.bracket_explicit) <= 1e-12 * max(scale, 1.0)

    def test_linear_trajectory_negative_bracket(self):
        # u(tau) = (tau, 0, 0) at tau = 1: bracket = (1/8 - 5/32) hbar^2 = -hbar^2/32
        res = effective_photon_mass(
            np.array([1.0, 0, 0]), np.array([1.0, 0, 0]), np.zeros(3)
        )
        assert res.imaginary
        assert res.mu is None
        assert res.bracket_explicit == pytest.approx(-1.0 / 32.0, rel=1e-14)
        assert res.bracket_b_form == pytest.approx(-1.0 / 32.0, rel=1e-12)

    def test_forms_agree_randomly(self):
        for _ in range(300):
            u = RNG.normal(size=3) * RNG.uniform(0, 5)
            ud = RNG.normal(size=3)
            udd = RNG.normal(size=3)
            res = effective_photon_mass(u, ud, udd)
            scale = max(abs(res.bracket_explicit), abs(res.bracket_b_form), 1e-30)
            assert abs(res.bracket_explicit - res.bracket_b_form) <= 1e-9 * scale

    def test_finite_difference_b_derivative_oracle(self):
        # b(tau) = sqrt(1 + tau^2) along u = (tau, 0, 0); compare with FD forms
        def bracket_fd(tau0, h):
            def b(t):
                return math.sqrt(1.0 + t * t)

            b0 = b(tau0)
            b_dot = (b(tau0 + h) - b(tau0 - h)) / (2 * h)
            b_ddot = (b(tau0 + h) - 2 * b0 + b(tau0 - h)) / h**2
            return b_ddot / (2 * b0**3) - 3 * b_dot**2 / (4 * b0**4)

        exact = effective_photon_mass(
            np.array([1.0, 0, 0]), np.array([1.0, 0, 0]), np.zeros(3)
        ).bracket_explicit
        errs = [abs(bracket_fd(1.0, h) - exact) for h in (1e-3, 5e-4)]
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.2)


def test_sampled_trajectory_matches_closed_form():
    grid = np.linspace(-5.0, 5.0, 400)
    amp, w = 0.5, 0.9
    pos = np.stack(
        [amp * np.sin(w * grid), np.zeros_like(grid), np.zeros_like(grid)], axis=1
    )
    traj = SourceTrajectory.from_samples(1.0, grid, pos)
    for tau in (-2.0, 0.3, 1.7):
        assert traj.u(tau)[0] == pytest.approx(amp * w * np.cos(w * tau), abs=1e-5)
        assert traj.a(tau)[0] == pytest.approx(-amp * w**2 * np.sin(w * tau), abs=1e-3)
    E_sampled = electric_field(np.array([3.0, 0.5, 0.0]), 1.0, traj)
    closed = SourceTrajectory(
        e=1.0,
        position=lambda t: np.array([amp * np.sin(w * t), 0.0, 0.0]),
        velocity=lambda t: np.array([amp * w * np.cos(w * t), 0.0, 0.0]),
        acceleration=lambda t: np.array([-amp * w**2 * np.sin(w * t), 0.0, 0.0]),
    )
    E_closed = electric_field(np.array([3.0, 0.5, 0.0]), 1.0, closed)
    np.testing.assert_allclose(E_sampled, E_closed, rtol=1e-4)
