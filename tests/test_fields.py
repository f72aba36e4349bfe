import math
import time

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from oracles import (
    not_a_knot_spline,
    retarded_time_by_quadrature,
    retarded_time_constant_velocity,
    retarded_time_decimal,
    retarded_time_sine_line,
)
from propertime import fields
from propertime.errors import (
    DegenerateGeometryError,
    DomainError,
    RetardationError,
    SingularGeometryError,
)
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

    def test_fields_past_the_end_of_the_samples(self):
        traj = SourceTrajectory.from_samples(
            1.0, np.linspace(0.0, 1.0, 20), np.zeros((20, 3))
        )
        with pytest.raises(RetardationError):
            fields_at(np.array([0.5, 0, 0]), 1.5, traj)

    @pytest.mark.parametrize("grid, positions", [
        ([0.0, 1.0, 1.0, 2.0], np.zeros((4, 3))),
        (np.linspace(0.0, 1.0, 5), np.zeros((5, 2))),
        ([0.5], np.zeros((1, 3))),
        ([0.0, np.nan, 2.0], np.zeros((3, 3))),
        ([0.0, 1.0, np.inf], np.zeros((3, 3))),
        ([0.0, 1.0, 2.0], [[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    ], ids=["non-increasing-grid", "positions-shape", "one-sample", "nan-grid", "inf-grid",
            "nan-position"])
    def test_samples_rejected(self, grid, positions):
        with pytest.raises(DomainError):
            SourceTrajectory.from_samples(1.0, grid, positions)


def test_fast_sources_seen_from_ahead_match_the_decimal_root():
    # ahead of a fast source the Newton gap b (tau - tau') - |r| subtracts two
    # nearly equal lengths: on these draws the Newton solve on a plain-callable
    # copy of the worldline misses the decimal root by up to 3.1x the solve's
    # tolerance and the np.roots oracle by 1.2x, so those two routes are held
    # to ten times it; the closed form misses by 0.02x.
    rng = np.random.default_rng(14)
    for _ in range(300):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        u = direction * rng.uniform(6.0, 12.0)
        ahead = direction + 0.3 * rng.normal(size=3)
        x = ahead * rng.uniform(3.0, 5.0) / np.linalg.norm(ahead)
        tau = rng.uniform(0.0, 3.0)
        x0 = np.zeros(3)
        tol = 1e-12 * max(1.0, abs(tau))
        expected = retarded_time_decimal(x, tau, x0, u)
        traj = SourceTrajectory.uniform(1.0, x0, u)
        assert abs(retarded_time(x, tau, traj) - expected) <= tol
        assert abs(fields_at(x, tau, traj)[2] - expected) <= tol
        assert abs(retarded_time_constant_velocity(x, tau, x0, u) - expected) <= 10.0 * tol
        plain = SourceTrajectory(
            e=1.0,
            position=lambda t, u=u: x0 + u * t,
            velocity=lambda t, u=u: u,
            acceleration=lambda t: np.zeros(3),
        )
        assert abs(retarded_time(x, tau, plain) - expected) <= 10.0 * tol


class TestFieldsOverManyPoints:
    """(N, 3) points in one fields_at call against N calls of one point each."""

    @staticmethod
    def sources():
        rng = np.random.default_rng(16)
        grid = np.arange(-30.0, 10.0 + 1e-9, 0.25)
        oscillating = oscillating_source(rng, e=1.3)
        return {
            "static": SourceTrajectory.static(1.3, [0.3, -0.2, 0.5]),
            "uniform": SourceTrajectory.uniform(1.3, [0.3, -0.2, 0.5], [1.5, -0.7, 2.0]),
            "oscillating": oscillating,
            "sampled": SourceTrajectory.from_samples(
                1.3, grid, np.array([oscillating.x(t) for t in grid])),
        }

    @pytest.mark.parametrize("kind", ["static", "uniform", "oscillating", "sampled"])
    def test_batch_matches_single_points(self, kind):
        traj = self.sources()[kind]
        rng = np.random.default_rng(17)
        points = np.array([random_field_point(rng) for _ in range(9)])
        tau = 1.7
        E, B, tau_ret = fields_at(points, tau, traj)
        assert E.shape == B.shape == (9, 3) and tau_ret.shape == (9,)
        for i, point in enumerate(points):
            E1, B1, t1 = fields_at(point, tau, traj)
            assert np.max(np.abs(E[i] - E1)) <= 1e-14 * np.linalg.norm(E1)
            assert np.max(np.abs(B[i] - B1)) <= 1e-14 * np.linalg.norm(E1)  # |B| <= |E|
            assert abs(tau_ret[i] - t1) <= 1e-14 * max(1.0, abs(t1))

    @pytest.mark.parametrize("kind", ["static", "uniform", "oscillating"])
    def test_one_point_on_the_worldline_fails_the_batch(self, kind):
        traj = self.sources()[kind]
        tau = 0.4
        points = np.array([[3.0, 1.0, 0.0], traj.x(tau), [0.0, -4.0, 1.0]])
        with pytest.raises(DegenerateGeometryError):
            fields_at(points, tau, traj)

    @pytest.mark.parametrize("kind", ["uniform", "oscillating"])
    def test_one_point_keeps_its_shape(self, kind):
        E, B, tau_ret = fields_at(np.array([3.0, 1.0, 0.5]), 1.0, self.sources()[kind])
        assert E.shape == B.shape == (3,)
        assert isinstance(tau_ret, float)

    def test_points_must_be_3_vectors(self):
        with pytest.raises(DomainError):
            fields_at(np.zeros((4, 2)), 0.0, self.sources()["uniform"])

    def test_static_is_uniform_at_rest(self):
        static = self.sources()["static"]
        uniform = SourceTrajectory.uniform(1.3, [0.3, -0.2, 0.5], np.zeros(3))
        taus = np.array([-2.0, 0.0, 1.7, 5.0])
        for name in ("position", "velocity"):
            assert np.shape(getattr(static, name)(taus)) == np.shape(getattr(uniform, name)(taus))
        rng = np.random.default_rng(18)
        points = np.array([random_field_point(rng) for _ in range(9)])
        for x in (points, points[4]):
            for got, expected in zip(fields_at(x, 1.7, static), fields_at(x, 1.7, uniform)):
                assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


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

    def test_spline_derivative_as_plain_callable(self):
        # the velocity returns (k, 3) on k nodes: one call per rule
        grid = np.arange(-30.0, 10.0 + 1e-9, 0.25)
        spline = CubicSpline(grid, np.array([oscillating_source(RNG).x(t) for t in grid]))
        d1 = spline.derivative(1)
        shapes = []
        traj = SourceTrajectory(
            e=1.0,
            position=spline,
            velocity=lambda tau: shapes.append(np.shape(tau)) or d1(tau),
            acceleration=spline.derivative(2),
        )
        self.assert_matches_quadrature(traj, 5, grid)
        assert (20,) in shapes

    def test_kicked_charge(self):
        # the velocity jumps at tau = 0.4: no panel across it passes a relative
        # test, and open Gauss-Legendre panels miss it near their ends by 1e-4
        self.assert_matches_quadrature(kicked_source(), 20, [0.4])

    def test_kinked_velocity(self):
        # constant acceleration switched on at tau = 0.4: u is continuous, u' jumps
        self.assert_matches_quadrature(kinked_source(), 20, [0.4])


def kicked_source():
    u0, u1 = np.array([0.5, -0.3, 0.2]), np.array([-1.2, 0.8, 0.6])
    return SourceTrajectory(
        e=1.0,
        position=lambda tau: (u0 * tau if tau < 0.4 else 0.4 * u0 + u1 * (tau - 0.4)),
        velocity=lambda tau: u0 if tau < 0.4 else u1,
        acceleration=lambda tau: np.zeros(3),
    )


def kinked_source():
    u0, a = np.array([0.5, -0.3, 0.2]), np.array([0.4, 0.9, -0.5])
    return SourceTrajectory(
        e=1.0,
        position=lambda tau: u0 * tau + 0.5 * a * max(tau - 0.4, 0.0) ** 2,
        velocity=lambda tau: u0 + a * max(tau - 0.4, 0.0),
        acceleration=lambda tau: a * (tau >= 0.4),
    )


def constant_velocity_source():
    u = np.array([1.5, -0.7, 2.0])
    return SourceTrajectory(
        e=1.0,
        position=lambda tau: u * tau,
        velocity=lambda tau: u,
        acceleration=lambda tau: np.zeros(3),
    )


def with_velocity(traj, velocity):
    """The worldline of traj with another velocity callable."""
    return SourceTrajectory(
        e=traj.e, position=traj.position, velocity=velocity, acceleration=traj.acceleration
    )


def per_node_general_path(traj, tol):
    """fields._general_path with b taken node by node: the route before the
    velocity was called on whole node arrays, kept as the scalar reference."""
    nodes, weights = fields._gauss_lobatto_20()
    nodes = (1.0 + nodes).tolist()

    def rule(t0, t1):
        half = 0.5 * (t1 - t0)
        return half * (np.array([traj.b(t0 + half * t) for t in nodes]) @ weights)

    resolved = []

    def panel(t0, t1, whole, depth):
        mid = 0.5 * (t0 + t1)
        left, right = rule(t0, mid), rule(mid, t1)
        if abs(left + right - whole) <= max(tol, 1e-14 * abs(left + right)):
            resolved.append((min(t0, t1), max(t0, t1)))
            return left + right
        if depth == 40:
            return left + right
        return panel(t0, mid, left, depth + 1) + panel(mid, t1, right, depth + 1)

    def path(t0, t1):
        whole = rule(t0, t1)
        a, b = min(t0, t1), max(t0, t1)
        if any(start <= a and b <= end for start, end in resolved):
            return float(whole)
        return float(panel(t0, t1, whole, 0))

    return path


class TestVelocityOnNodeArrays:
    """The path integral of a plain-callable source from one velocity call
    per rule, against the node-by-node route it falls back to."""

    @staticmethod
    def points(n):
        rng = np.random.default_rng(18)
        return [(random_field_point(rng, 3.0, 5.0), rng.uniform(0.0, 3.0)) for _ in range(n)]

    def test_array_route_matches_scalar_route(self):
        rng = np.random.default_rng(19)
        for x, tau in self.points(50):
            traj = oscillating_source(rng)
            scalar = with_velocity(traj, lambda t, v=traj.velocity: v(float(t)))
            E, B, t_ret = fields_at(x, tau, traj)
            E1, B1, t1 = fields_at(x, tau, scalar)
            assert abs(t_ret - t1) <= 1e-13 * max(1.0, abs(t1))
            assert np.max(np.abs(E - E1)) <= 1e-13 * np.max(np.abs(E1))
            assert np.max(np.abs(B - B1)) <= 1e-13 * np.max(np.abs(B1))

    def test_scalar_route_is_the_per_node_rule(self, monkeypatch):
        rng = np.random.default_rng(20)
        sources = [kicked_source(), kinked_source(), constant_velocity_source()]
        for _ in range(10):
            traj = oscillating_source(rng)
            sources.append(with_velocity(traj, lambda t, v=traj.velocity: v(float(t))))
        points = self.points(len(sources))
        got = [retarded_time(x, tau, traj) for traj, (x, tau) in zip(sources, points)]
        monkeypatch.setattr(fields, "_general_path", per_node_general_path)
        expected = [retarded_time(x, tau, traj) for traj, (x, tau) in zip(sources, points)]
        assert got == expected

    def test_wrong_array_values_take_the_scalar_route(self):
        rng = np.random.default_rng(21)
        for x, tau in self.points(10):
            traj = oscillating_source(rng)
            v = traj.velocity
            wrong = with_velocity(traj, lambda t: v(t) if np.ndim(t) == 0 else 1.5 * v(t))
            scalar = with_velocity(traj, lambda t: v(float(t)))
            assert retarded_time(x, tau, wrong) == retarded_time(x, tau, scalar)

    def test_one_velocity_call_per_rule(self):
        rng = np.random.default_rng(22)
        counts = []
        for x, tau in self.points(30):
            traj = oscillating_source(rng)
            calls = []
            counted = with_velocity(traj, lambda t, v=traj.velocity: calls.append(1) or v(t))
            fields_at(x, tau, counted)
            counts.append(len(calls))
        # node by node, the median point takes several hundred calls
        assert np.median(counts) <= 40


class CallLimit(Exception):
    """Raised by a test velocity past its call limit, so a solve that never
    ends fails its test instead of hanging it."""


def limited(velocity, limit=200_000):
    calls = 0

    def call(tau):
        nonlocal calls
        calls += 1
        if calls > limit:
            raise CallLimit(f"{limit} velocity calls")
        return velocity(tau)

    return call


def oscillating_line(velocity):
    """Charge on the x axis with x(tau) = 0.3 sin tau and the given velocity."""
    return SourceTrajectory(
        e=1.0,
        position=lambda tau: np.array([0.3 * np.sin(tau), 0.0 * tau, 0.0 * tau]),
        velocity=limited(velocity),
        acceleration=lambda tau: np.array([-0.3 * np.sin(tau), 0.0 * tau, 0.0 * tau]),
    )


def nan_before_minus_one(tau):
    # branches on one tau, so the solve calls it node by node
    return np.array([math.nan if tau < -1.0 else 0.3 * math.cos(tau), 0.0, 0.0])


def nan_before_minus_one_on_arrays(tau):
    return np.array([np.where(tau < -1.0, math.nan, 0.3 * np.cos(tau)), 0.0 * tau, 0.0 * tau])


def unresolved_wiggle(tau):
    # b wiggles by about 3e-7 with period 6e-7: no panel agrees with its
    # halves to the solve's 1e-14 until it is shorter than a period
    return np.array([0.3 * np.cos(tau) + 1e-6 * np.sin(1e7 * tau), 0.0 * tau, 0.0 * tau])


def raises_within(seconds, error, call, match=None):
    start = time.perf_counter()
    with pytest.raises(error, match=match):
        call()
    assert time.perf_counter() - start < seconds


class TestSolveAlwaysEnds:
    """Inputs on which the retarded-time solve once ran without end."""

    @pytest.mark.parametrize("velocity", [nan_before_minus_one, nan_before_minus_one_on_arrays])
    def test_non_finite_b_on_the_path_raises(self, velocity):
        traj = oscillating_line(velocity)
        x = np.array([0.0, 3.4, 0.0])  # tau' near -3.3 at tau = 0
        raises_within(1.0, RetardationError, lambda: retarded_time(x, 0.0, traj), "not finite")
        raises_within(1.0, RetardationError, lambda: fields_at(x, 0.0, traj))

    @pytest.mark.parametrize("velocity", [nan_before_minus_one, nan_before_minus_one_on_arrays])
    def test_non_finite_b_off_the_path_is_not_read(self, velocity):
        x = np.array([0.0, 0.9, 0.0])  # tau' near -0.9: the path stays above -1
        clean = oscillating_line(lambda tau: np.array([0.3 * np.cos(tau), 0.0 * tau, 0.0 * tau]))
        assert retarded_time(x, 0.0, oscillating_line(velocity)) == retarded_time(x, 0.0, clean)

    def test_unresolved_path_integral_raises(self):
        traj = oscillating_line(unresolved_wiggle)
        x = np.array([0.0, 2.0, 0.0])
        raises_within(1.0, RetardationError, lambda: retarded_time(x, 0.0, traj),
                      "path integral unresolved")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", ["plain", "static", "uniform", "sampled"])
    def test_non_finite_field_point_raises(self, kind, bad):
        grid = np.linspace(-20.0, 5.0, 101)
        traj = {
            "plain": oscillating_line(unresolved_wiggle),
            "static": SourceTrajectory.static(1.0, [0.3, -0.2, 0.5]),
            "uniform": SourceTrajectory.uniform(1.0, [0.3, -0.2, 0.5], [1.5, -0.7, 2.0]),
            "sampled": SourceTrajectory.from_samples(
                1.0, grid, np.stack([0.3 * np.sin(grid), 0.0 * grid, 0.0 * grid], axis=1)),
        }[kind]
        x = np.array([1.0, bad, 0.5])
        raises_within(1.0, DomainError, lambda: retarded_time(x, 0.0, traj), "finite")
        raises_within(1.0, DomainError, lambda: fields_at(x, 0.0, traj), "finite")
        raises_within(1.0, DomainError, lambda: fields_at(np.array([[2.0, 0.0, 0.0], x]), 0.0, traj))
        # a non-finite tau too, which passes tau_min <= tau <= tau_max when
        # both bounds are infinite
        x = np.array([1.0, 2.0, 0.5])
        raises_within(1.0, DomainError, lambda: retarded_time(x, bad, traj), "finite")
        raises_within(1.0, DomainError, lambda: fields_at(x, bad, traj), "finite")
        raises_within(1.0, DomainError, lambda: fields_at(np.array([[2.0, 0.0, 0.0], x]), bad, traj))


def sine_line(amplitude, omega):
    """Charge on the x axis with x(tau) = A sin(w tau), given by callables."""
    return SourceTrajectory(
        e=1.0,
        position=lambda tau: np.array([amplitude * np.sin(omega * tau), 0.0 * tau, 0.0 * tau]),
        velocity=lambda tau: np.array(
            [amplitude * omega * np.cos(omega * tau), 0.0 * tau, 0.0 * tau]),
        acceleration=lambda tau: np.array(
            [-amplitude * omega**2 * np.sin(omega * tau), 0.0 * tau, 0.0 * tau]),
    )


class TestFarFieldPoints:
    """A resolved b takes rules in proportion to the span the path integral
    covers, about the distance to the field point: far points still solve."""

    def test_oscillating_line(self):
        # about 12,000 rules per solve at |x| = 3000
        traj = sine_line(0.8, 1.2)
        rng = np.random.default_rng(4)
        for distance in (300.0, 3000.0, 3000.0):
            x = random_field_point(rng, distance, distance)
            tau = rng.uniform(-1.0, 3.0)
            expected = retarded_time_sine_line(x, tau, 0.8, 1.2)
            assert abs(retarded_time(x, tau, traj) - expected) <= 1e-12 * max(1.0, abs(tau))

    def test_spline_derivative_as_plain_callable(self):
        # about 14,500 rules per solve at |x| = 60, tau' near -37
        grid = np.arange(-80.0, 10.0 + 1e-9, 0.25)
        source = oscillating_source(np.random.default_rng(8))
        spline = CubicSpline(grid, np.array([source.x(t) for t in grid]))
        traj = SourceTrajectory(
            e=1.0,
            position=spline,
            velocity=spline.derivative(1),
            acceleration=spline.derivative(2),
        )
        rng = np.random.default_rng(5)
        for _ in range(2):
            x = random_field_point(rng, 60.0, 60.0)
            tau = rng.uniform(-1.0, 3.0)
            expected = retarded_time_by_quadrature(x, tau, traj, grid)
            assert abs(retarded_time(x, tau, traj) - expected) <= 1e-12 * max(1.0, abs(tau))


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

    def test_point_on_the_worldline(self):
        traj = SourceTrajectory.static(1.0, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DegenerateGeometryError):
            field_geometry(np.array([1.0, 2.0, 3.0]), 0.0, traj)

    def test_retardation_scale_rounds_to_zero(self):
        # b = sqrt(1 + 1e40) rounds to |u| = 1e20, so s = r - r.u/b is 0 ahead of the source
        traj = SourceTrajectory.uniform(1.0, np.zeros(3), np.array([1e20, 0.0, 0.0]))
        with pytest.raises(SingularGeometryError):
            field_geometry(np.array([1e25, 0.0, 0.0]), 0.0, traj)


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


@pytest.mark.parametrize("spacing", ["uniform", "random"])
@pytest.mark.parametrize("m", [2, 3, 4, 161, 400])
def test_sampled_spline_matches_scipy(m, spacing):
    # position, velocity and acceleration at float tau and at (k,) and (k, 20)
    # arrays of tau, beyond both ends of the grid too, within 1e-13 of each
    # column's largest value
    rng = np.random.default_rng(m)
    if spacing == "uniform":
        grid = np.linspace(-2.0, 3.0, m)
    else:
        grid = np.cumsum(rng.uniform(0.05, 1.0, m)) - 2.0
    positions = rng.normal(size=(m, 3))
    traj = SourceTrajectory.from_samples(1.0, grid, positions)
    span = grid[-1] - grid[0]
    taus = rng.uniform(grid[0] - 0.5 * span, grid[-1] + 0.5 * span, size=(7, 20))
    taus[0, :4] = grid[0], grid[-1], grid[0] - 0.3 * span, grid[-1] + 0.3 * span
    oracle = not_a_knot_spline(grid, positions)
    for ours, theirs in zip((traj.position, traj.velocity, traj.acceleration), oracle):
        for got, expected in [
            (ours(taus), theirs(taus)),
            (ours(taus[:, 0]), theirs(taus[:, 0])),
            (np.array([ours(t) for t in taus[0].tolist()]),
             np.array([theirs(t) for t in taus[0].tolist()])),
        ]:
            assert got.shape == expected.shape
            err = np.abs(got - expected).reshape(-1, 3).max(axis=0)
            assert np.all(err <= 1e-13 * np.abs(expected).reshape(-1, 3).max(axis=0))


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
