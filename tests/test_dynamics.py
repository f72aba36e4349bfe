import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest

from oracles import coulomb_critical_radius_brentq, newtonian_orbit, radial_infall
from propertime import dynamics
from propertime.dynamics import (
    FieldConfiguration,
    PhaseState,
    approximate_rhs,
    b_kinetic,
    canonical_K,
    coulomb_critical_radius,
    effective_mass_tilde,
    h_zero,
    hamilton_rhs,
    hamiltonian_H,
    integrate_orbit,
    kinetic_momentum,
    lagrangian,
    metric_deformation,
    propertime_force,
    time_reversal_check,
)
from propertime.errors import DomainError, IntegrationAbort, RenormalizationPoleError
from propertime.kinematics import UnitSystem
from propertime.many import ParticleSystem, free_flight

RNG = np.random.default_rng(99)

FREE = FieldConfiguration.free()
COULOMB = FieldConfiguration.coulomb(1.0)


def uniform_b_fields(b_z=0.7, k=1.3):
    """Coulomb potential plus uniform magnetic field, all analytic."""
    B = np.array([0.0, 0.0, b_z])

    def jac(x):
        return 0.5 * np.array(
            [[0.0, -B[2], B[1]], [B[2], 0.0, -B[0]], [-B[1], B[0], 0.0]]
        )

    return FieldConfiguration(
        scalar=lambda x: -k / np.linalg.norm(x),
        vector=lambda x: 0.5 * np.cross(B, x),
        grad_scalar=lambda x: k * x / np.linalg.norm(x) ** 3,
        curl_vector=lambda x: B,
        jac_vector=jac,
    )


def grad_K_fd(state, fields, h):
    """Central-difference (dK/dp, -dK/dx) oracle."""
    x, p = state.x, state.p
    gx = np.zeros(3)
    gp = np.zeros(3)
    for i in range(3):
        hx = h * (1.0 + abs(x[i]))
        xp = x.copy(); xp[i] += hx
        xm = x.copy(); xm[i] -= hx
        gx[i] = (
            canonical_K(PhaseState(xp, p, state.m, state.e), fields)
            - canonical_K(PhaseState(xm, p, state.m, state.e), fields)
        ) / (2 * hx)
        hp = h * (1.0 + abs(p[i]))
        pp = p.copy(); pp[i] += hp
        pm = p.copy(); pm[i] -= hp
        gp[i] = (
            canonical_K(PhaseState(x, pp, state.m, state.e), fields)
            - canonical_K(PhaseState(x, pm, state.m, state.e), fields)
        ) / (2 * hp)
    return gp, -gx


def bracket_fd(f, g, x, p, h=1e-5):
    """Standard {f, g} by central differences on a single-particle phase."""

    def grad(fn):
        gx = np.zeros(3)
        gp = np.zeros(3)
        for i in range(3):
            hx = h * (1.0 + abs(x[i]))
            xp = x.copy(); xp[i] += hx
            xm = x.copy(); xm[i] -= hx
            gx[i] = (fn(xp, p) - fn(xm, p)) / (2 * hx)
            hp = h * (1.0 + abs(p[i]))
            pp = p.copy(); pp[i] += hp
            pm = p.copy(); pm[i] -= hp
            gp[i] = (fn(x, pp) - fn(x, pm)) / (2 * hp)
        return gx, gp

    fx, fp = grad(f)
    gx, gp = grad(g)
    return float(fx @ gp - fp @ gx)


class TestHamiltonians:
    def test_rest_energy(self):
        st = PhaseState(x=np.ones(3), p=np.zeros(3), m=1.0)
        assert hamiltonian_H(st, FREE) == pytest.approx(1.0, rel=1e-15)
        assert canonical_K(st, FREE) == pytest.approx(1.0, rel=1e-15)

    def test_momentum_mc(self):
        st = PhaseState(x=np.zeros(3), p=np.array([1.0, 0, 0]), m=1.0)
        assert hamiltonian_H(st, FREE) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_additive_potential(self):
        conf = FieldConfiguration(scalar=lambda x: -0.1, grad_scalar=lambda x: np.zeros(3))
        st = PhaseState(x=np.zeros(3), p=np.zeros(3), m=1.0)
        assert hamiltonian_H(st, conf) == pytest.approx(0.9, rel=1e-15)

    def test_k_from_h_squared(self):
        # H = 2 m c^2 -> K = 2.5 m c^2
        conf = FieldConfiguration(scalar=lambda x: 1.0, grad_scalar=lambda x: np.zeros(3))
        st = PhaseState(x=np.zeros(3), p=np.zeros(3), m=1.0)
        assert hamiltonian_H(st, conf) == pytest.approx(2.0)
        assert canonical_K(st, conf) == pytest.approx(2.5, rel=1e-14)

    def test_k_even_in_momentum(self):
        for _ in range(20):
            p = RNG.normal(size=3)
            x = RNG.normal(size=3) + np.array([2.0, 0, 0])
            k1 = canonical_K(PhaseState(x, p, 1.0), COULOMB)
            k2 = canonical_K(PhaseState(x, -p, 1.0), COULOMB)
            assert k1 == pytest.approx(k2, rel=1e-15)

    def test_expansion_equals_square_form(self):
        fields = uniform_b_fields()
        for _ in range(100):
            x = RNG.normal(size=3) * 2 + np.array([3.0, 0, 0])
            p = RNG.normal(size=3) * 2
            st = PhaseState(x, p, m=RNG.uniform(0.5, 2.0), e=0.8)
            H = hamiltonian_H(st, fields)
            K = canonical_K(st, fields)
            m = st.m
            assert K == pytest.approx(H**2 / (2 * m) + m / 2, rel=1e-12)

    def test_h_zero_is_mcb(self):
        fields = uniform_b_fields()
        st = PhaseState(np.array([1.0, 1.0, 0.2]), np.array([0.3, -0.2, 1.0]), m=1.3, e=0.8)
        assert h_zero(st, fields) == pytest.approx(st.m * b_kinetic(st, fields), rel=1e-14)


class TestEffectiveMass:
    def test_free(self):
        st = PhaseState(np.ones(3), np.zeros(3), m=2.0)
        assert effective_mass_tilde(st, FREE) == pytest.approx(2.0)

    def test_v_equals_h0(self):
        st = PhaseState(np.ones(3), np.zeros(3), m=1.0)
        conf = FieldConfiguration(scalar=lambda x: 1.0, grad_scalar=lambda x: np.zeros(3))
        assert effective_mass_tilde(st, conf) == pytest.approx(0.5, rel=1e-14)

    def test_pole(self):
        st = PhaseState(np.ones(3), np.zeros(3), m=1.0)
        conf = FieldConfiguration(scalar=lambda x: -1.0, grad_scalar=lambda x: np.zeros(3))
        with pytest.raises(RenormalizationPoleError):
            effective_mass_tilde(st, conf)


class TestHamiltonRhs:
    def test_free_motion(self):
        st = PhaseState(np.zeros(3), np.array([0.4, 0, 0]), m=2.0)
        dx, dp = hamilton_rhs(st, FREE)
        np.testing.assert_allclose(dx, st.p / st.m, rtol=1e-15)
        np.testing.assert_allclose(dp, np.zeros(3), atol=1e-15)

    def test_matches_fd_gradient_with_second_order_convergence(self):
        fields = uniform_b_fields()
        ratios = []
        for _ in range(20):
            x = RNG.normal(size=3) + np.array([2.5, 0, 0])
            p = RNG.normal(size=3)
            st = PhaseState(x, p, m=1.0, e=0.8)
            dx, dp = hamilton_rhs(st, fields)
            e_h = e_h2 = 0.0
            for h, which in ((1e-3, 0), (5e-4, 1)):
                fdx, fdp = grad_K_fd(st, fields, h)
                err = max(np.max(np.abs(dx - fdx)), np.max(np.abs(dp - fdp)))
                if which == 0:
                    e_h = err
                else:
                    e_h2 = err
            if e_h2 > 1e-12:  # keep Richardson ratio away from the roundoff floor
                ratios.append(e_h / e_h2)
        assert np.median(ratios) == pytest.approx(4.0, abs=0.2)

    def test_coulomb_force_is_central(self):
        st = PhaseState(np.array([2.0, 0, 0]), np.array([0.1, 0, 0]), m=1.0)
        _, dp = hamilton_rhs(st, COULOMB)
        assert abs(dp[1]) < 1e-15 and abs(dp[2]) < 1e-15


class TestForceForm:
    def test_free_new_term_vanishes(self):
        st = PhaseState(np.ones(3), np.array([0.5, 0, 0]), m=1.0)
        force = propertime_force(st, FREE)
        np.testing.assert_allclose(force.radial_correction, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(force.total, np.zeros(3), atol=1e-15)

    def test_decomposition_sums_to_total(self):
        fields = uniform_b_fields()
        for _ in range(50):
            x = RNG.normal(size=3) + np.array([2.5, 0, 0])
            p = RNG.normal(size=3)
            st = PhaseState(x, p, m=1.0, e=0.8)
            force = propertime_force(st, fields)
            np.testing.assert_allclose(
                force.total,
                force.electric + force.magnetic + force.radial_correction,
                rtol=1e-10,
                atol=1e-12,
            )

    def test_slow_coulomb_total_matches_corrected_newton(self):
        # with |p| << mc and weak V the full force approaches -grad V (1 + V/mc^2)
        st = PhaseState(np.array([50.0, 0, 0]), np.array([0.0, 1e-3, 0]), m=1.0)
        force = propertime_force(st, COULOMB)
        V = -1.0 / 50.0
        expected = (1.0 / 50.0**2) * (1.0 + V) * np.array([-1.0, 0, 0])
        np.testing.assert_allclose(force.total, expected, rtol=1e-3)

    @pytest.mark.parametrize("fields, e", [(COULOMB, 0.0), (uniform_b_fields(), 0.8)])
    def test_fields_equal_their_defining_formulas(self, fields, e):
        # each piece rebuilt from the public functions, bit for bit
        rng = np.random.default_rng(5)
        for _ in range(50):
            st = PhaseState(rng.normal(size=3) + np.array([2.5, 0, 0]), rng.normal(size=3),
                            m=1.2, e=e)
            force = propertime_force(st, fields)
            c, b = st.units.c, b_kinetic(st, fields)
            u, dp = hamilton_rhs(st, fields)
            grad_V = fields.grad_V(st.x)
            dA = fields.jac_A(st.x) @ u if fields.vector is not None else np.zeros(3)
            np.testing.assert_array_equal(force.total, (c / b) * (dp - (e / c) * dA))
            np.testing.assert_array_equal(force.electric, -grad_V)
            np.testing.assert_array_equal(force.magnetic, (e / b) * np.cross(u, fields.B(st.x)))
            np.testing.assert_array_equal(
                force.radial_correction, -grad_V * fields.V(st.x) / (st.m * c * b)
            )

    def test_one_field_evaluation_per_call(self):
        calls = {"V": 0, "grad_V": 0, "jac_A": 0, "B": 0}

        def counted(name, f):
            def wrapper(x):
                calls[name] += 1
                return f(x)
            return wrapper

        base = uniform_b_fields()
        fields = FieldConfiguration(
            scalar=counted("V", base.scalar),
            vector=base.vector,
            grad_scalar=counted("grad_V", base.grad_scalar),
            curl_vector=counted("B", base.curl_vector),
            jac_vector=counted("jac_A", base.jac_vector),
        )
        propertime_force(PhaseState([2.0, 0.5, 0.1], [0.1, 0.6, 0.0], m=1.0, e=0.8), fields)
        assert calls == {"V": 1, "grad_V": 1, "jac_A": 1, "B": 1}

    def test_force_balances_at_critical_radius(self):
        st = PhaseState(np.array([1.0, 0, 0]), np.zeros(3), m=1.0)
        _, dp = approximate_rhs(st, COULOMB)
        np.testing.assert_allclose(dp, np.zeros(3), atol=1e-15)

    def test_repulsive_inside_critical_radius(self):
        st = PhaseState(np.array([0.5, 0, 0]), np.zeros(3), m=1.0)
        _, dp = approximate_rhs(st, COULOMB)
        assert dp[0] > 0.0  # points outward


class TestCriticalRadius:
    def test_natural_units(self):
        assert coulomb_critical_radius(1.0, 1.0) == pytest.approx(1.0, rel=1e-10)

    def test_mass_scaling(self):
        assert coulomb_critical_radius(2.0, 1.0) == pytest.approx(0.5, rel=1e-10)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            coulomb_critical_radius(-1.0, 1.0)

    @pytest.mark.parametrize("m, e", [(0.0, 1.0), (1.0, 0.0), (1.0, -2.0), (math.inf, 1.0),
                                      (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)])
    def test_rejects_non_positive_or_non_finite(self, m, e):
        with pytest.raises(DomainError):
            coulomb_critical_radius(m, e)

    def test_matches_root_finder(self):
        rng = np.random.default_rng(41)
        for units in (UnitSystem(), UnitSystem(c=299792458.0)):
            for m, e in 10.0 ** rng.uniform(-30, 30, size=(200, 2)):
                expected = coulomb_critical_radius_brentq(m, e, units.c)
                assert coulomb_critical_radius(m, e, units) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("m, e, expected", [(1.0, 1e-320, 0.0), (1.7e308, 2.0, 4.0 / 1.7e308)])
    def test_extreme_inputs_return_the_closed_form(self, m, e, expected):
        # the bracketed root finder fails on both: its xtol underflows to 0 at
        # the first, and it does not converge in 100 iterations at the second
        assert coulomb_critical_radius(m, e) == expected


def vector_potential_fields(b_z=0.7, k=0.3):
    """Softened Coulomb V and a uniform-B vector potential with no analytic
    derivatives, so grad_V, jac_A and B all run the central differences."""
    return FieldConfiguration(
        scalar=lambda x: -k / math.sqrt(x @ x + 0.1),
        vector=lambda x: 0.5 * b_z * np.array([-x[1], x[0], 0.0]),
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda st: integrate_orbit(st, FREE, float("nan"), 10),
        lambda st: integrate_orbit(st, FREE, math.inf, 10),
        lambda st: integrate_orbit(st, FREE, 0.0, 10),
        lambda st: integrate_orbit(st, FREE, -0.1, 10),
        lambda st: integrate_orbit(st, FREE, 0.1, -5),
        lambda st: integrate_orbit(st, FREE, 0.1, 10, record_every=0),
        lambda st: integrate_orbit(st, FREE, 0.1, 10, record_every=-1),
        lambda st: free_flight(ParticleSystem.random(2, RNG), float("nan"), 10),
        lambda st: free_flight(ParticleSystem.random(2, RNG), math.inf, 10),
        lambda st: free_flight(ParticleSystem.random(2, RNG), -0.1, 10),
        lambda st: free_flight(ParticleSystem.random(2, RNG), 0.1, -1),
    ],
    ids=["orbit-nan-dtau", "orbit-inf-dtau", "orbit-zero-dtau", "orbit-negative-dtau",
         "orbit-negative-steps", "orbit-record-every-0", "orbit-record-every-negative",
         "flight-nan-dtau", "flight-inf-dtau", "flight-negative-dtau", "flight-negative-steps"],
)
def test_trajectory_arguments_checked(call):
    with pytest.raises(DomainError):
        call(PhaseState([1.0, 0.0, 0.0], [0.0, 0.5, 0.0], m=1.0))


@pytest.mark.parametrize("fields, e", [(COULOMB, 0.0), (vector_potential_fields(), 0.8)])
def test_recorded_K_H_b_equal_their_functions(fields, e):
    st = PhaseState([1.0, 0.2, 0.1], [0.1, 0.6, 0.05], m=1.3, e=e)
    traj = integrate_orbit(st, fields, 0.01, 120, record_every=7)
    for i in range(traj.tau.size):
        rec = PhaseState(traj.x[i], traj.p[i], m=st.m, e=e, tau=traj.tau[i])
        assert traj.K[i] == canonical_K(rec, fields)
        assert traj.H[i] == hamiltonian_H(rec, fields)
        assert traj.b[i] == b_kinetic(rec, fields)


def test_one_vector_potential_jacobian_per_rhs():
    # A once for pi, six central differences for jac_A; B reuses that Jacobian
    base = vector_potential_fields()
    calls = []
    fields = FieldConfiguration(
        scalar=base.scalar, vector=lambda x: calls.append(1) or base.vector(x)
    )
    hamilton_rhs(PhaseState([1.0, 0.2, 0.1], [0.1, 0.6, 0.05], m=1.3, e=0.8), fields)
    assert len(calls) == 7


def test_jacobian_of_absent_vector_potential_is_zero():
    np.testing.assert_array_equal(COULOMB.jac_A([1.0, 2.0, 3.0]), np.zeros((3, 3)))


def test_magnetic_terms_equal_np_cross_bit_for_bit(monkeypatch):
    fields = vector_potential_fields()
    rng = np.random.default_rng(23)
    states = [PhaseState(rng.normal(size=3), rng.normal(size=3), m=1.3, e=0.8) for _ in range(50)]

    def evaluate():
        return [(*hamilton_rhs(st, fields), *dataclasses.astuple(propertime_force(st, fields)))
                for st in states]

    got = evaluate()
    monkeypatch.setattr(dynamics, "_cross", np.cross)
    for values, expected in zip(got, evaluate()):
        for a, b in zip(values, expected):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("e", [0.0, 0.8])
def test_finite_difference_rhs_equals_defining_formula(e):
    # the one-Jacobian path rebuilt from the public field methods, bit for bit
    fields = vector_potential_fields()
    rng = np.random.default_rng(17)
    for _ in range(50):
        st = PhaseState(rng.normal(size=3), rng.normal(size=3), m=1.3, e=e)
        c, x = st.units.c, st.x
        pi = st.p - (e / c) * fields.A(x)
        H0 = math.sqrt(c**2 * (pi @ pi) + st.m**2 * c**4)
        V = fields.V(x)
        factor = 1.0 + V / H0
        u = factor * pi / st.m
        b = H0 / (st.m * c)
        grad_V = fields.grad_V(x)
        dA, B = fields.jac_A(x) @ u, fields.B(x)
        dp = -grad_V * (b / c) * factor + (e / c) * dA + (e / c) * np.cross(u, B)
        got_u, got_dp = hamilton_rhs(st, fields)
        np.testing.assert_array_equal(got_u, u)
        np.testing.assert_array_equal(got_dp, dp)
        force = propertime_force(st, fields)
        np.testing.assert_array_equal(force.total, (c / b) * (dp - (e / c) * dA))
        np.testing.assert_array_equal(force.electric, -grad_V)
        np.testing.assert_array_equal(force.magnetic, (e / b) * np.cross(u, B))
        np.testing.assert_array_equal(force.radial_correction, -grad_V * V / (st.m * c * b))


class TestOrbits:
    def test_free_particle_straight_line(self):
        st = PhaseState(np.array([1.0, -2.0, 0.0]), np.array([0.3, 0.4, 0.0]), m=2.0)
        traj = integrate_orbit(st, FREE, 0.05, 200)
        expected = st.x[None, :] + traj.tau[:, None] * (st.p / st.m)[None, :]
        np.testing.assert_allclose(traj.x, expected, rtol=1e-12, atol=1e-12)

    def test_k_conservation_coulomb(self):
        st = PhaseState(np.array([25.0, 0, 0]), np.array([0.0, 0.2, 0]), m=1.0)
        period = 2 * math.pi * 25.0 / 0.2
        traj = integrate_orbit(st, COULOMB, period / 2500, 10_000)
        assert traj.k_drift < 1e-8

    def test_nonrelativistic_orbit_matches_newtonian_oracle(self):
        # circular setup at |p|/mc = 0.01; second-order terms are O(1e-4)
        p0 = 0.01
        r0 = 1.0 / p0**2
        st = PhaseState(np.array([r0, 0, 0]), np.array([0.0, p0, 0]), m=1.0)
        period = 2 * math.pi * r0 / p0
        n = 4000
        traj = integrate_orbit(st, COULOMB, period / n, n)
        oracle = newtonian_orbit(
            st.x, st.p, lambda x: -x / np.linalg.norm(x) ** 3, period / n, n
        )
        rms = math.sqrt(np.mean(np.sum((traj.x - oracle) ** 2, axis=1))) / r0
        assert rms < 1e-4

    def test_radial_infall_reverses_outside_repulsive_core(self):
        # gentle release just above the critical radius; the corrected force
        # is conservative with potential V + V^2/(2 m c^2)
        start = 1.05
        traj = radial_infall()
        radii = np.linalg.norm(traj.x, axis=1)
        assert np.min(radii) > 0.9
        assert np.max(radii) <= start * (1 + 1e-9)
        # energy-conservation turning point: 21/22 for release at 21/20
        assert np.min(radii) == pytest.approx(21.0 / 22.0, rel=1e-6)


class TestMetricAndLagrangian:
    def test_metric_flat_when_free(self):
        st = PhaseState(np.ones(3), np.zeros(3), m=1.0)
        assert metric_deformation(st, FREE) == pytest.approx(1.0)

    def test_metric_quarter(self):
        conf = FieldConfiguration(scalar=lambda x: 1.0, grad_scalar=lambda x: np.zeros(3))
        st = PhaseState(np.ones(3), np.zeros(3), m=1.0)
        assert metric_deformation(st, conf) == pytest.approx(0.25, rel=1e-14)

    def test_metric_pole_flagged(self):
        conf = FieldConfiguration(scalar=lambda x: -1.0, grad_scalar=lambda x: np.zeros(3))
        st = PhaseState(np.ones(3), np.zeros(3), m=1.0)
        with pytest.raises(RenormalizationPoleError):
            metric_deformation(st, conf)

    def test_rest_free_lagrangian(self):
        assert lagrangian(np.ones(3), np.zeros(3), FREE, m=1.0) == pytest.approx(-1.0)

    def test_free_lagrangian_and_legendre(self):
        u = np.array([0.7, -0.2, 0.1])
        m = 1.4
        L = lagrangian(np.zeros(3), u, FREE, m=m)
        assert L == pytest.approx(m * (u @ u) / 2 - m, rel=1e-12)
        p = m * u
        K = canonical_K(PhaseState(np.zeros(3), p, m=m), FREE)
        assert p @ u - L == pytest.approx(K, rel=1e-12)

    def test_legendre_consistency_coulomb(self):
        for _ in range(50):
            x = RNG.normal(size=3) + np.array([3.0, 0, 0])
            p = RNG.normal(size=3)
            st = PhaseState(x, p, m=1.0)
            mt = effective_mass_tilde(st, COULOMB)
            u = kinetic_momentum(st, COULOMB) / mt
            L = lagrangian(x, u, COULOMB, m=1.0)
            K = canonical_K(st, COULOMB)
            assert st.p @ u - L == pytest.approx(K, rel=1e-10)

    def test_legendre_consistency_with_vector_potential(self):
        # u from hamilton_rhs; L carries the (e/c) A.u term and p the (e/c) A
        fields = vector_potential_fields()
        rng = np.random.default_rng(31)
        for _ in range(200):
            st = PhaseState(rng.normal(size=3), rng.normal(size=3), m=1.3, e=0.8)
            u, _ = hamilton_rhs(st, fields)
            L = lagrangian(st.x, u, fields, m=st.m, e=st.e)
            assert st.p @ u - L == pytest.approx(canonical_K(st, fields), rel=1e-13)

    def test_lagrangian_pole_at_rest(self):
        # V = -mc^2 at u = 0: the renormalized mass diverges
        with pytest.raises(RenormalizationPoleError, match="zero velocity"):
            lagrangian([1.0, 0, 0], np.zeros(3), COULOMB, m=1.0)

    @pytest.mark.parametrize("strength, speed", [(2.0, 1e-30), (-1e13, 0.1)],
                             ids=["none-below-upper-bound", "lower-bound-too-heavy"])
    def test_no_consistent_renormalized_mass(self, strength, speed):
        # V = -2mc^2 at |u| = 1e-30: m_tilde (1 + V/(m c b)) stays below m up to
        # 2^60 times the first upper bound; V = 1e13 mc^2: it exceeds m already
        # at the lower bound 1e-12 m
        with pytest.raises(RenormalizationPoleError, match="no consistent"):
            lagrangian([1.0, 0, 0], [speed, 0, 0], FieldConfiguration.coulomb(strength), m=1.0)


class TestTimeReversal:
    def test_k_even_and_clock_flips(self):
        st = PhaseState(np.zeros(3), np.array([0.6, -0.1, 0.2]), m=1.0)
        rec = time_reversal_check(st)
        assert rec.k_momentum_reversed == pytest.approx(rec.k_value, rel=1e-15)
        assert rec.k_energy_flipped == pytest.approx(rec.k_value, rel=1e-15)
        assert rec.dtau_dt > 0.0
        assert rec.dtau_dt_energy_flipped == pytest.approx(-rec.dtau_dt, rel=1e-15)
        assert rec.k_value > 0.0

    def test_rejects_vector_potential(self):
        with pytest.raises(DomainError, match="A = 0"):
            time_reversal_check(PhaseState(np.ones(3), np.zeros(3), m=1.0),
                                vector_potential_fields())


class TestBracketChain:
    def test_k_bracket_is_rescaled_h_bracket(self):
        # {K, W} = (H / m c^2) {H, W} for any observable
        fields = uniform_b_fields()
        m, e = 1.0, 0.8
        x = np.array([1.5, -0.4, 0.8])
        p = np.array([0.6, 0.3, -0.2])
        H_val = hamiltonian_H(PhaseState(x, p, m, e), fields)

        def K_fn(xs, ps):
            return canonical_K(PhaseState(xs, ps, m, e), fields)

        def H_fn(xs, ps):
            return hamiltonian_H(PhaseState(xs, ps, m, e), fields)

        observables = [
            lambda xs, ps: xs[0],
            lambda xs, ps: ps[0],
            lambda xs, ps: float(xs @ ps),
        ]
        for W in observables:
            lhs = bracket_fd(K_fn, W, x, p)
            rhs = H_val * bracket_fd(H_fn, W, x, p)
            assert lhs == pytest.approx(rhs, abs=1e-6)


# ------------------------------------------------ plain-float and generic routes
# integrate_orbit runs hamilton_rhs on free() and coulomb() fields as one
# plain-float RK4 step per call; the same potentials rebuilt from their public
# callables go through the generic RK4 over hamilton_rhs, which stays the reference.


@pytest.fixture
def count_states(monkeypatch):
    """count_states(call) -> (call(), PhaseState constructions during the call)."""
    made = []
    init = PhaseState.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PhaseState, "__init__", counting_init)

    def run(call):
        before = len(made)
        result = call()
        return result, len(made) - before

    return run


def generic(fields):
    return FieldConfiguration(scalar=fields.scalar, grad_scalar=fields.grad_scalar)


def assert_records_equal_their_functions(traj, st, fields):
    for i in range(traj.tau.size):
        rec = PhaseState(traj.x[i], traj.p[i], m=st.m, e=st.e, tau=traj.tau[i], units=st.units)
        assert traj.K[i] == canonical_K(rec, fields)
        assert traj.H[i] == hamiltonian_H(rec, fields)
        assert traj.b[i] == b_kinetic(rec, fields)


@pytest.mark.parametrize(
    "fields, st, dtau, n_steps, record_every",
    [
        (COULOMB, PhaseState([25.0, 0, 0], [0.0, 0.2, 0.0], m=1.0),
         2 * math.pi * 25.0 / 0.2 / 2500, 3000, 1),
        (FieldConfiguration.coulomb(0.7),
         PhaseState([3.0, 1.0, -0.5], [0.1, 0.9, 0.2], m=1.3, e=-0.4, tau=-4.0,
                    units=UnitSystem(c=2.5)), 0.01, 500, 7),
        (FREE, PhaseState([1.0, -2.0, 0.5], [0.3, 0.4, -0.2], m=2.0), 0.05, 200, 1),
        (FREE, PhaseState([0.0, 0.0, 0.0], [0.3, -2.0, 0.1], m=0.7, tau=1.5,
                          units=UnitSystem(c=3.0)), 0.05, 101, 10),
        (COULOMB, PhaseState([2.0, 0.0, 0.0], [0.0, 0.6, 0.0], m=1.0, tau=2.0), 0.1, 0, 1),
    ],
    ids=["coulomb", "coulomb-c2.5-tau-every7", "free", "free-origin-c3-tau-every10",
         "zero-steps"],
)
def test_plain_route_matches_generic_route(count_states, fields, st, dtau, n_steps,
                                           record_every):
    fast, made = count_states(
        lambda: integrate_orbit(st, fields, dtau, n_steps, record_every=record_every))
    # every step on plain floats, none redone through the generic right-hand
    # side: the free orbit from the origin never divides by |x|
    assert made == 0
    slow, made = count_states(
        lambda: integrate_orbit(st, generic(fields), dtau, n_steps, record_every=record_every))
    assert made == 4 * n_steps  # one state per evaluation, none per record
    np.testing.assert_array_equal(fast.tau, slow.tau)
    records = 1 + n_steps // record_every + (n_steps % record_every != 0)
    assert fast.x.shape == slow.x.shape == (records, 3)
    norm = np.linalg.norm
    assert np.all(norm(fast.x - slow.x, axis=1) <= 1e-12 * (1.0 + norm(slow.x, axis=1)))
    assert np.all(norm(fast.p - slow.p, axis=1) <= 1e-12 * (1.0 + norm(slow.p, axis=1)))
    assert abs(fast.k_drift - slow.k_drift) <= 1e-13
    assert_records_equal_their_functions(fast, st, fields)
    assert_records_equal_their_functions(slow, st, fields)


def test_free_plain_route_is_the_generic_route_bit_for_bit():
    # V = 0 makes the renormalization factor exactly 1, so the dot product,
    # the one operation the routes round differently, drops out of x and p
    st = PhaseState([0.0, 0.0, 0.0], [0.3, -2.0, 0.1], m=0.7)
    fast = integrate_orbit(st, FREE, 0.05, 300)
    slow = integrate_orbit(st, generic(FREE), 0.05, 300)
    np.testing.assert_array_equal(fast.x, slow.x)
    np.testing.assert_array_equal(fast.p, slow.p)


def sweep_orbits(count=320, seed=12):
    """Seeded free and Coulomb orbits with record_every 1 to 8; the Coulomb
    ones start 2 to 50 from the centre, some of them falling in close."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        m, every, n_steps = rng.uniform(0.5, 2.0), int(rng.integers(1, 9)), int(rng.integers(60, 241))
        direction = rng.normal(size=(2, 3))
        if i % 3 == 2:
            st = PhaseState(5.0 * direction[0], direction[1], m=m)
            yield st, FREE, rng.uniform(0.01, 0.1), n_steps, every
            continue
        strength, r = rng.uniform(0.5, 2.0), rng.uniform(2.0, 50.0)
        speed = math.sqrt(strength / (m * r)) * rng.uniform(0.3, 1.3)
        period = 2.0 * math.pi * r / speed
        st = PhaseState(r * direction[0] / np.linalg.norm(direction[0]),
                        m * speed * direction[1] / np.linalg.norm(direction[1]), m=m)
        yield (st, FieldConfiguration.coulomb(strength), period * rng.uniform(0.2, 0.6) / n_steps,
               n_steps, every)


def test_records_equal_their_functions_over_many_orbits():
    # every recorded K, H and b, bit for bit, on 320 orbits: close approaches,
    # record_every 1 to 8, and a last record off the stride
    records = 0
    for st, fields, dtau, n_steps, every in sweep_orbits():
        traj = integrate_orbit(st, fields, dtau, n_steps, record_every=every)
        assert_records_equal_their_functions(traj, st, fields)
        records += traj.tau.size
    assert records > 9000


def test_sweep_stays_on_the_plain_route_and_free_orbits_are_the_generic_ones(count_states):
    # no orbit of the sweep hands a step over, close approaches included; a
    # whole Coulomb orbit is not compared, since an RK4 run amplifies the
    # step's rounding (close approaches end up to 2e-7 of the largest |x| apart)
    free = 0
    for st, fields, dtau, n_steps, every in sweep_orbits():
        fast, made = count_states(
            lambda: integrate_orbit(st, fields, dtau, n_steps, record_every=every))
        assert made == 0
        if fields is FREE:
            slow = integrate_orbit(st, generic(FREE), dtau, n_steps, record_every=every)
            np.testing.assert_array_equal(fast.x, slow.x)
            np.testing.assert_array_equal(fast.p, slow.p)
            free += 1
    assert free > 100


def test_one_plain_coulomb_step_is_the_generic_step_to_rounding(count_states):
    # the plain step regroups hamilton_rhs's arithmetic, so it rounds apart
    # from the generic step; on 4,000 states from half the critical radius
    # s/(m c^2) to 100 times it, x and p agree within 1e-14 of |x| and |p|
    rng = np.random.default_rng(3)
    worst, made = 0.0, 0
    for i in range(4000):
        c = (1.0, 2.5)[i % 2]
        m, strength = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        r = strength / (m * c * c) * math.exp(rng.uniform(math.log(0.5), math.log(100.0)))
        circular = math.sqrt(strength / (m * r))
        speed = circular * rng.uniform(0.0, 2.0)
        direction = rng.normal(size=(2, 3))
        st = PhaseState(r * direction[0] / np.linalg.norm(direction[0]),
                        m * speed * direction[1] / np.linalg.norm(direction[1]),
                        m=m, units=UnitSystem(c=c))
        dtau = rng.uniform(1e-4, 0.05) * r / max(speed, circular)
        fields = FieldConfiguration.coulomb(strength)
        fast, states = count_states(lambda: integrate_orbit(st, fields, dtau, 1))
        slow = integrate_orbit(st, generic(fields), dtau, 1)
        made += states
        worst = max(worst,
                    np.linalg.norm(fast.x[1] - slow.x[1]) / np.linalg.norm(slow.x[1]),
                    np.linalg.norm(fast.p[1] - slow.p[1]) / np.linalg.norm(slow.p[1]))
    assert made == 0
    assert 0.0 < worst <= 1e-14


def test_generator_values_round_alike_on_floats_and_arrays():
    # the record pass runs the scalar functions' formula on arrays.  About 1 in
    # 1,200 floats has V**2 != V * V (pow against a product), and near H = 0 the
    # V**2 term outweighs K, so 50,000 such rows show a formula that rounds apart
    rng = np.random.default_rng(5)
    m, c = 1.3, 1.0
    V = -rng.uniform(0.5, 40.0, 50_000)
    pp = ((rng.uniform(0.5, 2.0, V.size) - V) ** 2 - m**2 * c**4) / c**2
    H0 = np.sqrt(c**2 * pp + m**2 * c**4)
    rows = np.column_stack(dynamics._generator_values_at(pp, H0, V, m, c))
    for row, args in zip(rows, zip(pp, H0.tolist(), V.tolist())):
        assert tuple(row) == dynamics._generator_values_at(*args, m, c)


def test_records_call_no_scalar_on_free_and_coulomb(count_states):
    # the array pass evaluates V for all records at once; a replace() copy
    # drops it and calls the scalar once per record, besides once per
    # right-hand side on the generic route, which makes one state for each
    st = PhaseState([3.0, 0.5, 0.0], [0.0, 0.5, 0.1], m=1.2)
    records = 1 + 90 // 4 + 1
    for fields in (FieldConfiguration.free(), FieldConfiguration.coulomb(0.8)):
        calls, scalar = [], fields.scalar
        object.__setattr__(fields, "scalar", lambda x: calls.append(1) or scalar(x))
        traj, made = count_states(lambda: integrate_orbit(st, fields, 0.01, 90, record_every=4))
        assert (traj.tau.size, len(calls), made) == (records, 0, 0)
        _, made = count_states(
            lambda: integrate_orbit(st, dataclasses.replace(fields), 0.01, 90, record_every=4))
        assert (len(calls), made) == (4 * 90 + records, 4 * 90)


def digest(traj):
    h = hashlib.sha256()
    for column in (traj.tau, traj.x, traj.p, traj.K, traj.H, traj.b):
        h.update(np.ascontiguousarray(column, dtype=float).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize(
    "st, fields, dtau, n_steps, options, expected",
    [
        (PhaseState([1.05, 0, 0], [0.0, 0.1, 0.0], m=1.0), COULOMB, 0.002, 500,
         {"rhs": approximate_rhs}, "0d16bd51a02b1263"),
        (PhaseState([2.0, 0.3, 0.1], [0.1, 0.5, 0.05], m=1.3, e=0.8),
         dataclasses.replace(COULOMB, vector=lambda x: 0.35 * np.array([-x[1], x[0], 0.0])),
         0.01, 200, {"record_every": 3}, "e8db62beec3c88a0"),
        (PhaseState([25.0, 0, 0], [0.0, 0.2, 0.0], m=1.0, tau=3.0), generic(COULOMB), 0.25, 400,
         {"record_every": 7}, "b686269c2adc8cb6"),
    ],
    ids=["approximate-rhs", "replaced-with-vector", "hand-built"],
)
def test_other_orbits_take_the_unchanged_generic_route(count_states, st, fields, dtau, n_steps,
                                                       options, expected):
    # the digests are of the object route's output from before the plain-float
    # route existed: these orbits go through the generic right-hand side, and
    # it still gives the same bits
    traj, made = count_states(lambda: integrate_orbit(st, fields, dtau, n_steps, **options))
    assert digest(traj) == expected
    assert made == 4 * n_steps


@pytest.mark.parametrize("name, value", [
    ("vector", lambda x: 0.35 * np.array([-x[1], x[0], 0.0])),
    ("scalar", lambda x: -2.0 / math.sqrt(x @ x)),
    ("grad_scalar", lambda x: 2.0 * x / math.sqrt(x @ x) ** 3),
], ids=["vector", "scalar", "grad_scalar"])
def test_fields_cannot_change_in_place(count_states, name, value):
    # the plain step is coulomb(1)'s: a field can only change in a copy, and
    # replace() leaves the plain step behind
    fields = FieldConfiguration.coulomb(1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(fields, name, value)
    st = PhaseState([2.0, 0.3, 0.1], [0.1, 0.5, 0.05], m=1.3, e=0.8)
    _, made = count_states(
        lambda: integrate_orbit(st, dataclasses.replace(fields, **{name: value}), 0.01, 50))
    assert made == 4 * 50


ORIGIN = PhaseState([0.0, 0.0, 0.0], [0.1, 0.0, 0.0], m=1.0)
VECTOR = dataclasses.replace(FREE, vector=lambda x: 0.35 * np.array([-x[1], x[0], 0.0]))
HALF = PhaseState([0.5, 0, 0], [0.0, 0.0, 0.0], m=1.0)


def abort(step):
    return IntegrationAbort, step


def end(st, fields, dtau, n_steps, rhs=hamilton_rhs, **errstate):
    """The digest of the finished orbit, or the exception type and IntegrationAbort step."""
    try:
        # under "warn" the first RuntimeWarning ends the orbit
        with np.errstate(**errstate), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return digest(integrate_orbit(st, fields, dtau, n_steps, rhs=rhs))
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), getattr(exc, "step", None)


# each orbit's end under np.errstate ignore, warn and raise, recorded from the
# array loop that integrate_orbit ran before its single six-scalar loop: the
# exception type and IntegrationAbort step, or the digest of a finished orbit
@pytest.mark.parametrize("errstate", ["ignore", "warn", "raise"])
@pytest.mark.parametrize(
    "fields, st, dtau, n_steps, rhs, ends",
    [
        # V divides by |x| = 0 in the first record
        (COULOMB, ORIGIN, 0.1, 5, hamilton_rhs, [(ZeroDivisionError, None)] * 3),
        # p overflows
        (COULOMB, PhaseState([1e-100, 0, 0], [0.0, 0.0, 0.0], m=1.0), 0.1, 5, hamilton_rhs,
         [abort(0), (RuntimeWarning, None), abort(0)]),
        # r**3 overflows
        (COULOMB, PhaseState([1e-30, 0, 0], [0.0, 0.0, 0.0], m=1.0), 0.1, 5, hamilton_rhs,
         [abort(0)] * 3),
        # x.x overflows
        (COULOMB, PhaseState([1e200, 0, 0], [0.0, 1.0, 0.0], m=1.0), 0.1, 5, hamilton_rhs,
         ["9ea30f19c83f4dfb", (RuntimeWarning, None), (FloatingPointError, None)]),
        # x overflows at step 7
        (FREE, PhaseState([1e308, 0, 0], [1.0, 0.0, 0.0], m=1.0), 1e307, 20, hamilton_rhs,
         [abort(7), (RuntimeWarning, None), abort(7)]),
        # the plain-float finiteness test sums x and p, which overflows at step
        # 9; the generic RK4 redoes that step and finishes the orbit
        (FREE, PhaseState([8e307, 8e307, 0], [1.0, 1.0, 0.0], m=1.0), 1e306, 20, hamilton_rhs,
         ["91a76f41da377f87"] * 3),
        # p overflows in the weak-coupling force
        (COULOMB, PhaseState([1e-100, 0, 0], [0.0, 0.0, 0.0], m=1.0), 0.1, 5, approximate_rhs,
         ["1d7e52e880fa3fc3", (RuntimeWarning, None), abort(0)]),
        # pi.pi overflows at step 1 in a uniform magnetic field
        (VECTOR, PhaseState([3.0, 0, 0], [0.0, 1e152, 0.0], m=1.0, e=0.8), 10.0, 20,
         hamilton_rhs, [abort(1), (RuntimeWarning, None), abort(1)]),
        # each case below stops the first plain step at one of its guards, so
        # the generic RK4 runs the whole orbit on both routes
        # free: pi.pi reaches _DOT_MAX
        (FREE, PhaseState([0.0, 0, 0], [1e151, 0.0, 0.0], m=1.0), 1.0, 5, hamilton_rhs,
         ["1340c102f2d1a1c8"] * 3),
        # free: b = H0/(m c) overflows
        (FREE, PhaseState([0.0, 0, 0], [1e10, 0.0, 0.0], m=1e-300), 0.1, 5, hamilton_rhs,
         [abort(0), (RuntimeWarning, None), (FloatingPointError, None)]),
        # free: b/c overflows while u = p/m does not, so only this guard stops
        # the plain step, and hamilton_rhs's dp/dtau = -0 * b/c is nan
        (FREE, PhaseState([0.0, 0, 0], [5e149, 0.0, 0.0], m=1.0, units=UnitSystem(c=1e-160)),
         0.1, 5, hamilton_rhs, [abort(0), (RuntimeWarning, None), abort(0)]),
        # Coulomb poles at stages 1 to 4: V = -H0 at rest at r = 1, and from rest
        # at r = 1/2 after the dtau that brings the stage onto the pole
        (COULOMB, PhaseState([1.0, 0, 0], [0.0, 0.0, 0.0], m=1.0), 0.1, 5, hamilton_rhs,
         [abort(0)] * 3),
        # r H0 = 1 to rounding, and a dtau so long that stage 2 is far off the pole
        (COULOMB, PhaseState([0.7071067811865476, 0, 0], [0.0, 1.0, 0.0], m=1.0), 1e13, 5,
         hamilton_rhs, [abort(0)] * 3),
        (COULOMB, HALF, 0.8660254037844365, 5, hamilton_rhs, [abort(0)] * 3),
        (COULOMB, HALF, 1.109806036314047, 5, hamilton_rhs, [abort(0)] * 3),
        (COULOMB, HALF, 0.7225373595759974, 5, hamilton_rhs, [abort(0)] * 3),
        # Coulomb: x.x or pi.pi reaches _DOT_MAX at stage 3 and at stage 4
        (COULOMB, PhaseState([1e55, 0, 0], [0.0, 0.0, 0.0], m=1.0), 1e142, 5, hamilton_rhs,
         ["d1f6f5820ae6cace", (RuntimeWarning, None), abort(0)]),
        (COULOMB, PhaseState([1e-20, 0, 0], [0.0, 0.0, 0.0], m=1.0), 1e19, 5, hamilton_rhs,
         ["66b0a51870cd2532", (RuntimeWarning, None), abort(0)]),
        # Coulomb: only the stage-3 dot check hands this step over; without it
        # the plain step finishes it and the raise end is a FloatingPointError
        (COULOMB, PhaseState([1e-40, 0, 0], [0.0, 1e-20, 0.0], m=1.0), 1e20, 5, hamilton_rhs,
         ["c7a40a7f934f7119", (RuntimeWarning, None), abort(0)]),
    ],
    ids=["origin", "momentum-overflow", "radius-cubed", "far", "free-position-overflow",
         "hand-over-midway", "approximate-rhs", "vector", "free-momentum-dot",
         "free-b-overflow", "free-b-over-c-overflow", "pole-stage-1", "pole-stage-1-only",
         "pole-stage-2", "pole-stage-3", "pole-stage-4", "dot-stage-3", "dot-stage-4",
         "dot-stage-3-only"],
)
def test_hard_orbits_end_alike_on_both_routes(fields, st, dtau, n_steps, rhs, ends, errstate):
    # underflow ignored, numpy's default, keeps the plain route and its checks in play
    errstates = {"all": errstate, "under": "ignore"}
    expected = ends[["ignore", "warn", "raise"].index(errstate)]
    # replace() keeps every callable and drops the plain-float step
    assert (end(st, fields, dtau, n_steps, rhs, **errstates)
            == end(st, dataclasses.replace(fields), dtau, n_steps, rhs, **errstates) == expected)


def routes_end(st, fields, dtau, n_steps, errstate):
    """The end both routes share under np.errstate(all=errstate): the plain config
    and its replace() copy must end alike, and a finished free orbit bit for bit."""
    ends = [end(st, conf, dtau, n_steps, all=errstate)
            for conf in (fields, dataclasses.replace(fields))]
    if fields._plain_step is not dynamics._free_plain_step:  # Coulomb routes round apart
        ends = ["finished" if isinstance(e, str) else e for e in ends]
    assert ends[0] == ends[1]
    return ends[0]


@pytest.mark.parametrize("errstate", ["ignore", "warn", "raise"])
@pytest.mark.parametrize("fields, st, dtau, ends", [
    (FREE, PhaseState([1.0, 0, 0], [1.0, 1e-300, 0.0], m=1e10), 1e10,
     ["8fd734654293ad78", (RuntimeWarning, None), abort(0)]),
    (COULOMB, PhaseState([5.0, 0, 0], [0.0, 0.3, 1e-300], m=1e10), 1.0,
     ["finished", (RuntimeWarning, None), abort(0)]),
], ids=["free", "coulomb"])
def test_underflow_setting_holds_on_both_routes(fields, st, dtau, ends, errstate):
    # p/m underflows in step 0: Python floats never signal it, so only while
    # numpy ignores underflow may the plain route take the step
    expected = ends[["ignore", "warn", "raise"].index(errstate)]
    assert routes_end(st, fields, dtau, 5, errstate) == expected


def extreme_orbits(count=200, seed=2):
    """Seeded free and Coulomb orbits over the float range: components zero of
    either sign or of magnitude 1e-3 to 1e3, m from 1e-12 to 1e12, c, dtau and
    |strength| from 1e-3 to 1e3; one nonzero draw in four spans 1e-320 to 1e300."""
    rng = np.random.default_rng(seed)

    def scale(k):
        return 10.0 ** rng.uniform(*((-320, 300) if rng.integers(4) == 0 else (-k, k)))

    def component():
        if rng.integers(6) == 0:
            return (0.0, -0.0)[rng.integers(2)]
        return (-1.0) ** rng.integers(2) * scale(3)

    for i in range(count):
        st = PhaseState([component() for _ in range(3)], [component() for _ in range(3)],
                        m=scale(12), units=UnitSystem(c=scale(3)))
        dtau = scale(3)
        fields = (FieldConfiguration.free() if i % 2 == 0
                  else FieldConfiguration.coulomb((-1.0) ** rng.integers(2) * scale(3)))
        yield st, fields, dtau


@pytest.mark.parametrize("errstate", ["ignore", "warn", "raise"])
def test_extreme_orbits_end_alike_on_both_routes(errstate):
    # 4 steps each: the plain route hands a failing step over, and under warn
    # and raise gives way, so each orbit ends as its generic copy does
    ends = [routes_end(st, fields, dtau, 4, errstate) for st, fields, dtau in extreme_orbits()]
    assert sum(isinstance(e, str) for e in ends) > 60  # finished orbits
