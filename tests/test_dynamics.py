import math

import numpy as np
import pytest

from oracles import newtonian_orbit
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
from propertime.errors import DomainError, RenormalizationPoleError
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
        lambda st: integrate_orbit(st, FREE, 0.0, 10),
        lambda st: integrate_orbit(st, FREE, -0.1, 10),
        lambda st: integrate_orbit(st, FREE, 0.1, -5),
        lambda st: integrate_orbit(st, FREE, 0.1, 10, record_every=0),
        lambda st: integrate_orbit(st, FREE, 0.1, 10, record_every=-1),
        lambda st: free_flight(ParticleSystem.random(2, RNG), float("nan"), 10),
        lambda st: free_flight(ParticleSystem.random(2, RNG), -0.1, 10),
        lambda st: free_flight(ParticleSystem.random(2, RNG), 0.1, -1),
    ],
    ids=["orbit-nan-dtau", "orbit-zero-dtau", "orbit-negative-dtau", "orbit-negative-steps",
         "orbit-record-every-0", "orbit-record-every-negative", "flight-nan-dtau",
         "flight-negative-dtau", "flight-negative-steps"],
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
        st = PhaseState(np.array([start, 0, 0]), np.zeros(3), m=1.0)
        traj = integrate_orbit(st, COULOMB, 0.002, 40_000, rhs=approximate_rhs)
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


class TestTimeReversal:
    def test_k_even_and_clock_flips(self):
        st = PhaseState(np.zeros(3), np.array([0.6, -0.1, 0.2]), m=1.0)
        rec = time_reversal_check(st)
        assert rec.k_momentum_reversed == pytest.approx(rec.k_value, rel=1e-15)
        assert rec.k_energy_flipped == pytest.approx(rec.k_value, rel=1e-15)
        assert rec.dtau_dt > 0.0
        assert rec.dtau_dt_energy_flipped == pytest.approx(-rec.dtau_dt, rel=1e-15)
        assert rec.k_value > 0.0


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
