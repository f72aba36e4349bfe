import tracemalloc

import numpy as np
import pytest

from oracles import _exact_gradient, _observable_table, bracket_by_components
from propertime import many
from propertime.errors import DomainError, SpacelikeSystemError
from propertime.many import (
    ParticleSystem,
    center_of_mass,
    clock_ratio,
    clock_ratio_speeds,
    cluster_split,
    evolve_observable,
    free_flight,
    generating_identity_residual,
    per_particle_speeds,
    poisson_bracket,
    system_invariants,
    verify_algebra,
)

RNG = np.random.default_rng(2024)


def single_free(p=(0.0, 0.0, 0.0), m=1.0):
    return ParticleSystem(masses=[m], xs=np.zeros((1, 3)), ps=[list(p)])


def two_body(p1, p2, m1=1.0, m2=1.0, x1=(0, 0, 0), x2=(1, 0, 0)):
    return ParticleSystem(masses=[m1, m2], xs=[list(x1), list(x2)], ps=[list(p1), list(p2)])


class TestParticleSystem:
    def test_rejects_non_positive_mass(self):
        with pytest.raises(DomainError):
            ParticleSystem(masses=[1.0, 0.0], xs=np.zeros((2, 3)), ps=np.zeros((2, 3)))

    @pytest.mark.parametrize("field", ["masses", "xs", "ps"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, field, bad):
        arrays = {"masses": np.ones(2), "xs": np.zeros((2, 3)), "ps": np.zeros((2, 3))}
        arrays[field].flat[-1] = bad
        with pytest.raises(DomainError):
            ParticleSystem(**arrays)

    def test_rejects_positions_of_the_wrong_shape(self):
        with pytest.raises(DomainError):
            ParticleSystem(masses=[1.0, 2.0], xs=np.zeros((2, 2)), ps=np.zeros((2, 3)))

    def test_arrays_are_read_only(self):
        sys = ParticleSystem.random(3, np.random.default_rng(3))
        for array in (sys.masses, sys.xs, sys.ps, system_invariants(sys).P,
                      system_invariants(sys).X, center_of_mass(sys).X0):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_caller_inputs_are_copied(self):
        masses, xs = [1.0, 2.0], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        ps = np.random.default_rng(4).normal(size=(2, 3))
        expected = system_invariants(ParticleSystem(masses=masses, xs=xs, ps=ps.copy()))
        sys = ParticleSystem(masses=masses, xs=xs, ps=ps)
        masses[0] = xs[1][0] = ps[0, 0] = 5.0
        inv = system_invariants(sys)
        assert (inv.H, inv.M) == (expected.H, expected.M)
        np.testing.assert_array_equal(inv.P, expected.P)
        np.testing.assert_array_equal(inv.X, expected.X)


class TestSystemInvariants:
    def test_single_free_particle(self):
        sys = single_free(p=(0.3, 0.0, 0.0), m=1.2)
        inv = system_invariants(sys)
        assert inv.M == pytest.approx(1.2, rel=1e-14)  # single particle: M = m
        k_single = (0.3**2) / (2 * 1.2) + 1.2
        assert inv.K == pytest.approx(k_single, rel=1e-14)

    def test_back_to_back_momenta(self):
        sys = two_body((2.0, 0, 0), (-2.0, 0, 0))
        inv = system_invariants(sys)
        np.testing.assert_allclose(inv.P, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(inv.U, np.zeros(3), atol=1e-15)
        assert inv.b == pytest.approx(1.0)
        assert inv.M == pytest.approx(inv.H, rel=1e-14)

    def test_u_dual_forms(self):
        # U = P/M must equal (1/M) sum m_i u_i with u_i = p_i / m_i
        for _ in range(30):
            sys = ParticleSystem.random(4, RNG)
            inv = system_invariants(sys)
            u_i = sys.ps / sys.masses[:, None]
            alt = np.sum(sys.masses[:, None] * u_i, axis=0) / inv.M
            np.testing.assert_allclose(alt, inv.U, rtol=1e-12)

    def test_mass_energy_mutual_consistency(self):
        for _ in range(50):
            sys = ParticleSystem.random(3, RNG)
            inv = system_invariants(sys)
            assert inv.M == pytest.approx(
                np.sqrt(inv.H**2 - inv.P @ inv.P), rel=1e-12
            )
            assert inv.H == pytest.approx(
                np.sqrt(inv.P @ inv.P + inv.M**2), rel=1e-12
            )
            assert inv.H == pytest.approx(inv.M * inv.b, rel=1e-12)

    def test_spacelike_rejected(self):
        # an interaction can push H^2 below c^2 P^2
        sys = ParticleSystem(
            masses=[1.0],
            xs=np.zeros((1, 3)),
            ps=[[5.0, 0.0, 0.0]],
            interaction=lambda xs: -4.0,
        )
        # twice: the failed derivation is not cached
        for _ in range(2):
            with pytest.raises(SpacelikeSystemError):
                system_invariants(sys)


class TestClockRatios:
    def test_single_particle_unity(self):
        assert clock_ratio(0, single_free()) == pytest.approx(1.0)

    def test_rest_particle_in_zero_momentum_system(self):
        sys = ParticleSystem(
            masses=[1.0, 1.0, 1.0],
            xs=np.zeros((3, 3)),
            ps=[[1.0, 0, 0], [-1.0, 0, 0], [0.0, 0, 0]],
        )
        assert clock_ratio(2, sys) == pytest.approx(1.0, rel=1e-14)

    def test_dual_formulas_agree(self):
        for _ in range(50):
            sys = ParticleSystem.random(3, RNG)
            for i in range(sys.n):
                assert clock_ratio(i, sys) == pytest.approx(
                    clock_ratio_speeds(i, sys), rel=1e-12
                )

    def test_index_array_equals_per_index_ratios(self):
        rng = np.random.default_rng(5)
        for n in (1, 3, 10, 30):
            sys = ParticleSystem.random(n, rng)
            per_index = [clock_ratio(i, sys) for i in range(n)]
            assert all(type(r) is float for r in per_index)
            assert np.array_equal(clock_ratio(np.arange(n), sys), per_index)


class TestPerParticleSpeeds:
    def test_zero_momentum_system_reduces_to_observer_velocities(self):
        sys = two_body((1.5, 0, 0), (-1.5, 0, 0))
        u, v, b_i = per_particle_speeds(sys)
        w = u / b_i[:, None]  # observer velocity, since c = 1
        np.testing.assert_allclose(v, w, rtol=1e-13)
        assert np.all(np.linalg.norm(v, axis=1) < 1.0)

    def test_single_particle(self):
        # n = 1: the global clock is the particle clock, so v = u (b = b_1)
        sys = single_free(p=(0.75, 0, 0))
        u, v, b_i = per_particle_speeds(sys)
        np.testing.assert_allclose(v[0], u[0], rtol=1e-14)
        assert b_i[0] == pytest.approx(system_invariants(sys).b, rel=1e-14)

    def test_boosted_system_superluminal(self):
        sys = two_body((5.0, 0, 0), (5.0, 0, 0))
        u, v, b_i = per_particle_speeds(sys)
        assert np.max(np.linalg.norm(v, axis=1)) > 1.0

    def test_speed_at_the_global_speed_rejected(self):
        # at p_i = 1e9 m_i c, b_i rounds to |u_i|, so |v_i| = b here
        sys = two_body((1e9, 0, 0), (-1e9, 0, 0))
        with pytest.raises(DomainError, match="global collaborative speed"):
            per_particle_speeds(sys)

    def test_speed_identity(self):
        for _ in range(30):
            sys = ParticleSystem.random(3, RNG)
            inv = system_invariants(sys)
            u, v, b_i = per_particle_speeds(sys)
            np.testing.assert_allclose(u / b_i[:, None], v / inv.b, rtol=1e-12)


class TestPoissonBracket:
    def test_canonical_pair(self):
        sys = ParticleSystem.random(2, RNG)
        f = lambda xs, ps: float(xs[0][0])
        g = lambda xs, ps: float(ps[0][0])
        assert poisson_bracket(f, g, sys) == pytest.approx(1.0, abs=1e-10)

    def test_rotation_acts_on_momentum(self):
        sys = ParticleSystem.random(3, RNG)
        inv = system_invariants(sys)
        J_z = lambda xs, ps: float(np.sum(np.cross(xs, ps)[:, 2]))
        P_x = lambda xs, ps: float(np.sum(ps[:, 0]))
        assert poisson_bracket(J_z, P_x, sys) == pytest.approx(inv.P[1], abs=1e-8)

    def test_antisymmetry_diagonal(self):
        sys = ParticleSystem.random(2, RNG)
        f = lambda xs, ps: float(np.sum(xs * ps) + np.sum(ps**2))
        assert poisson_bracket(f, f, sys) == pytest.approx(0.0, abs=1e-12)


def component(f, a):
    return lambda xs, ps: float(f(xs, ps)[a])


class TestVectorBrackets:
    @pytest.mark.parametrize("n", [1, 3, 10])
    @pytest.mark.parametrize("name", ["P", "J", "L"])
    def test_array_gradient_stacks_component_gradients(self, n, name):
        sys = ParticleSystem.random(n, RNG)
        f = _observable_table(sys)[name]
        gx, gp = many.phase_gradient(f, sys)
        assert gx.shape == gp.shape == (3, n, 3)
        for a in range(3):
            sx, sp = many.phase_gradient(component(f, a), sys)
            assert np.array_equal(gx[a], sx) and np.array_equal(gp[a], sp)

    @pytest.mark.parametrize("n", [1, 4])
    def test_every_pair_matches_component_brackets(self, n):
        sys = ParticleSystem.random(n, RNG)
        table = _observable_table(sys)
        grads = {name: many.phase_gradient(f, sys) for name, f in table.items()}
        for a, F in table.items():
            for b, G in table.items():
                got = many._bracket(grads[a], grads[b])
                ref = bracket_by_components(F, G, sys)
                assert got.shape == ref.shape, (a, b)
                scale = max(1.0, float(np.max(np.abs(ref))))
                assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * scale, (a, b)

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_algebra_evaluation_count(self, monkeypatch, n):
        sys = ParticleSystem.random(n, RNG)
        gradient = many._term_gradient
        calls = []

        def counted(term, system):
            return gradient(lambda xs, ps: calls.append(1) or term(xs, ps), system)

        monkeypatch.setattr(many, "_term_gradient", counted)
        verify_algebra(sys)
        # the terms of H, P, J and L: one call for all x directions, one for
        # all p, whatever n is; M and K take theirs from H and P
        assert len(calls) == 8


def fd_tolerance(f, sys):
    """Error of ``phase_gradient``'s central differences on ``f``.

    At step h = 1e-5 (1 + |q|) they round off about eps |f| / h = 2e-11 |f|;
    1e-9 |f| leaves room for the cancellation inside M.
    """
    return 1e-9 * max(1.0, float(np.max(np.abs(f(sys.xs, sys.ps)))))


def gradient_l1(grad):
    """Largest sum of |df/dq| over the 6n coordinates, over f's components."""
    gx, gp = grad
    return float(np.max(np.sum(np.abs(gx) + np.abs(gp), axis=(-2, -1))))


class TestExactGradients:
    """The complex-step table gradients against the finite-difference and
    coordinate-by-coordinate routes."""

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_table_gradients_within_finite_difference_error(self, n):
        sys = ParticleSystem.random(n, np.random.default_rng(n))
        grads = many._table_gradients(sys)
        for name, f in _observable_table(sys).items():
            exact = grads[name]
            fd = many.phase_gradient(f, sys)
            for e, d in zip(exact, fd):
                assert e.shape == d.shape and e.dtype == float, name
                assert np.max(np.abs(e - d)) <= fd_tolerance(f, sys), name

    @pytest.mark.parametrize("n", [1, 3])
    def test_brackets_within_finite_difference_error(self, n):
        sys = ParticleSystem.random(n, np.random.default_rng(10 + n))
        table = _observable_table(sys)
        grads = many._table_gradients(sys)
        for a, F in table.items():
            for b, G in table.items():
                ref = bracket_by_components(F, G, sys)
                got = many._bracket(grads[a], grads[b])
                # each finite-difference gradient's error, carried through the sum
                tol = fd_tolerance(F, sys) * gradient_l1(grads[b]) + fd_tolerance(
                    G, sys
                ) * gradient_l1(grads[a])
                assert got.shape == ref.shape, (a, b)
                assert np.max(np.abs(got - ref), initial=0.0) <= tol, (a, b)

    @pytest.mark.parametrize("n", [1, 3, 30, 300])
    def test_table_gradients_match_coordinate_route(self, n):
        # one-particle terms stepped together against one coordinate per copy
        sys = ParticleSystem.random(n, np.random.default_rng(40 + n))
        grads = many._table_gradients(sys)
        table = _observable_table(sys)
        assert sorted(grads) == sorted(table)
        for name, f in table.items():
            ref = _exact_gradient(f, sys)
            # at n = 1, M = m and its chain-rule gradient is a cancellation
            # of O(1) terms: relative to 1 at least
            scale = max(1.0, *(float(np.max(np.abs(r))) for r in ref))
            for got, r in zip(grads[name], ref):
                assert got.shape == r.shape and got.dtype == float, name
                assert np.max(np.abs(got - r)) <= 1e-14 * scale, name

    def test_algebra_memory_is_linear_in_n(self):
        # the (3n, n, 3) coordinate stack took a 432 MB peak at n = 1000
        sys = ParticleSystem.random(1000, np.random.default_rng(1000))
        tracemalloc.start()
        try:
            res = verify_algebra(sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        assert res["max"] < 1e-9

    def test_thirty_particles_close_to_rounding(self):
        # central differences leave about 1e-8 here
        sys = ParticleSystem.random(30, np.random.default_rng(30))
        assert verify_algebra(sys)["max"] < 1e-12

    def test_batch_of_phases_gives_one_value_each(self):
        sys = ParticleSystem.random(3, np.random.default_rng(3))
        xs = np.stack([sys.xs, 2.0 * sys.xs])
        ps = np.stack([sys.ps, -sys.ps])
        for name, f in _observable_table(sys).items():
            batch = f(xs, ps)
            for k in range(2):
                assert np.allclose(batch[k], f(xs[k], ps[k]), rtol=1e-14, atol=0.0), name


class TestAlgebra:
    def test_free_system_residuals(self):
        for _ in range(5):
            sys = ParticleSystem.random(3, RNG)
            res = verify_algebra(sys)
            assert res["max"] < 1e-6

    def test_nan_residual_is_not_reported_as_exact(self):
        # p = 1e200 overflows H_i, so most families are NaN; {P_i,P_j} is
        # exactly 0 and comes first, and the maximum must not hide the rest
        with np.errstate(all="ignore"):
            sys = two_body((1e200, 0, 0), (0, 1, 0))
            res = verify_algebra(sys)
        assert res["{P_i,P_j}"] == 0.0 and np.isnan(res["max"])

    def test_single_particle_at_rest(self):
        res = verify_algebra(single_free())
        assert res["max"] < 1e-8

    def test_mass_commutes_with_boost(self):
        sys = ParticleSystem.random(3, RNG)
        res = verify_algebra(sys)
        assert res["{M,L_i}"] < 1e-6

    def test_interacting_systems_rejected(self):
        sys = ParticleSystem(
            masses=[1.0, 1.0],
            xs=np.zeros((2, 3)),
            ps=np.zeros((2, 3)),
            interaction=lambda xs: 0.1,
        )
        with pytest.raises(DomainError):
            verify_algebra(sys)


class TestCenterOfMass:
    def test_zero_total_momentum(self):
        sys = two_body((1.0, 0, 0), (-1.0, 0, 0), x2=(2.0, 1.0, 0.0))
        com = center_of_mass(sys)
        np.testing.assert_allclose(com.X, com.X0, rtol=1e-14)

    def test_single_particle(self):
        sys = ParticleSystem(masses=[1.0], xs=[[3.0, -1.0, 2.0]], ps=[[0.4, 0, 0]])
        com = center_of_mass(sys)
        np.testing.assert_allclose(com.X, np.array([3.0, -1.0, 2.0]), rtol=1e-14)

    def test_canonical_conjugacy(self):
        for _ in range(5):
            sys = ParticleSystem.random(2, RNG)
            for a in range(3):
                X_a = lambda xs, ps, a=a: float(
                    center_of_mass(sys.with_phase(xs, ps)).X[a]
                )
                P_a = lambda xs, ps, a=a: float(np.sum(ps[:, a]))
                assert poisson_bracket(X_a, P_a, sys) == pytest.approx(1.0, abs=1e-5)


class TestClusters:
    def test_trivial_partition_reproduces_invariants(self):
        sys = ParticleSystem.random(4, RNG)
        inv = system_invariants(sys)
        (cluster,) = cluster_split(sys, [range(4)])
        assert cluster.M == pytest.approx(inv.M, rel=1e-14)
        assert cluster.H == pytest.approx(inv.H, rel=1e-14)
        assert cluster.K == pytest.approx(inv.K, rel=1e-14)

    def test_single_particle_clusters(self):
        sys = two_body((0.6, 0, 0), (-0.2, 0.4, 0), m1=1.0, m2=2.0)
        clusters = cluster_split(sys, [[0], [1]])
        hs = sys.particle_energies()
        for k, cl in enumerate(clusters):
            assert cl.dtau_dt == pytest.approx(sys.masses[k] / hs[k], rel=1e-14)
        assert sum(cl.H for cl in clusters) == pytest.approx(system_invariants(sys).H)

    def test_mass_additivity_for_comoving_clusters(self):
        # exact when each cluster has zero momentum
        sys = ParticleSystem(
            masses=[1.0, 1.0, 2.0, 2.0],
            xs=RNG.normal(size=(4, 3)),
            ps=[[0.7, 0, 0], [-0.7, 0, 0], [0, 1.1, 0], [0, -1.1, 0]],
        )
        clusters = cluster_split(sys, [[0, 1], [2, 3]])
        inv = system_invariants(sys)
        assert inv.M == pytest.approx(sum(cl.M for cl in clusters), rel=1e-14)
        assert inv.H == pytest.approx(sum(cl.H for cl in clusters), rel=1e-14)

    def test_partition_validation(self):
        sys = ParticleSystem.random(3, RNG)
        with pytest.raises(DomainError):
            cluster_split(sys, [[0], []])
        with pytest.raises(DomainError):
            cluster_split(sys, [[0, 1]])
        with pytest.raises(DomainError):
            cluster_split(sys, [[0, 1], [1, 2]])

    @pytest.mark.parametrize(
        "partition", [[[0, 1, 2, 5]], [[0, 1], [2.0]], [[0, 1], [-1]], [0, 1, 2], [[0, 1], ["2"]]]
    )
    def test_invalid_indices_rejected_before_indexing(self, partition):
        sys = ParticleSystem.random(3, RNG)
        with pytest.raises(DomainError):
            cluster_split(sys, partition)

    def test_numpy_indices_accepted(self):
        sys = ParticleSystem.random(3, RNG)
        (whole,) = cluster_split(sys, [np.arange(3)])
        assert whole.indices == (0, 1, 2) and whole.H == system_invariants(sys).H


def test_free_flight_center_of_mass_matches_per_step():
    for n in (1, 2, 5, 17, 64):
        sys = ParticleSystem.random(n, RNG, p_max=2.0)
        traj = free_flight(sys, 0.03, 40)
        per_step = np.array([center_of_mass(sys.with_phase(x, sys.ps)).X for x in traj.xs])
        assert np.array_equal(traj.X, per_step)


def test_cross_products_equal_np_cross_bit_for_bit(monkeypatch):
    # (3,), (n, 3), (steps, n, 3) and the complex (3n, n, 3) stacks of the J
    # table, against the same quantities with every cross product from np.cross;
    # the same systems are built anew each time, since a system caches its invariants
    def evaluate():
        rng = np.random.default_rng(31)
        out = []
        for sys in [ParticleSystem.random(n, rng, p_max=3.0) for n in (1, 2, 5, 30)]:
            inv = system_invariants(sys)
            out += [inv.J, inv.S, inv.X, center_of_mass(sys).X, free_flight(sys, 0.02, 25).X]
            out += list(verify_algebra(sys).values())
        return out

    got = evaluate()
    monkeypatch.setattr(many, "_cross", np.cross)
    monkeypatch.setattr(many, "_angular_momentum", lambda xs, ps: np.sum(np.cross(xs, ps), axis=-2))
    for a, b in zip(got, evaluate(), strict=True):
        np.testing.assert_array_equal(a, b)


class TestGeneratingIdentity:
    def test_free_two_particle(self):
        sys = ParticleSystem.random(2, RNG)
        traj = free_flight(sys, 0.05, 100)
        residual = generating_identity_residual(traj)
        assert residual < 1e-10 * abs(traj.K * traj.taus[-1])

    def test_static_system_value(self):
        sys = ParticleSystem(
            masses=[1.0, 2.0], xs=[[0, 0, 0], [1, 0, 0]], ps=np.zeros((2, 3))
        )
        traj = free_flight(sys, 0.1, 50)
        assert generating_identity_residual(traj) == pytest.approx(0.0, abs=1e-12)
        # both sides equal -M c^2 tau for a static system
        lhs = -traj.H * traj.t[-1]
        assert lhs == pytest.approx(-traj.M * traj.taus[-1], rel=1e-14)

    def test_single_particle(self):
        sys = single_free(p=(0.4, 0.1, 0.0))
        traj = free_flight(sys, 0.02, 100)
        assert generating_identity_residual(traj) < 1e-10 * abs(traj.K * traj.taus[-1])


class TestEvolveObservable:
    def test_conserved_momentum(self):
        sys = ParticleSystem.random(3, RNG)
        W = lambda xs, ps: float(np.sum(ps[:, 0]))
        assert evolve_observable(W, sys) == pytest.approx(0.0, abs=1e-8)

    def test_position_rate(self):
        sys = ParticleSystem.random(3, RNG)
        W = lambda xs, ps: float(xs[0][0])
        expected = clock_ratio(0, sys) * sys.ps[0][0] / sys.masses[0]
        assert evolve_observable(W, sys) == pytest.approx(expected, rel=1e-7)

    def test_matches_global_bracket(self):
        sys = ParticleSystem.random(3, RNG)
        K = _observable_table(sys)["K"]
        for _ in range(10):
            c1, c2 = RNG.normal(size=2)
            i, j = RNG.integers(0, 3, size=2)
            W = lambda xs, ps, c1=c1, c2=c2, i=i, j=j: float(
                c1 * (xs[i] @ ps[j]) + c2 * ps[i][1]
            )
            lhs = evolve_observable(W, sys)
            rhs = poisson_bracket(W, K, sys)
            assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_matches_per_particle_brackets(self):
        # the one gradient of all K_i against one scalar bracket per particle
        sys = ParticleSystem.random(4, RNG)
        c = sys.units.c
        W = lambda xs, ps: float(xs[1] @ ps[2] + ps[0][1] ** 2)
        ratios = clock_ratio(np.arange(sys.n), sys)
        expected = 0.0
        for i, m_i in enumerate(sys.masses):

            def K_i(xs, ps, i=i, m_i=m_i):
                h_i = np.sqrt(c**2 * (ps[i] @ ps[i]) + m_i**2 * c**4)
                return float(h_i**2 / (2.0 * m_i * c**2) + m_i * c**2 / 2.0)

            expected += ratios[i] * poisson_bracket(W, K_i, sys)
        # equal up to the energies' rounding, amplified by the 1e-5 step
        # (at most 4e-10 over 200 random systems)
        assert evolve_observable(W, sys) == pytest.approx(expected, abs=1e-8)

    def test_observable_gradient_taken_once(self, monkeypatch):
        # one gradient of W by finite differences and one of the vector of
        # all particle generators K_i by complex step
        sys = ParticleSystem.random(5, RNG)
        calls = []

        def counted(route):
            gradient = getattr(many, route)

            def wrapped(f, system):
                calls.append(route)
                return gradient(f, system)

            return wrapped

        for route in ("phase_gradient", "_term_gradient"):
            monkeypatch.setattr(many, route, counted(route))
        evolve_observable(lambda xs, ps: float(xs[0] @ ps[-1]), sys)
        assert sorted(calls) == ["_term_gradient", "phase_gradient"]

    @pytest.mark.parametrize("n", [1, 4, 30])
    def test_matches_coordinate_route(self, n):
        # every particle's K_i gradient from one (3n, n, 3) stack, bracketed
        # with W over all 6n coordinates
        sys = ParticleSystem.random(n, np.random.default_rng(60 + n))
        c, m = sys.units.c, sys.masses
        W = lambda xs, ps: float(xs[0] @ ps[-1] + ps[-1][2] ** 2 * xs[n // 2][1])

        def K_each(xs, ps):
            h = np.sqrt(c**2 * np.sum(ps**2, axis=-1) + m**2 * c**4)
            return h**2 / (2.0 * m * c**2) + m * c**2 / 2.0

        rates = many._bracket(many.phase_gradient(W, sys), _exact_gradient(K_each, sys))
        expected = float(clock_ratio(np.arange(n), sys) @ rates)
        assert evolve_observable(W, sys) == pytest.approx(expected, rel=1e-13, abs=1e-13)
