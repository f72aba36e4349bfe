import numpy as np
import pytest

from propertime import many
from propertime.errors import DomainError, SpacelikeSystemError
from propertime.many import (
    ParticleSystem,
    _observable_table,
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


class TestAlgebra:
    def test_free_system_residuals(self):
        for _ in range(5):
            sys = ParticleSystem.random(3, RNG)
            res = verify_algebra(sys)
            assert res["max"] < 1e-6

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


def test_free_flight_center_of_mass_matches_per_step():
    for n in (1, 2, 5, 17, 64):
        sys = ParticleSystem.random(n, RNG, p_max=2.0)
        traj = free_flight(sys, 0.03, 40)
        per_step = np.array([center_of_mass(sys.with_phase(x, sys.ps)).X for x in traj.xs])
        assert np.array_equal(traj.X, per_step)


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

    def test_observable_gradient_taken_once(self, monkeypatch):
        # one gradient of W plus one per particle generator K_i
        sys = ParticleSystem.random(5, RNG)
        calls = []
        gradient = many.phase_gradient

        def counted(f, system):
            calls.append(f)
            return gradient(f, system)

        monkeypatch.setattr(many, "phase_gradient", counted)
        evolve_observable(lambda xs, ps: float(xs[0] @ ps[-1]), sys)
        assert len(calls) == sys.n + 1
