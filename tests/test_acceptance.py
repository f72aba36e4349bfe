"""Acceptance gate: one test per criterion, printing one status line each.

Tolerances are fixed here, not tuned at runtime; every expected number is
either derived by an independent oracle in oracles.py or asserted as an
exact identity.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from oracles import (
    _observable_table,
    bessel_k_via_quadrature,
    einstein_velocity_composition,
    newtonian_orbit,
    radial_infall,
    retarded_time_constant_velocity,
)
from propertime import (
    BoostParameters,
    FieldConfiguration,
    ParticleSystem,
    PhaseState,
    SourceDensities,
    SourceTrajectory,
    boost_acceleration,
    boost_acceleration_inverse,
    boost_event,
    boost_event_inverse,
    boost_lightspeed,
    boost_lightspeed_inverse,
    boost_sources,
    boost_velocity,
    boost_velocity_inverse,
    canonical_K,
    center_of_mass,
    clock_ratio,
    clock_ratio_speeds,
    collaborative_speed,
    convective_density_ratio,
    coulomb_critical_radius,
    density_transform_general,
    dirac_to_K_eigenvalue,
    effective_photon_mass,
    electric_field,
    electric_field_terms,
    evolve_observable,
    field_geometry,
    fields_at,
    free_flight,
    gamma,
    generating_identity_residual,
    hamilton_rhs,
    integrate_orbit,
    magnetic_field_terms,
    momentum_oracle,
    observer_from_proper,
    per_particle_speeds,
    poisson_bracket,
    proper_from_observer,
    retarded_time,
    system_invariants,
    verify_algebra,
)
from propertime.spectral import (
    KernelParameters,
    RadialGridFunction,
    apply_sqrt_operator,
    fit_kernel_decay,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"acceptance criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _random_subluminal(rng, n, top=0.999):
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    return d * (rng.uniform(0.0, top, size=n) ** (1 / 3))[:, None] * top


def test_criterion_1_kinematic_identities():
    rng = np.random.default_rng(1)
    d = rng.normal(size=(10_000, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    ws = d * rng.uniform(0.0, 0.999, size=10_000)[:, None]
    worst = 0.0
    for w in ws:
        g = gamma(w)
        u = proper_from_observer(w)
        b = collaborative_speed(u)
        worst = max(worst, abs(b - g) / b)  # b = gamma c, c = 1
        worst = max(worst, float(np.max(np.abs(w - u / b))))  # w/c = u/b
        back = observer_from_proper(u)
        scale = max(1e-9, float(np.max(np.abs(w))))
        worst = max(worst, float(np.max(np.abs(back - w))) / scale)
    _report(1, worst < 1e-12, f"worst kinematic residual {worst:.3e} < 1e-12 over 1e4 draws")


def test_criterion_2_group_consistency():
    rng = np.random.default_rng(2)
    worst_cons = worst_rt = worst_einstein = 0.0
    for _ in range(1000):
        u = rng.normal(size=3) * rng.uniform(0.0, 10.0 / math.sqrt(3.0))
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 0.99) / np.linalg.norm(v)
        boost = BoostParameters(v)
        b = collaborative_speed(u)
        u_p = boost_velocity(u, boost)
        b_p = boost_lightspeed(b, u, boost)
        worst_cons = max(worst_cons, abs(b_p**2 - (1.0 + u_p @ u_p)) / b_p**2)

        tau = rng.uniform(-2.0, 2.0)
        x = u * tau  # worldline event through the origin
        a = rng.normal(size=3)
        x_p = boost_event(x, tau, b, boost)
        a_p = boost_acceleration(a, u, boost)
        scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(u))), float(np.max(np.abs(a))))
        worst_rt = max(
            worst_rt,
            float(np.max(np.abs(boost_event_inverse(x_p, tau, b_p, boost) - x))) / scale,
            float(np.max(np.abs(boost_velocity_inverse(u_p, boost) - u))) / scale,
            float(np.max(np.abs(boost_acceleration_inverse(a_p, u_p, boost) - a))) / scale,
            abs(boost_lightspeed_inverse(b_p, u_p, boost) - b) / b,
        )
        w_oracle = einstein_velocity_composition(observer_from_proper(u), v)
        worst_einstein = max(
            worst_einstein,
            float(np.max(np.abs(observer_from_proper(u_p) - w_oracle))),
        )
    ok = worst_cons < 1e-12 and worst_rt < 1e-10 and worst_einstein < 1e-10
    _report(
        2,
        ok,
        f"consistency {worst_cons:.2e} < 1e-12, roundtrip {worst_rt:.2e} < 1e-10, "
        f"velocity-addition oracle {worst_einstein:.2e} < 1e-10",
    )


def test_criterion_3_source_transforms():
    rng = np.random.default_rng(3)
    worst_static = worst_forms = worst_degen = 0.0
    static = SourceDensities.convective(2.0, np.zeros(3))
    for _ in range(100):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 0.99) / np.linalg.norm(v)
        boost = BoostParameters(v)
        worst_static = max(worst_static, abs(boost_sources(static, boost).rho - 2.0) / 2.0)

        u = rng.normal(size=3) * rng.uniform(0.0, 5.0)
        src = SourceDensities.convective(0.8, u)
        out = boost_sources(src, boost)
        expected = 0.8 * convective_density_ratio(u, boost)
        worst_forms = max(worst_forms, abs(out.rho - expected) / abs(expected))

        J = rng.normal(size=3)
        rho = 1.1
        standard = boost.gamma_v * (rho - J @ v)
        worst_degen = max(
            worst_degen,
            abs(density_transform_general(rho, J, 1.0, 1.0, boost) - standard)
            / max(abs(standard), 1e-12),
        )
    ok = worst_static < 1e-14 and worst_forms < 1e-12 and worst_degen < 1e-12
    _report(
        3,
        ok,
        f"static isotropy {worst_static:.2e} < 1e-14, eliminated==convective {worst_forms:.2e} "
        f"< 1e-12, b'=b=c degeneration {worst_degen:.2e} < 1e-12",
    )


def _bounded_source(rng):
    amp = rng.uniform(0.2, 0.8, size=3)
    w = rng.uniform(0.5, 1.2)
    return SourceTrajectory(
        e=1.0,
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


def test_criterion_4_retarded_fields():
    rng = np.random.default_rng(4)
    static = SourceTrajectory.static(1.5, np.zeros(3))
    worst_coulomb = 0.0
    for _ in range(100):
        x = rng.normal(size=3)
        x *= rng.uniform(0.5, 4.0) / np.linalg.norm(x)
        E = electric_field(x, 9.0, static)
        r = np.linalg.norm(x)
        worst_coulomb = max(
            worst_coulomb, float(np.max(np.abs(E - 1.5 * x / r**3))) / (1.5 / r**2)
        )
    worst_bre = worst_orth = 0.0
    for _ in range(1000):
        traj = _bounded_source(rng)
        x = rng.normal(size=3)
        x *= rng.uniform(2.0, 6.0) / np.linalg.norm(x)
        E, B, tau_ret = fields_at(x, rng.uniform(0.0, 3.0), traj)
        rvec = x - traj.x(tau_ret)
        r_hat = rvec / np.linalg.norm(rvec)
        worst_bre = max(
            worst_bre,
            float(np.max(np.abs(B - np.cross(r_hat, E)))) / np.linalg.norm(B),
        )
        worst_orth = max(
            worst_orth, abs(E @ B) / (np.linalg.norm(E) * np.linalg.norm(B))
        )
    # third terms vanish at machine zero iff u.a = 0
    u = np.array([0.0, 1.3, 0.0])
    a_perp = np.array([0.9, 0.0, 0.0])
    a_skew = np.array([0.9, 0.4, 0.0])
    probe = SourceTrajectory(
        e=1.0, position=lambda t: np.zeros(3), velocity=lambda t: u,
        acceleration=lambda t: a_perp,
    )
    geom = field_geometry(np.array([3.0, 1.0, -0.5]), 0.0, probe)
    _, _, t3 = electric_field_terms(geom, u, a_perp, 1.0)
    _, _, m3 = magnetic_field_terms(geom, u, a_perp, 1.0)
    third_zero = np.all(t3 == 0.0) and np.all(m3 == 0.0)
    _, _, t3b = electric_field_terms(geom, u, a_skew, 1.0)
    third_nonzero = float(np.linalg.norm(t3b)) > 0.0
    ok = (
        worst_coulomb < 1e-12
        and worst_bre < 1e-11
        and worst_orth < 1e-11
        and third_zero
        and third_nonzero
    )
    _report(
        4,
        ok,
        f"Coulomb {worst_coulomb:.2e} < 1e-12, B=rxE {worst_bre:.2e} < 1e-11, "
        f"E.B {worst_orth:.2e} < 1e-11, third-term iff u.a!=0: {third_zero and third_nonzero}",
    )


def test_criterion_5_effective_photon_mass():
    rng = np.random.default_rng(5)
    worst_forms = 0.0
    for _ in range(1000):
        u = rng.normal(size=3) * rng.uniform(0.0, 5.0)
        res = effective_photon_mass(u, rng.normal(size=3), rng.normal(size=3))
        scale = max(abs(res.bracket_explicit), abs(res.bracket_b_form), 1e-30)
        worst_forms = max(worst_forms, abs(res.bracket_explicit - res.bracket_b_form) / scale)

    worst_circ = 0.0
    for _ in range(100):
        R, w = rng.uniform(0.5, 3.0), rng.uniform(0.2, 2.0)
        phase = rng.uniform(0.0, 2 * math.pi)
        u = R * np.array([math.cos(phase), math.sin(phase), 0.0])
        ud = R * w * np.array([-math.sin(phase), math.cos(phase), 0.0])
        res = effective_photon_mass(u, ud, -(w**2) * u)
        worst_circ = max(worst_circ, abs(res.bracket_explicit) / max((R * w) ** 2, 1.0))

    # FD of b(tau) = sqrt(1 + tau^2) reproduces the closed forms at order 2
    def bracket_fd(h):
        b = lambda t: math.sqrt(1.0 + t * t)
        b0, bp, bm = b(1.0), b(1.0 + h), b(1.0 - h)
        b_dot = (bp - bm) / (2 * h)
        b_ddot = (bp - 2 * b0 + bm) / h**2
        return b_ddot / (2 * b0**3) - 3 * b_dot**2 / (4 * b0**4)

    exact = effective_photon_mass(
        np.array([1.0, 0, 0]), np.array([1.0, 0, 0]), np.zeros(3)
    ).bracket_explicit
    assert exact == pytest.approx(-1.0 / 32.0, rel=1e-13)
    ratio = abs(bracket_fd(1e-3) - exact) / abs(bracket_fd(5e-4) - exact)
    ok = worst_forms < 1e-9 and worst_circ < 1e-12 and abs(ratio - 4.0) < 0.2
    _report(
        5,
        ok,
        f"form agreement {worst_forms:.2e} < 1e-9, circular bracket {worst_circ:.2e} < 1e-12, "
        f"Richardson ratio {ratio:.2f} in 4 +/- 0.2",
    )


def test_criterion_6_dynamics():
    rng = np.random.default_rng(6)
    coulomb = FieldConfiguration.coulomb(1.0)

    # finite-difference gradient of K, order-2 convergence
    def grad_K(st, fields, h):
        gx, gp = np.zeros(3), np.zeros(3)
        for i in range(3):
            hx = h * (1.0 + abs(st.x[i]))
            xp, xm = st.x.copy(), st.x.copy()
            xp[i] += hx
            xm[i] -= hx
            gx[i] = (
                canonical_K(PhaseState(xp, st.p, st.m), fields)
                - canonical_K(PhaseState(xm, st.p, st.m), fields)
            ) / (2 * hx)
            hp = h * (1.0 + abs(st.p[i]))
            pp, pm = st.p.copy(), st.p.copy()
            pp[i] += hp
            pm[i] -= hp
            gp[i] = (
                canonical_K(PhaseState(st.x, pp, st.m), fields)
                - canonical_K(PhaseState(st.x, pm, st.m), fields)
            ) / (2 * hp)
        return gp, -gx

    ratios = []
    for _ in range(25):
        st = PhaseState(rng.normal(size=3) + np.array([3.0, 0, 0]), rng.normal(size=3), m=1.0)
        dx, dp = hamilton_rhs(st, coulomb)
        errs = []
        for h in (1e-3, 5e-4):
            fdx, fdp = grad_K(st, coulomb, h)
            errs.append(max(np.max(np.abs(dx - fdx)), np.max(np.abs(dp - fdp))))
        if errs[1] > 1e-12:
            ratios.append(errs[0] / errs[1])
    richardson = float(np.median(ratios))

    st = PhaseState(np.array([25.0, 0, 0]), np.array([0.0, 0.2, 0]), m=1.0)
    period = 2 * math.pi * 25.0 / 0.2
    drift = integrate_orbit(st, coulomb, period / 2500, 10_000).k_drift

    # force balance 1 + V(r0)/mc^2 = 0 at the critical radius, off m = e^2,
    # where any formula giving r0 = 1 passes
    balance = 0.0
    for m, e in rng.uniform(0.5, 2.0, size=(5, 2)):
        r0 = coulomb_critical_radius(m, e)
        balance = max(balance, abs(1.0 + FieldConfiguration.coulomb(e * e).V([r0, 0, 0]) / m))
    r0 = coulomb_critical_radius(1.0, 1.0)

    infall = radial_infall()
    min_radius = float(np.min(np.linalg.norm(infall.x, axis=1)))

    p0 = 0.01
    rc = 1.0 / p0**2
    orbit_state = PhaseState(np.array([rc, 0, 0]), np.array([0.0, p0, 0]), m=1.0)
    n = 4000
    dt = 2 * math.pi * rc / p0 / n
    traj = integrate_orbit(orbit_state, coulomb, dt, n)
    oracle = newtonian_orbit(
        orbit_state.x, orbit_state.p, lambda x: -x / np.linalg.norm(x) ** 3, dt, n
    )
    kepler_rms = math.sqrt(np.mean(np.sum((traj.x - oracle) ** 2, axis=1))) / rc

    ok = (
        abs(richardson - 4.0) < 0.2
        and drift < 1e-8
        and balance < 1e-10
        and min_radius > 0.9 * r0
        and kepler_rms < 1e-4
    )
    _report(
        6,
        ok,
        f"gradient Richardson {richardson:.2f}, K drift {drift:.2e} < 1e-8, r0 force balance "
        f"{balance:.1e} < 1e-10, infall minimum {min_radius:.3f} > 0.9 r0, "
        f"Kepler-oracle rms {kepler_rms:.2e} < 1e-4",
    )


def test_criterion_7_many_particle():
    rng = np.random.default_rng(7)
    worst_mass = worst_clock = worst_alg = 0.0
    for _ in range(100):
        sys_ = ParticleSystem.random(3, rng, p_max=5.0)
        inv = system_invariants(sys_)
        worst_mass = max(
            worst_mass,
            abs(inv.M - math.sqrt(inv.H**2 - inv.P @ inv.P)) / inv.M,
            abs(inv.H - inv.M * inv.b) / inv.H,
        )
        for i in range(sys_.n):
            worst_clock = max(
                worst_clock, abs(clock_ratio(i, sys_) - clock_ratio_speeds(i, sys_))
            )
        worst_alg = max(worst_alg, verify_algebra(sys_)["max"])

    sys_ = ParticleSystem.random(3, rng)
    K = _observable_table(sys_)["K"]
    worst_chain = 0.0
    for _ in range(20):
        c1, c2, c3 = rng.normal(size=3)
        i, j, k = rng.integers(0, 3, size=3)
        W = lambda xs, ps, c1=c1, c2=c2, c3=c3, i=i, j=j, k=k: float(
            c1 * (xs[i] @ ps[j]) + c2 * ps[k][0] + c3 * xs[j][1] * ps[i][2]
        )
        worst_chain = max(
            worst_chain, abs(evolve_observable(W, sys_) - poisson_bracket(W, K, sys_))
        )

    flight = free_flight(ParticleSystem.random(2, rng), 0.03, 100)
    thm3 = generating_identity_residual(flight) / abs(flight.K * flight.taus[-1])

    boosted = ParticleSystem(
        masses=[1.0, 1.0], xs=np.zeros((2, 3)), ps=[[5.0, 0, 0], [5.0, 0, 0]]
    )
    _, v, _ = per_particle_speeds(boosted)
    superluminal = bool(np.max(np.linalg.norm(v, axis=1)) > 1.0)

    ok = (
        worst_mass < 1e-12
        and worst_clock < 1e-12
        and worst_alg < 1e-6
        and worst_chain < 1e-6
        and thm3 < 1e-10
        and superluminal
    )
    _report(
        7,
        ok,
        f"mass/energy {worst_mass:.2e} < 1e-12, clock duals {worst_clock:.2e} < 1e-12, "
        f"algebra {worst_alg:.2e} < 1e-6 at 100 points, chain-vs-K {worst_chain:.2e} < 1e-6, "
        f"generating identity {thm3:.2e} < 1e-10, superluminal v_i: {superluminal}",
    )


def test_criterion_8_spectral():
    params = KernelParameters.from_mass(1.0)
    mu = params.mu
    worst_l2 = 0.0
    for width in (2.0 / mu, 5.0 / mu, 10.0 / mu):
        extent = max(20.0 / mu, 14.0 * width)
        psi = RadialGridFunction.gaussian(256, extent, width)
        out = apply_sqrt_operator(psi, params)
        ref = momentum_oracle(psi, params)
        worst_l2 = max(
            worst_l2,
            float(np.sqrt(np.sum((out.values - ref.values) ** 2) / np.sum(ref.values**2))),
        )

    wave = RadialGridFunction.plane_wave(256, 40.0, mode=9)
    k = 2 * math.pi * 9 / 40.0
    out = momentum_oracle(wave, params)
    eig_err = float(np.max(np.abs(out.values - math.sqrt(k**2 + 1.0) * wave.values)))

    kappa = fit_kernel_decay(params)
    tail_err = abs(kappa - mu) / mu

    energies = np.concatenate([np.linspace(-6, -1, 51), np.linspace(1, 6, 51)])
    ks = np.array([dirac_to_K_eigenvalue(E, 1.0) for E in energies])
    even = all(
        dirac_to_K_eigenvalue(E, 1.0) == dirac_to_K_eigenvalue(-E, 1.0)
        for E in energies
    )
    bounded = bool(np.all(ks >= 1.0)) and dirac_to_K_eigenvalue(1.0, 1.0) == 1.0

    ok = worst_l2 < 1e-3 and eig_err < 1e-12 and tail_err < 0.02 and even and bounded
    _report(
        8,
        ok,
        f"kernel-vs-oracle L2 {worst_l2:.2e} < 1e-3 on three widths, plane-wave "
        f"{eig_err:.1e} < 1e-12, tail decay off by {100 * tail_err:.2f}% < 2%, "
        f"K(E)=K(-E) and K >= mc^2: {even and bounded}",
    )


def test_criterion_9_cli(tmp_path):
    run = subprocess.run(
        [sys.executable, "-m", "propertime.cli", "verify"],
        capture_output=True,
        text=True,
    )
    verify_ok = run.returncode == 0 and "all checks passed" in run.stdout

    cfg = tmp_path / "red.json"
    cfg.write_text(json.dumps({"scenario": "redshift", "w": [0.6, 0.0, 0.0]}))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = subprocess.run(
        [sys.executable, "-m", "propertime.cli", "redshift", "--config", str(cfg), "--out", str(out1)],
        capture_output=True,
    )
    r2 = subprocess.run(
        [sys.executable, "-m", "propertime.cli", "redshift", "--config", str(cfg), "--out", str(out2)],
        capture_output=True,
    )
    cli_ok = r1.returncode == 0 and r2.returncode == 0
    data1 = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
    data2 = [l for l in out2.read_text().splitlines() if not l.startswith("#")]
    deterministic = data1 == data2
    header = data1[0].split(",")
    z = float(dict(zip(header, data1[1].split(",")))["z"])
    ok = verify_ok and cli_ok and deterministic and z == 1.0
    _report(
        9,
        ok,
        f"verify exit 0: {verify_ok}, z(0.6c) = {z}, byte-identical data rows: {deterministic}",
    )


def test_bessel_reference_values():
    # supporting oracle for criterion 8's kernel: scipy vs published 10-digit
    # values and an independent quadrature of the integral representation
    from scipy.special import k0, k1

    assert k0(1.0) == pytest.approx(0.4210244382, abs=1e-10)
    assert k1(1.0) == pytest.approx(0.6019072302, abs=1e-10)
    assert bessel_k_via_quadrature(0, 1.0) == pytest.approx(k0(1.0), rel=1e-10)
    assert bessel_k_via_quadrature(1, 1.0) == pytest.approx(k1(1.0), rel=1e-10)


def test_retardation_supporting_oracle():
    # supporting oracle for criterion 4: quadratic-root retardation check
    rng = np.random.default_rng(44)
    for _ in range(25):
        u = rng.normal(size=3) * rng.uniform(0.0, 3.0)
        x0 = rng.normal(size=3)
        x = rng.normal(size=3)
        x *= rng.uniform(2.0, 5.0) / np.linalg.norm(x)
        tau = rng.uniform(0.0, 2.0)
        traj = SourceTrajectory.uniform(1.0, x0, u)
        expected = retarded_time_constant_velocity(x, tau, x0, u)
        assert retarded_time(x, tau, traj) == pytest.approx(expected, abs=1e-9)
