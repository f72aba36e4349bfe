"""Independent reference implementations used only as test oracles.

Nothing in here may call into the library's own transform/field/operator
code paths; these are the second routes of the dual-route checks.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import k1


def einstein_velocity_composition(w, v, c=1.0):
    """Observer velocity of a body moving at w, seen from a frame moving at v.

    Textbook composition with the perpendicular 1/gamma factor:
    w' = [w_par - v + w_perp/gamma] / (1 - w.v/c^2).
    """
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    v2 = v @ v
    if v2 == 0.0:
        return w.copy()
    g = 1.0 / np.sqrt(1.0 - v2 / c**2)
    w_par = ((w @ v) / v2) * v
    w_perp = w - w_par
    return (w_par - v + w_perp / g) / (1.0 - (w @ v) / c**2)


def rk4(rhs, y0, dt, n_steps):
    """Generic fixed-step RK4 over a tuple-of-arrays state."""
    y = tuple(np.array(c, dtype=float) for c in y0)
    out = [y]
    for _ in range(n_steps):
        k1 = rhs(*y)
        k2 = rhs(*(yc + 0.5 * dt * kc for yc, kc in zip(y, k1)))
        k3 = rhs(*(yc + 0.5 * dt * kc for yc, kc in zip(y, k2)))
        k4 = rhs(*(yc + dt * kc for yc, kc in zip(y, k3)))
        y = tuple(
            yc + (dt / 6.0) * (a + 2 * b + 2 * c2 + d)
            for yc, a, b, c2, d in zip(y, k1, k2, k3, k4)
        )
        out.append(y)
    return out


def newtonian_orbit(x0, v0, accel, dt, n_steps):
    """Positions of a Newtonian particle under acceleration field accel(x)."""
    states = rk4(lambda x, v: (v, accel(x)), (x0, v0), dt, n_steps)
    return np.array([s[0] for s in states])


def bessel_k_via_quadrature(nu, x):
    """K_nu(x) from the integral representation int_0^inf e^{-x cosh t} cosh(nu t) dt.

    The integrand is truncated where the exponential underflows, before
    cosh overflows.
    """
    t_max = np.arccosh(700.0 / x)
    val, _ = quad(
        lambda t: np.exp(-x * np.cosh(t)) * np.cosh(nu * t),
        0.0,
        t_max,
        epsabs=1e-14,
        epsrel=1e-13,
        limit=400,
    )
    return val


def retarded_time_constant_velocity(x, tau, x0, u, c=1.0):
    """Closed-form retarded time for a straight worldline x0 + u tau'.

    |x - x0 - u tau'| = b (tau - tau') is a quadratic in tau'; the root
    with tau' < tau is physical.
    """
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    u = np.asarray(u, dtype=float)
    b = np.sqrt(c**2 + u @ u)
    d = x - x0
    # (d - u t')^2 = b^2 (tau - t')^2
    a2 = (u @ u) - b**2
    a1 = -2.0 * (d @ u) + 2.0 * b**2 * tau
    a0 = (d @ d) - b**2 * tau**2
    roots = np.roots([a2, a1, a0])
    real = [float(r.real) for r in roots if abs(r.imag) < 1e-12 and r.real < tau]
    if not real:
        raise ValueError("no physical retarded root")
    return max(real)


def retarded_time_by_quadrature(x, tau, traj, knots=()):
    """Retarded time of any worldline by bracketed root finding on adaptive quadrature.

    The reference route of ``fields.retarded_time``: ``brentq`` on
    |x - xbar(tau')| - int_{tau'}^{tau} b ds, each path integral an adaptive
    ``quad`` of b = sqrt(c^2 + u.u) from the worldline's own ``velocity``
    callable, with the given knots (a sampled worldline's grid) as
    breakpoints where the integrand's derivatives jump.  The same bracket
    search; the root to ``1e-14 max(1, |tau|)``, below the solve's own
    ``1e-12 max(1, |tau|)``.
    """
    x = np.asarray(x, dtype=float)
    c = traj.units.c
    knots = np.asarray(knots, dtype=float)

    def b(s):
        u = np.asarray(traj.velocity(s), dtype=float)
        return math.sqrt(c**2 + u @ u)

    def gap(tp):
        inner = knots[(knots > tp) & (knots < tau)]
        path = quad(b, tp, tau, epsabs=1e-13, epsrel=1e-13, limit=400,
                    points=inner if inner.size else None)[0]
        return path - float(np.linalg.norm(x - np.asarray(traj.position(tp), dtype=float)))

    scale = max(1.0, abs(tau))
    step = max(float(np.linalg.norm(x - np.asarray(traj.position(tau), dtype=float))) / c,
               1e-6 * scale)
    lo = tau - step
    while gap(max(lo, traj.tau_min)) <= 0.0:
        if lo <= traj.tau_min:
            raise ValueError("no retarded time inside the trajectory interval")
        step *= 2.0
        lo = tau - step
    return brentq(gap, max(lo, traj.tau_min), tau, xtol=1e-14 * scale, rtol=4 * np.finfo(float).eps)


def sqrt_table_adaptive(params, n, spacing):
    """Convolution table of the 1-D square-root operator, one cell at a time.

    The reference build of ``spectral.SqrtOperator1D``: three adaptive
    ``quad`` calls (moments 0, 1, 2 of S1(z) = -hbar c mu K1(mu|z|)/(pi|z|))
    over every off-diagonal cell, one for the second moment of the self
    cell, the same quadratic-reconstruction stencil, and the seam
    symmetrisation.  S1 is written out here from scipy's K1.
    """
    n, dz = int(n), float(spacing)
    table = np.zeros(n)

    def s1(z: float) -> float:
        az = abs(z)
        return float(-params.hbar * params.c * params.mu * k1(params.mu * az) / (math.pi * az))

    w_sum = 0.0
    for j in range(1, n):
        # minimum-image offset: kernel is applied over one period
        z_j = ((j + n // 2) % n - n // 2) * dz
        lo, hi = z_j - 0.5 * dz, z_j + 0.5 * dz
        w0 = quad(s1, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
        w1 = quad(lambda z: (z - z_j) * s1(z), lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
        w2 = quad(lambda z: (z - z_j) ** 2 * s1(z), lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
        w_sum += w0
        # psi(x - z) ~ psi_{i-j} - psi'(x_{i-j})(z - z_j) + psi''(x_{i-j})(z-z_j)^2/2
        table[j] += w0 - w2 / dz**2
        table[(j - 1) % n] += -w1 / (2.0 * dz) + w2 / (2.0 * dz**2)
        table[(j + 1) % n] += w1 / (2.0 * dz) + w2 / (2.0 * dz**2)
    # self cell: PV kills the odd moment; S1(z) z^2 is finite at 0
    def s1_z2(z: float) -> float:
        az = abs(z)
        if params.mu * az < 1e-12:
            return -params.hbar * params.c / math.pi
        return -params.hbar * params.c * params.mu * k1(params.mu * az) * az / math.pi

    m2_self = quad(
        s1_z2, -0.5 * dz, 0.5 * dz,
        epsabs=1e-13, epsrel=1e-12, limit=200, points=[0.0],
    )[0]
    rest_energy = params.m * params.c**2
    table[0] += rest_energy - w_sum - m2_self / dz**2
    table[1] += m2_self / (2.0 * dz**2)
    table[n - 1] += m2_self / (2.0 * dz**2)
    # symmetrize across the periodic seam (exactly self-adjoint table)
    idx = (-np.arange(n)) % n
    return 0.5 * (table + table[idx])
