"""Independent reference implementations used only as test oracles.

Nothing in here may call into the library's own transform/field/operator
code paths; these are the second routes of the dual-route checks.  Two
exceptions: :func:`bracket_by_components` builds a vector bracket from the
library's scalar ``poisson_bracket``, one component pair at a time, and
:func:`radial_infall` is no oracle: it caches a library run that two tests
read.  :func:`_exact_gradient` steps one phase coordinate per copy, the
O(n^2) second route to the many-body module's one-particle-term gradients.
"""

import decimal
import functools
import math

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq
from scipy.special import ellipeinc, iti0k0, k0, k1


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


def retarded_time_decimal(x, tau, x0, u, c=1.0):
    """Retarded time on the straight worldline x0 + u tau' to 40 digits.

    The quadratic of :func:`retarded_time_constant_velocity`,
    (u.u - b^2) t'^2 + 2 (b^2 tau - d.u) t' + d.d - b^2 tau^2 = 0 with
    d = x - x0, solved in stdlib ``decimal`` at 40 significant digits
    (``Decimal.sqrt`` included) from the exact values of the float inputs.
    The root below tau is physical; the result is rounded to a float once.
    """
    with decimal.localcontext(decimal.Context(prec=40)):
        D = decimal.Decimal
        T, C = D(float(tau)), D(float(c))
        us = [D(float(v)) for v in u]
        ds = [D(float(a)) - D(float(b)) for a, b in zip(x, x0)]
        uu = sum(v * v for v in us)
        b2 = C * C + uu
        a2 = uu - b2
        a1 = 2 * (b2 * T - sum(d * v for d, v in zip(ds, us)))
        a0 = sum(d * d for d in ds) - b2 * T * T
        root = (a1 * a1 - 4 * a2 * a0).sqrt()
        roots = [(-a1 + root) / (2 * a2), (-a1 - root) / (2 * a2)]
        return float(max(r for r in roots if r < T))


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


def not_a_knot_spline(tau_grid, positions):
    """Position, velocity and acceleration of scipy's not-a-knot ``CubicSpline``.

    The reference route of ``SourceTrajectory.from_samples``: a banded LU
    solve for the knot slopes and a piecewise-polynomial evaluation that
    extrapolates with the end cubics.
    """
    spline = CubicSpline(tau_grid, positions, axis=0)
    return spline, spline.derivative(1), spline.derivative(2)


def retarded_time_sine_line(x, tau, amplitude, omega):
    """Retarded time of the worldline xbar(t) = (A sin(w t), 0, 0), c = 1.

    With a = A w and m = a^2 / (1 + a^2), b = sqrt(1 + a^2 cos^2(w t))
    = sqrt(1 + a^2) sqrt(1 - m sin^2(w t)), so int b dt is
    sqrt(1 + a^2) E(w t | m) / w, the incomplete elliptic integral of the
    second kind: a closed-form path integral at any distance.  ``brentq``
    on the gap over [tau - |r| - 2A - 1, tau], with r = x - xbar(tau):
    b >= 1 and the source stays within 2A of xbar(tau), so the retarded
    time lies within |r| + 2A of tau.  The root to ``1e-14 max(1, |tau|)``.
    """
    a2 = (amplitude * omega) ** 2
    m = a2 / (1.0 + a2)

    def path_from_zero(t):
        return math.sqrt(1.0 + a2) * ellipeinc(omega * t, m) / omega

    def gap(tp):
        r = np.asarray(x, dtype=float) - [amplitude * math.sin(omega * tp), 0.0, 0.0]
        return path_from_zero(tau) - path_from_zero(tp) - math.sqrt(r @ r)

    lo = tau + gap(tau) - 2.0 * amplitude - 1.0
    return brentq(gap, lo, tau, xtol=1e-14 * max(1.0, abs(tau)), rtol=4 * np.finfo(float).eps)


def coulomb_critical_radius_brentq(m, e_charge, c=1.0):
    """Root of 1 - e^2/(r m c^2), the critical radius of V = -e^2/r, by ``brentq``.

    The reference route of ``dynamics.coulomb_critical_radius``: bracketed
    by six decades either side of e^2/(m c^2), to ``1e-15`` of it.
    """
    guess = e_charge**2 / (m * c**2)

    def critical(r):
        return 1.0 - e_charge**2 / (r * m * c**2)

    return float(brentq(critical, 1e-6 * guess, 1e6 * guess, xtol=1e-15 * guess, rtol=8 * np.finfo(float).eps))


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


def sqrt_table_gauss20(params, n, spacing):
    """Convolution table of the 1-D square-root operator, one rule for every cell.

    The one-rule build of ``spectral.SqrtOperator1D``: the moments of every
    off-diagonal cell from the same 20-point Gauss-Legendre rule in one
    array pass, the same stencil, closed-form self cell and seam
    symmetrisation.  S1 is written out here from scipy's K1.
    """
    n, dz = int(n), float(spacing)
    half = n // 2
    nodes, weights = np.polynomial.legendre.leggauss(20)
    t = 0.5 * dz * nodes
    z = dz * np.arange(1, half + 1)[:, None] + t
    powers = 0.5 * dz * weights * np.stack([np.ones_like(t), t, t * t])
    s1 = -params.hbar * params.c * params.mu * k1(params.mu * z) / (math.pi * z)
    moments = s1 @ powers.T
    # minimum-image offset of cell j: kernel is applied over one period
    offset = (np.arange(1, n) + half) % n - half
    w0, w1, w2 = moments[np.abs(offset) - 1].T
    w1 = np.sign(offset) * w1
    below, centre, above = np.zeros((3, n))  # into cells j - 1, j, j + 1
    centre[1:] = w0 - w2 / dz**2
    below[1:] = -w1 / (2.0 * dz) + w2 / (2.0 * dz**2)
    above[1:] = w1 / (2.0 * dz) + w2 / (2.0 * dz**2)
    table = centre + np.roll(below, -1) + np.roll(above, 1)
    x = 0.5 * params.mu * dz
    m2_self = -2.0 * params.hbar * params.c / (math.pi * params.mu) * (iti0k0(x)[1] - x * k0(x))
    table[0] += params.m * params.c**2 - w0.sum() - m2_self / dz**2
    table[1] += m2_self / (2.0 * dz**2)
    table[n - 1] += m2_self / (2.0 * dz**2)
    idx = (-np.arange(n)) % n
    return 0.5 * (table + table[idx])


def bracket_by_components(F, G, sys):
    """{F_i, G_j} for array-valued observables F and G, entry by entry.

    Each component pair goes through the scalar ``poisson_bracket``, so the
    table is assembled from one scalar bracket per entry; a scalar F or G
    contributes no axis.
    """
    from propertime.many import poisson_bracket

    def component(f, index):
        return lambda xs, ps: float(np.asarray(f(xs, ps))[index])

    shape_f = np.shape(F(sys.xs, sys.ps))
    shape_g = np.shape(G(sys.xs, sys.ps))
    out = np.empty(shape_f + shape_g)
    for i in np.ndindex(shape_f):
        for j in np.ndindex(shape_g):
            out[i + j] = poisson_bracket(component(F, i), component(G, j), sys)
    return out


def _observable_table(sys):
    """H, M, K and the 3-vectors P, J, L of a free system as functions of (xs, ps).

    Written out from the definitions, not from the library's terms.  Each
    sums over the particle axis -2, so leading axes of (xs, ps) are a
    batch, and each is analytic in the phase, so complex steps pass through.
    """
    c, m = sys.units.c, sys.masses

    def energies(ps):
        return np.sqrt(c**2 * np.sum(ps**2, axis=-1) + m**2 * c**4)

    def H(xs, ps):
        return np.sum(energies(ps), axis=-1)

    def Mc2(xs, ps):
        P = np.sum(ps, axis=-2)
        return np.sqrt(H(xs, ps) ** 2 - c**2 * np.sum(P * P, axis=-1))

    # the rest energy entering K is held at its value at the phase point
    rest = float(Mc2(sys.xs, sys.ps))

    return {
        "H": H,
        "M": lambda xs, ps: Mc2(xs, ps) / c**2,
        "K": lambda xs, ps: H(xs, ps) ** 2 / (2.0 * rest) + rest / 2.0,
        "P": lambda xs, ps: np.sum(ps, axis=-2),
        "J": lambda xs, ps: np.sum(np.cross(xs, ps), axis=-2),
        "L": lambda xs, ps: np.sum(energies(ps)[..., None] * xs, axis=-2) / c**2,
    }


_CS_H = 1e-30  # complex step of _exact_gradient


def _stepped(q):
    """q.size complex copies of ``q``; copy k has coordinate k stepped by i h."""
    z = np.tile(q.astype(complex).ravel(), (q.size, 1))
    np.fill_diagonal(z.imag, _CS_H)
    return z.reshape((q.size,) + q.shape)


def _exact_gradient(f, sys):
    """(df/dx, df/dp) exact to rounding, shaped as ``phase_gradient``'s.

    The O(n^2) complex step that assumes nothing of ``f``'s structure: one
    call on a (3n, n, 3) stack with each x coordinate stepped in turn gives
    df/dx, one more gives df/dp.  ``f`` must be analytic in the phase and
    take leading batch axes.
    """
    xs, ps = sys.xs, sys.ps
    stack = (xs.size,) + xs.shape
    gx = f(_stepped(xs), np.broadcast_to(ps, stack)).imag
    gp = f(np.broadcast_to(xs, stack), _stepped(ps)).imag
    # rows run over the 3n coordinates: move them last and split them (n, 3)
    return tuple(np.moveaxis(g / _CS_H, 0, -1).reshape(g.shape[1:] + xs.shape) for g in (gx, gp))


@functools.cache
def radial_infall():
    """The weak-coupling release from rest at r = 1.05 under V = -1/r.

    40,000 steps of ``approximate_rhs``, integrated once per session for the
    radial-infall test and criterion 6; its arrays are read-only.
    """
    from propertime import FieldConfiguration, PhaseState, approximate_rhs, integrate_orbit

    traj = integrate_orbit(
        PhaseState(np.array([1.05, 0, 0]), np.zeros(3), m=1.0),
        FieldConfiguration.coulomb(1.0), 0.002, 40_000, rhs=approximate_rhs,
    )
    for column in (traj.tau, traj.x, traj.p, traj.K, traj.H, traj.b):
        column.setflags(write=False)
    return traj
