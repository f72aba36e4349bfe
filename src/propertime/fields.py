r"""Retarded fields of a point charge on the source clock.

With :math:`\mathbf{r} = \mathbf{x} - \bar{\mathbf{x}}(\tau')` taken at
the retarded proper time :math:`\tau'`, :math:`s = r - (\mathbf{r}\cdot
\mathbf{u})/b` and :math:`\mathbf{r_u} = \mathbf{r} - (r/b)\mathbf{u}`,
the electric field has three terms

.. math::
    \mathbf{E} = \frac{e\,\mathbf{r_u}(1 - u^2/b^2)}{s^3}
    + \frac{e\,[\mathbf{r}\times(\mathbf{r_u}\times\mathbf{a})]}{b^2 s^3}
    + \frac{e\,(\mathbf{u}\cdot\mathbf{a})\,[\mathbf{r}\times(\mathbf{u}\times\mathbf{r})]}{b^4 s^3},

and the magnetic field the matching three-term form with
:math:`\mathbf{B} = \hat{\mathbf{r}}\times\mathbf{E}` holding identically.
The first two terms carry the familiar velocity/acceleration structure;
the third is proportional to :math:`\mathbf{u}\cdot\mathbf{a}` and gives
the field a longitudinal part.

Retardation condition: the signal covers the distance at the
collaborative speed measured on the source clock,
:math:`|\mathbf{x} - \bar{\mathbf{x}}(\tau')| = \int_{\tau'}^{\tau} b(s)\,ds`,
which reduces to the standard light cone for a source at rest.

For a static or uniform source the condition is a quadratic in
:math:`d = \tau - \tau'`, solved in closed form: with
:math:`\mathbf{r}_0 = \mathbf{x} - \mathbf{x}_0 - \mathbf{u}\tau`,
:math:`c^2 d^2 - 2(\mathbf{r}_0\cdot\mathbf{u})\,d - r_0^2 = 0`.
:func:`fields_at` takes one point of shape (3,) or N points of shape
(N, 3); on such a source the N points are one array expression.

Any other retarded time is found by Newton steps on the exact derivative
of the gap :math:`\int_{\tau'}^{\tau} b\,ds - |\mathbf{r}|`, which is
:math:`-(b/r)\,s < 0`, inside a bracket, with bisection as the fallback,
to the tolerance :math:`10^{-12}\max(1, |\tau|)`, once per point.  The
path integral comes from a cumulative per-knot Gauss-Legendre table for a
sampled source, a not-a-knot cubic spline.  For a worldline given only by
callables, whose velocity may jump or kink, it is a running sum over the
iterates of halved Gauss-Lobatto panels; each panel rule calls the
velocity once with its 20 nodes as an array of tau, and falls back to one
scalar call per node when the velocity does not take arrays.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateGeometryError,
    DomainError,
    RetardationError,
    SingularGeometryError,
)
from .kinematics import NATURAL, UnitSystem, _cross, _dot, _vec
from .spectral import _gauss_legendre

__all__ = [
    "SourceTrajectory",
    "FieldGeometry",
    "PhotonMassResult",
    "retarded_time",
    "field_geometry",
    "electric_field_terms",
    "electric_field",
    "magnetic_field_terms",
    "magnetic_field",
    "fields_at",
    "dissipative_coefficient",
    "effective_photon_mass",
]


@dataclass(frozen=True)
class SourceTrajectory:
    """Worldline of a charge e, parameterized by its proper time.

    ``position``, ``velocity`` and ``acceleration`` are callables of tau;
    the velocity may also be called with a 1-D array of tau.  A result of
    shape (3, k) or (k, 3) for k values of tau is used as the velocities
    there; any other result, or an exception, makes the retarded-time
    solve call it with one tau at a time.
    """

    e: float
    position: Callable[[float], np.ndarray]
    velocity: Callable[[float], np.ndarray]
    acceleration: Callable[[float], np.ndarray]
    tau_min: float = -math.inf
    tau_max: float = math.inf
    units: UnitSystem = NATURAL
    # (t0, t1) -> int_{t0}^{t1} b ds of the Newton solve, set by the
    # constructor that tabulates it; None takes the general Gauss-Lobatto route
    _path: Optional[Callable[[float, float], float]] = field(
        default=None, init=False, repr=False, compare=False
    )
    # (x, tau) -> tau' at points x of shape (..., 3), set by the constructors
    # of straight worldlines, whose callables also take arrays of tau;
    # None takes the Newton solve
    _retarded: Optional[Callable[[np.ndarray, float], np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def x(self, tau: float) -> np.ndarray:
        return _vec(self.position(tau))

    def u(self, tau: float) -> np.ndarray:
        return _vec(self.velocity(tau))

    def a(self, tau: float) -> np.ndarray:
        return _vec(self.acceleration(tau))

    def b(self, tau: float) -> float:
        u = self.u(tau)
        return math.sqrt(self.units.c**2 + u @ u)

    @classmethod
    def static(cls, e: float, x0, units: UnitSystem = NATURAL) -> "SourceTrajectory":
        """Charge at rest at x0: the uniform worldline with u = 0."""
        return cls.uniform(e, x0, np.zeros(3), units)

    @classmethod
    def uniform(cls, e: float, x0, u, units: UnitSystem = NATURAL) -> "SourceTrajectory":
        """Charge moving with constant proper velocity u through x0 at tau = 0."""
        x0 = _vec(x0)
        u = _vec(u)
        zero = np.zeros(3)
        traj = cls(
            e=e,
            position=lambda tau: x0 + np.multiply.outer(tau, u),
            velocity=lambda tau: u,
            acceleration=lambda tau: zero,
            units=units,
        )
        return traj._straight(x0, u)

    @classmethod
    def from_samples(
        cls, e: float, tau_grid, positions, units: UnitSystem = NATURAL
    ) -> "SourceTrajectory":
        """Not-a-knot cubic-spline worldline through sampled positions.

        Velocity and acceleration come from the spline derivatives; beyond
        either end of the grid the end cubics extrapolate.  The grid needs
        at least two finite, strictly increasing values and finite
        positions, or ``DomainError`` is raised; resolution is the
        caller's responsibility.
        """
        tau_grid = np.asarray(tau_grid, dtype=float)
        positions = np.asarray(positions, dtype=float)
        if tau_grid.ndim != 1 or tau_grid.size < 2:
            raise DomainError("sample grid must hold at least two values")
        if not np.isfinite(tau_grid).all() or np.any(np.diff(tau_grid) <= 0.0):
            raise DomainError("sample grid must be finite and strictly increasing")
        if positions.shape != (tau_grid.size, 3):
            raise DomainError("positions must have shape (len(tau_grid), 3)")
        if not np.isfinite(positions).all():
            raise DomainError("sampled positions must be finite")
        spline = _not_a_knot_table(tau_grid, positions)
        velocity = spline[:, :3] * np.array([[3.0], [2.0], [1.0]])
        traj = cls(
            e=e,
            position=_spline_evaluator(tau_grid, spline),
            velocity=_spline_evaluator(tau_grid, velocity),
            acceleration=_spline_evaluator(tau_grid, spline[:, :2] * np.array([[6.0], [2.0]])),
            tau_min=float(tau_grid[0]),
            tau_max=float(tau_grid[-1]),
            units=units,
        )
        # int b ds from tau_grid[0]: one 20-point Gauss-Legendre rule per knot
        # interval, where u is a quadratic, cumulated once, plus the partial
        # interval up to t; rule k evaluates the velocity of knot interval k
        nodes, weights = _gauss_legendre(20)
        inner = tau_grid[1:-1]

        def rule(k, start, stop):
            half = 0.5 * (stop - start)
            tau = (start + half)[..., None] + half[..., None] * nodes
            u = _horner(velocity[k][..., None, :, :], tau - tau_grid[k][..., None])
            return half * (np.sqrt(units.c**2 + np.sum(u * u, axis=-1)) @ weights)

        whole = rule(np.arange(inner.size + 1), tau_grid[:-1], tau_grid[1:])
        cumulative = np.concatenate([[0.0], np.cumsum(whole)])

        def antiderivative(t):
            k = np.searchsorted(inner, t, side="right")
            return cumulative[k] + rule(k, tau_grid[k], t)

        def path(t0, t1):
            f0, f1 = antiderivative(np.array([t0, t1]))
            return float(f1 - f0)

        object.__setattr__(traj, "_path", path)
        return traj

    def _straight(self, x0: np.ndarray, u: np.ndarray) -> "SourceTrajectory":
        """Attach the retarded-time solve of the worldline x0 + u tau.

        tau' = tau - d, with d the positive root of
        c^2 d^2 - 2 (r0.u) d - r0^2 = 0 and r0 = x - x0 - u tau.  With
        q = r0.u + sign(r0.u) sqrt((r0.u)^2 + c^2 r0^2) the root is q/c^2
        when q > 0 and -r0^2/q otherwise: neither form cancels, and neither
        divides by zero off the worldline.
        """
        c2 = self.units.c**2

        def retarded(x, tau):
            r0 = x - (x0 + u * tau)
            ru = _dot(r0, u)
            r2 = _dot(r0, r0)
            q = ru + np.copysign(np.sqrt(ru * ru + c2 * r2), ru)
            return tau - np.where(q > 0.0, q / c2, -r2 / q)

        object.__setattr__(self, "_retarded", retarded)
        return self


def _not_a_knot_table(t, y):
    """Coefficients (m - 1, 4, 3) of the not-a-knot cubic spline through y (m, 3).

    Row k holds the cubic on [t[k], t[k + 1]] in powers of tau - t[k],
    highest first.  Two samples give the line and three the parabola
    through them.  From four on, the third derivative is also continuous
    at t[1] and t[m - 2] (de Boor, *A Practical Guide to Splines*, ch. IV),
    and the knot slopes solve one tridiagonal system, whose matrix depends
    on t alone, by a Thomas sweep.
    """
    m = t.size
    h = np.diff(t)[:, None]
    slope = np.diff(y, axis=0) / h
    if m == 2:
        s = slope[[0, 0]]
    elif m == 3:
        mid = (h[1] * slope[0] + h[0] * slope[1]) / (h[0] + h[1])
        s = np.array([2.0 * slope[0] - mid, mid, 2.0 * slope[1] - mid])
    else:
        d0, d1 = t[2] - t[0], t[-1] - t[-3]
        rhs = np.empty((m, 3))
        rhs[0] = ((h[0] + 2.0 * d0) * h[1] * slope[0] + h[0] ** 2 * slope[1]) / d0
        rhs[1:-1] = 3.0 * (h[1:] * slope[:-1] + h[:-1] * slope[1:])
        rhs[-1] = (h[-1] ** 2 * slope[-2] + (2.0 * d1 + h[-1]) * h[-2] * slope[-1]) / d1
        # row i: lower[i] s[i - 1] + diag[i] s[i] + upper[i] s[i + 1] = rhs[i]
        hs = h[:, 0].tolist()
        lower = [0.0] + hs[1:] + [float(d1)]
        diag = [hs[1]] + [2.0 * (a + b) for a, b in zip(hs, hs[1:])] + [hs[-2]]
        upper = [float(d0)] + hs[:-1]
        cols = rhs.T.tolist()
        for i in range(1, m):
            w = lower[i] / diag[i - 1]
            diag[i] -= w * upper[i - 1]
            for r in cols:
                r[i] -= w * r[i - 1]
        for r in cols:
            r[-1] /= diag[-1]
            for i in range(m - 2, -1, -1):
                r[i] = (r[i] - upper[i] * r[i + 1]) / diag[i]
        s = np.array(cols).T
    c = (s[:-1] + s[1:] - 2.0 * slope) / h
    return np.stack([c / h, (slope - s[:-1]) / h - c, s[:-1], y[:-1]], axis=1)


def _horner(coef, dt):
    """The 3-vector polynomials coef (..., p, 3), highest power first, at dt (...)."""
    dt = dt[..., None]
    value = coef[..., 0, :]
    for j in range(1, coef.shape[-2]):
        value = value * dt + coef[..., j, :]
    return value


def _spline_evaluator(t, table):
    """tau -> the piecewise polynomial table (m - 1, p, 3) on the knots t at tau.

    A float tau returns shape (3,), from ``bisect`` and Horner in Python
    floats; an array tau returns tau.shape + (3,).  Both search the
    interior knots, so a tau outside [t[0], t[-1]] takes the end cubic.
    """
    inner = t[1:-1]
    # one flat list of floats: a list per row would be (m - 1) p containers
    # that live as long as the source, reach the collector's oldest
    # generation and so set off full collections (about 8x as many in a
    # field_map run, each some 20 ms)
    inner_list, knots, flat = inner.tolist(), t.tolist(), table.ravel().tolist()
    width = 3 * table.shape[1]

    def at(tau):
        if isinstance(tau, float):
            k = bisect.bisect_right(inner_list, tau)
            dt = tau - knots[k]
            i = width * k
            x, y, z = flat[i:i + 3]
            for j in range(i + 3, i + width, 3):
                x, y, z = x * dt + flat[j], y * dt + flat[j + 1], z * dt + flat[j + 2]
            return np.array([x, y, z])
        tau = np.asarray(tau, dtype=float)
        k = np.searchsorted(inner, tau, side="right")
        return _horner(table[k], tau - t[k])

    return at


@dataclass(frozen=True, eq=False)
class FieldGeometry:
    """Retardation geometry at field points: r, |r|, s, r_u and b.

    r and r_u have shape (3,) or (N, 3), the others () or (N,); b is one
    value for a source whose speed is one value.
    """

    r: np.ndarray
    r_mag: np.ndarray
    s: np.ndarray
    r_u: np.ndarray
    b: np.ndarray


def _col(v):
    """v with a trailing axis, to scale the rows of a (..., 3) array."""
    return np.asarray(v)[..., None]


# rules one general-path solve may spend: _PATH_RULES, plus _PATH_RULES_PER_TAU
# for each unit of tau its path integrals cover.  A resolved b takes rules in
# proportion to that span, which grows with the distance to the field point:
# about 6 per unit for the oscillating sources of the tests and 180 for a
# spline velocity with knots 0.25 apart, at distances from 3 to 1000
_PATH_RULES = 2000
_PATH_RULES_PER_TAU = 5000


@functools.cache
def _gauss_lobatto_20():
    """Nodes and weights of the 20-point Gauss-Lobatto rule on [-1, 1]."""
    p = np.polynomial.legendre.Legendre.basis(19)
    nodes = p.deriv().roots()
    nodes = np.concatenate([[-1.0], 0.5 * (nodes - nodes[::-1]), [1.0]])
    return nodes, 2.0 / (20 * 19 * p(nodes) ** 2)


def _general_path(traj: SourceTrajectory, tol: float) -> Callable[[float, float], float]:
    """int_{t0}^{t1} b ds for a worldline given only by callables.

    20-point Gauss-Lobatto panels, each split in halves until the halves
    agree with the whole panel to ``tol`` absolute or 1e-14 relative: one
    rule over a long stretch of an oscillating b can miss by 1e-2.  The
    rule takes the panel ends as nodes, so a jump or kink in the velocity
    shows in the halves wherever it lies; with Gauss-Legendre nodes a jump
    between a panel end and the outermost node changes neither the whole
    rule nor its halves.  After 40 halvings a panel's halves are taken as
    they are.  An interval inside a panel that agreed with its halves (a
    Newton increment inside the bracket) takes one rule: b is resolved
    there.  One solve spends at most ``_PATH_RULES`` rules plus
    ``_PATH_RULES_PER_TAU`` per unit of tau covered by its ``path`` calls,
    and a b that is not finite at any node ends it: both raise
    ``RetardationError``.

    A rule calls the velocity once with all 20 nodes when it returns a
    float array of shape (3, 20) or (20, 3) whose b agrees with
    ``traj.b`` at one node to 1e-13 relative on the first call; otherwise
    (an exception, another shape) this solve calls ``traj.b`` node by node.
    A non-finite b from the array call raises at once; it is not retried
    node by node.
    """
    nodes, weights = _gauss_lobatto_20()
    nodes = 1.0 + nodes
    scalar_nodes = nodes.tolist()
    c2 = traj.units.c**2
    array_ok = None  # whether the velocity takes the node array; None: untried
    budget = _PATH_RULES

    def b_nodes(t):
        """b at the nodes t from one velocity call, or None."""
        nonlocal array_ok
        # a velocity written for one tau (a branch on tau, max(tau, 0)) raises
        # on an array; a genuine error raises again on the scalar route
        try:
            u = np.asarray(traj.velocity(t))
        except Exception:
            return None
        if u.dtype.kind != "f" or u.shape not in ((3, t.size), (t.size, 3)):
            return None
        b = np.sqrt(c2 + np.sum(u * u, axis=0 if u.shape[0] == 3 else 1))
        if array_ok is None:
            check = traj.b(float(t[10]))
            if not abs(b[10] - check) <= 1e-13 * check:
                return None
            array_ok = True
        return b

    def rule(t0, t1):
        nonlocal array_ok, budget
        budget -= 1
        if budget < 0:
            raise RetardationError("path integral unresolved")
        half = 0.5 * (t1 - t0)
        b = b_nodes(t0 + half * nodes) if array_ok is not False else None
        if b is None:
            array_ok = False
            b = np.array([traj.b(t0 + half * t) for t in scalar_nodes])
        if not np.isfinite(b).all():
            raise RetardationError("collaborative speed b is not finite on the path")
        return half * (b @ weights)

    resolved = []  # (start, end) of the panels that agreed with their halves

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
        nonlocal budget
        budget += _PATH_RULES_PER_TAU * abs(t1 - t0)
        whole = rule(t0, t1)
        a, b = min(t0, t1), max(t0, t1)
        if any(start <= a and b <= end for start, end in resolved):
            return float(whole)
        return float(panel(t0, t1, whole, 0))

    return path


def _require_finite(x, tau) -> None:
    """Raise DomainError unless tau and every coordinate of the field points x are finite."""
    if not np.isfinite(x).all():
        raise DomainError("field point coordinates must be finite")
    if not math.isfinite(tau):
        raise DomainError(f"tau must be finite, got {tau}")


def _on_worldline(x, xbar) -> bool:
    """Whether any field point x (..., 3) lies within rounding of xbar."""
    r = x - xbar
    return bool(np.any(np.sqrt(_dot(r, r)) < 1e-14 * np.maximum(1.0, np.sqrt(_dot(x, x)))))


def _closed_form_retarded(x, tau: float, traj: SourceTrajectory):
    """tau' at every point of x (..., 3) on a straight worldline, which spans all tau."""
    if _on_worldline(x, traj.position(tau)):
        raise DegenerateGeometryError("field point lies on the source worldline")
    tau_ret = traj._retarded(x, tau)
    if _on_worldline(x, traj.position(tau_ret)):
        raise DegenerateGeometryError("field point lies on the source worldline")
    return tau_ret


def retarded_time(x, tau: float, traj: SourceTrajectory) -> float:
    """Largest tau' < tau from which a signal reaches (x, tau).

    On a static or uniform source, the root of the quadratic the
    condition becomes (see ``SourceTrajectory._straight``).  Otherwise
    solves gap(tau') = int_{tau'}^{tau} b ds - |x - xbar(tau')| = 0 by
    Newton steps on the exact derivative gap' = -(b/|r|) s inside a
    bracket, bisecting when a step leaves it.  The gap is strictly
    monotone because b > |u| along any worldline (s > 0), so the retarded
    time is unique.  The path integral comes from the trajectory's own
    path function, or for a worldline given only by callables as a
    running sum over the iterates.  Both routes raise the same errors.
    A non-finite field point or tau raises ``DomainError``.
    """
    x = _vec(x)
    _require_finite(x, tau)
    if traj._retarded is not None:
        return float(_closed_form_retarded(x, tau, traj))
    if not traj.tau_min <= tau <= traj.tau_max:
        raise RetardationError(f"tau = {tau} outside trajectory interval")
    scale = max(1.0, abs(tau))
    xtol, rtol = 1e-12 * scale, 4.0 * float(np.finfo(float).eps)
    r = x - traj.x(tau)
    dist_now = math.sqrt(r @ r)
    if dist_now < 1e-14 * max(1.0, math.sqrt(x @ x)):
        raise DegenerateGeometryError("field point lies on the source worldline")
    c = traj.units.c
    c2 = c**2
    if traj._path is not None:
        # tabulated: int_t^tau b ds in one call, with one rounding
        def path_to(t, t_prev, path_prev):
            return traj._path(t, tau)
    else:
        # a path error of tol shifts tau' by about tol |r| / (b s)
        increment = _general_path(traj, 1e-2 * c * xtol)

        def path_to(t, t_prev, path_prev):
            return path_prev + increment(t, t_prev)

    # gap(tau) = -dist < 0 and gap increases as tau' moves backward;
    # a probe that fails to bracket is a tighter upper end
    hi, path_hi, gap_hi = tau, 0.0, -dist_now
    lo, path_lo = tau, 0.0
    step = max(dist_now / c, 1e-6 * scale)
    for _ in range(200):
        probe = max(tau - step, traj.tau_min)
        path_lo = path_to(probe, lo, path_lo)
        lo = probe
        r = x - traj.x(lo)
        gap_lo = path_lo - math.sqrt(r @ r)
        if gap_lo > 0.0:
            break
        if lo == traj.tau_min:
            if gap_lo < 0.0:
                raise RetardationError(
                    "trajectory interval too short to contain the retarded time"
                )
            break
        hi, path_hi, gap_hi = lo, path_lo, gap_lo
        step *= 2.0
    else:
        raise RetardationError("failed to bracket the retarded time")

    # from the bracket end with the smaller |gap|; path_t = int_t^tau b ds.
    # Bisect when a Newton step leaves the bracket or is longer than half
    # the step before it, so the bracket at least halves every two steps.
    t, path_t = (lo, path_lo) if gap_lo < -gap_hi else (hi, path_hi)
    last_step = hi - lo
    for _ in range(200):
        r = x - traj.x(t)
        r_mag = math.sqrt(r @ r)
        gap = path_t - r_mag
        if gap == 0.0:
            break
        if gap > 0.0:
            lo = t
        else:
            hi = t
        # gap' = -(b/|r|) s < 0, unless rounding cancels s at |u| >> c;
        # b as SourceTrajectory.b forms it, from the same velocity call
        slope = 0.0
        if r_mag > 0.0:
            u = traj.u(t)
            slope = float(r @ u) / r_mag - math.sqrt(c2 + u @ u)
        # a step below one ulp leaves new == t, which ends the solve
        new = t - gap / slope if slope < 0.0 else math.nan  # nan: bisect
        if not (lo <= new <= hi and 2.0 * abs(new - t) <= last_step):
            new = 0.5 * (lo + hi)
        last_step = abs(new - t)
        if last_step <= xtol + rtol * abs(new):
            # converged: the path integral up to new is not needed
            t = new
            r = x - traj.x(t)
            r_mag = math.sqrt(r @ r)
            break
        path_t = path_to(new, t, path_t)
        t = new
    else:
        raise RetardationError("retarded time did not converge")
    if r_mag < 1e-14 * max(1.0, math.sqrt(x @ x)):
        raise DegenerateGeometryError("field point lies on the source worldline")
    return float(t)


def _source_at(tau_ret, traj: SourceTrajectory):
    """Position, velocity and acceleration of the source at tau_ret.

    One call each for a float or a straight worldline, whose callables
    take arrays; one call per point otherwise.
    """
    if traj._retarded is not None:
        return traj.position(tau_ret), traj.velocity(tau_ret), traj.acceleration(tau_ret)
    if np.ndim(tau_ret) == 0:
        return traj.x(tau_ret), traj.u(tau_ret), traj.a(tau_ret)
    return tuple(np.array([f(t) for t in tau_ret]) for f in (traj.x, traj.u, traj.a))


def _geometry(r, u, c: float) -> FieldGeometry:
    """Geometry of the separations r (..., 3) from a source of velocity u."""
    r_mag = np.sqrt(_dot(r, r))
    if np.any(r_mag <= 0.0):
        raise DegenerateGeometryError("field point lies on the source worldline")
    b = np.sqrt(c**2 + _dot(u, u))
    s = r_mag - _dot(r, u) / b
    if np.any(s <= 0.0):
        raise SingularGeometryError(f"non-positive retardation scale s = {np.min(s)}")
    r_u = r - _col(r_mag / b) * u
    return FieldGeometry(r=r, r_mag=r_mag, s=s, r_u=r_u, b=b)


def field_geometry(x, tau_ret, traj: SourceTrajectory) -> FieldGeometry:
    """Geometry factors r, s = r - (r.u)/b, r_u = r - (r/b)u at tau'.

    ``x`` is one point of shape (3,) or N points of shape (N, 3);
    ``tau_ret`` a float or N of them.
    """
    xbar, u, _ = _source_at(tau_ret, traj)
    return _geometry(np.asarray(x, dtype=float) - xbar, u, traj.units.c)


def electric_field_terms(geom: FieldGeometry, u, a, e: float):
    """The three E-field terms (velocity, acceleration, longitudinal).

    Each has the shape of ``geom.r``; u and a broadcast against it.
    """
    u = np.asarray(u, dtype=float)
    a = np.asarray(a, dtype=float)
    r, s3, b = geom.r, geom.s**3, geom.b
    t1 = e * geom.r_u * _col(1.0 - _dot(u, u) / b**2) / _col(s3)
    t2 = e * _cross(r, _cross(geom.r_u, a)) / _col(b**2 * s3)
    t3 = e * _col(_dot(u, a)) * _cross(r, _cross(u, r)) / _col(b**4 * s3)
    return t1, t2, t3


def magnetic_field_terms(geom: FieldGeometry, u, a, e: float):
    """The three B-field terms; their sum equals r_hat x E identically.

    Each has the shape of ``geom.r``; u and a broadcast against it.
    """
    u = np.asarray(u, dtype=float)
    a = np.asarray(a, dtype=float)
    r, r_mag, s3, b = geom.r, geom.r_mag, geom.s**3, geom.b
    t1 = e * _cross(r, geom.r_u) * _col(1.0 - _dot(u, u) / b**2) / _col(r_mag * s3)
    t2 = e * _cross(r, _cross(r, _cross(geom.r_u, a))) / _col(r_mag * b**2 * s3)
    t3 = _col(e * r_mag * _dot(u, a)) * _cross(r, u) / _col(b**4 * s3)
    return t1, t2, t3


def electric_field(x, tau: float, traj: SourceTrajectory) -> np.ndarray:
    """E(x, tau) of the trajectory's charge, evaluated at the retarded time."""
    return fields_at(x, tau, traj)[0]


def magnetic_field(x, tau: float, traj: SourceTrajectory) -> np.ndarray:
    """B(x, tau) of the trajectory's charge, evaluated at the retarded time."""
    return fields_at(x, tau, traj)[1]


def fields_at(x, tau: float, traj: SourceTrajectory):
    """(E, B, tau_ret) with the retardation solved once per point.

    ``x`` is one point of shape (3,), giving E and B of shape (3,) and a
    float tau_ret, or N points of shape (N, 3), giving (N, 3) fields and N
    retarded times.  A static or uniform source solves all points in one
    array expression; any other source runs the Newton solve per point.
    A point with a non-finite coordinate, or a non-finite tau, raises
    ``DomainError``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != 3:
        raise DomainError(f"expected a 3-vector or an (N, 3) array, got shape {x.shape}")
    _require_finite(x, tau)
    if traj._retarded is not None:
        tau_ret = _closed_form_retarded(x, tau, traj)
    elif x.ndim == 1:
        tau_ret = retarded_time(x, tau, traj)
    else:
        tau_ret = np.array([retarded_time(point, tau, traj) for point in x])
    xbar, u, a = _source_at(tau_ret, traj)
    geom = _geometry(x - xbar, u, traj.units.c)
    E = np.sum(electric_field_terms(geom, u, a, traj.e), axis=0)
    B = np.sum(magnetic_field_terms(geom, u, a, traj.e), axis=0)
    return E, B, (float(tau_ret) if x.ndim == 1 else tau_ret)


def dissipative_coefficient(u, a, units: UnitSystem = NATURAL) -> float:
    r"""Coefficient :math:`(\mathbf{u}\cdot\mathbf{a})/b^4` of the
    first-order proper-time term in the wave equation.

    Vanishes for unaccelerated motion and for acceleration orthogonal to
    the proper velocity; it is independent of the nature of the force.
    """
    u = _vec(u)
    a = _vec(a)
    b2 = units.c**2 + u @ u
    return float((u @ a) / b2**2)


@dataclass(frozen=True)
class PhotonMassResult:
    """Both bracket forms of the effective mass squared, and mu when real.

    ``bracket_b_form`` uses the derivatives of b; ``bracket_explicit`` the
    expanded (u, u_dot, u_ddot) expression.  A negative bracket is reported
    through ``imaginary`` rather than raised.
    """

    bracket_b_form: float
    bracket_explicit: float
    mu: Optional[float]
    imaginary: bool


def effective_photon_mass(
    u, u_dot, u_ddot, hbar: float = 1.0, units: UnitSystem = NATURAL
) -> PhotonMassResult:
    r"""Effective mass of the scaled wave equation along a trajectory.

    .. math::
        \mu^2 = \frac{\hbar^2}{c^2}\Big[\frac{\ddot b}{2b^3}
                - \frac{3\dot b^2}{4 b^4}\Big]
              = \frac{\hbar^2}{c^2}\Big[
                \frac{\mathbf{u}\cdot\ddot{\mathbf{u}} + \dot{\mathbf{u}}^2}{2 b^4}
                - \frac{5(\mathbf{u}\cdot\dot{\mathbf{u}})^2}{4 b^6}\Big].

    Both brackets are returned; they agree identically.
    """
    u = _vec(u)
    u_dot = _vec(u_dot)
    u_ddot = _vec(u_ddot)
    c = units.c
    b = math.sqrt(c**2 + u @ u)
    b_dot = (u @ u_dot) / b
    b_ddot = (u @ u_ddot + u_dot @ u_dot) / b - (u @ u_dot) ** 2 / b**3
    bracket_b = (hbar**2 / c**2) * (b_ddot / (2.0 * b**3) - 3.0 * b_dot**2 / (4.0 * b**4))
    bracket_ex = (hbar**2 / c**2) * (
        (u @ u_ddot + u_dot @ u_dot) / (2.0 * b**4)
        - 5.0 * (u @ u_dot) ** 2 / (4.0 * b**6)
    )
    mu = math.sqrt(bracket_ex) if bracket_ex >= 0.0 else None
    return PhotonMassResult(
        bracket_b_form=float(bracket_b),
        bracket_explicit=float(bracket_ex),
        mu=mu,
        imaginary=mu is None,
    )
