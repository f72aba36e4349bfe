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

The retarded time is found by Newton steps on the exact derivative of the
gap :math:`\int_{\tau'}^{\tau} b\,ds - |\mathbf{r}|`, which is
:math:`-(b/r)\,s < 0`, inside a bracket, with bisection as the fallback,
to the tolerance :math:`10^{-12}\max(1, |\tau|)`.  The path integral
comes from a function each constructor attaches: :math:`b\,(\tau - \tau')`
exactly for a static or uniform source and a cumulative per-knot
Gauss-Legendre table for a sampled one.  For a worldline given only by
callables, whose velocity may jump or kink, it is a running sum over the
iterates of halved Gauss-Lobatto panels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (
    DegenerateGeometryError,
    DomainError,
    RetardationError,
    SingularGeometryError,
)
from .kinematics import NATURAL, UnitSystem, _vec
from .spectral import _gauss_legendre_20

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

    ``position``, ``velocity`` and ``acceleration`` are callables of tau.
    """

    e: float
    position: Callable[[float], np.ndarray]
    velocity: Callable[[float], np.ndarray]
    acceleration: Callable[[float], np.ndarray]
    tau_min: float = -math.inf
    tau_max: float = math.inf
    units: UnitSystem = NATURAL
    # (t0, t1) -> int_{t0}^{t1} b ds, set by the constructors that know it
    # in closed form or by table; None takes the general Gauss-Legendre route
    _path: Optional[Callable[[float, float], float]] = field(
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
        """Charge at rest at x0."""
        x0 = _vec(x0)
        zero = np.zeros(3)
        traj = cls(
            e=e,
            position=lambda tau: x0,
            velocity=lambda tau: zero,
            acceleration=lambda tau: zero,
            units=units,
        )
        b = traj.b(0.0)
        return traj._with_path(lambda t0, t1: b * (t1 - t0))

    @classmethod
    def uniform(cls, e: float, x0, u, units: UnitSystem = NATURAL) -> "SourceTrajectory":
        """Charge moving with constant proper velocity u through x0 at tau = 0."""
        x0 = _vec(x0)
        u = _vec(u)
        zero = np.zeros(3)
        traj = cls(
            e=e,
            position=lambda tau: x0 + u * tau,
            velocity=lambda tau: u,
            acceleration=lambda tau: zero,
            units=units,
        )
        b = traj.b(0.0)
        return traj._with_path(lambda t0, t1: b * (t1 - t0))

    @classmethod
    def from_samples(
        cls, e: float, tau_grid, positions, units: UnitSystem = NATURAL
    ) -> "SourceTrajectory":
        """Cubic-spline worldline through sampled positions.

        Velocity and acceleration come from the spline derivatives; the
        grid must be strictly increasing and resolution is the caller's
        responsibility.
        """
        tau_grid = np.asarray(tau_grid, dtype=float)
        positions = np.asarray(positions, dtype=float)
        if tau_grid.ndim != 1 or np.any(np.diff(tau_grid) <= 0.0):
            raise DomainError("sample grid must be strictly increasing")
        if positions.shape != (tau_grid.size, 3):
            raise DomainError("positions must have shape (len(tau_grid), 3)")
        spline = CubicSpline(tau_grid, positions, axis=0)
        d1 = spline.derivative(1)
        d2 = spline.derivative(2)
        traj = cls(
            e=e,
            position=lambda tau: spline(tau),
            velocity=lambda tau: d1(tau),
            acceleration=lambda tau: d2(tau),
            tau_min=float(tau_grid[0]),
            tau_max=float(tau_grid[-1]),
            units=units,
        )
        # int b ds from tau_grid[0]: one 20-point Gauss-Legendre rule per knot
        # interval, where u is a quadratic, cumulated once, plus the partial
        # interval up to t
        nodes, weights = _gauss_legendre_20()

        def rule(start, stop):
            half = 0.5 * (stop - start)
            u = d1((start + half)[..., None] + half[..., None] * nodes)
            return half * (np.sqrt(units.c**2 + np.sum(u * u, axis=-1)) @ weights)

        cumulative = np.concatenate([[0.0], np.cumsum(rule(tau_grid[:-1], tau_grid[1:]))])

        def antiderivative(t):
            k = np.clip(np.searchsorted(tau_grid, t, side="right") - 1, 0, tau_grid.size - 2)
            return cumulative[k] + rule(tau_grid[k], t)

        def path(t0, t1):
            f0, f1 = antiderivative(np.array([t0, t1]))
            return float(f1 - f0)

        return traj._with_path(path)

    def _with_path(self, path: Callable[[float, float], float]) -> "SourceTrajectory":
        object.__setattr__(self, "_path", path)
        return self


@dataclass(frozen=True)
class FieldGeometry:
    """Retardation geometry at a field point: r, |r|, s and r_u."""

    r: np.ndarray
    r_mag: float
    s: float
    r_u: np.ndarray
    b: float


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
    there.
    """
    nodes, weights = _gauss_lobatto_20()
    nodes = (1.0 + nodes).tolist()

    def rule(t0, t1):
        half = 0.5 * (t1 - t0)
        return half * (np.array([traj.b(t0 + half * t) for t in nodes]) @ weights)

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
        whole = rule(t0, t1)
        a, b = min(t0, t1), max(t0, t1)
        if any(start <= a and b <= end for start, end in resolved):
            return float(whole)
        return float(panel(t0, t1, whole, 0))

    return path


def retarded_time(x, tau: float, traj: SourceTrajectory) -> float:
    """Largest tau' < tau from which a signal reaches (x, tau).

    Solves gap(tau') = int_{tau'}^{tau} b ds - |x - xbar(tau')| = 0 by
    Newton steps on the exact derivative gap' = -(b/|r|) s inside a
    bracket, bisecting when a step leaves it.  The gap is strictly
    monotone because b > |u| along any worldline (s > 0), so the retarded
    time is unique.  The path integral comes from the trajectory's own
    path function, or for a worldline given only by callables as a
    running sum over the iterates.
    """
    x = _vec(x)
    if not traj.tau_min <= tau <= traj.tau_max:
        raise RetardationError(f"tau = {tau} outside trajectory interval")
    scale = max(1.0, abs(tau))
    xtol, rtol = 1e-12 * scale, 4.0 * float(np.finfo(float).eps)
    dist_now = float(np.linalg.norm(x - traj.x(tau)))
    if dist_now < 1e-14 * max(1.0, float(np.linalg.norm(x))):
        raise DegenerateGeometryError("field point lies on the source worldline")
    c = traj.units.c
    if traj._path is not None:
        # exact or tabulated: int_t^tau b ds in one call, with one rounding
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
        gap_lo = path_lo - float(np.linalg.norm(x - traj.x(lo)))
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
        r_mag = float(np.linalg.norm(r))
        gap = path_t - r_mag
        if gap == 0.0:
            break
        if gap > 0.0:
            lo = t
        else:
            hi = t
        # gap' = -(b/|r|) s < 0, unless rounding cancels s at |u| >> c
        slope = float(r @ traj.u(t)) / r_mag - traj.b(t) if r_mag > 0.0 else 0.0
        # a step below one ulp leaves new == t, which ends the solve
        new = t - gap / slope if slope < 0.0 else math.nan  # nan: bisect
        if not (lo <= new <= hi and 2.0 * abs(new - t) <= last_step):
            new = 0.5 * (lo + hi)
        last_step = abs(new - t)
        if last_step <= xtol + rtol * abs(new):
            # converged: the path integral up to new is not needed
            t = new
            r_mag = float(np.linalg.norm(x - traj.x(t)))
            break
        path_t = path_to(new, t, path_t)
        t = new
    else:
        raise RetardationError("retarded time did not converge")
    if r_mag < 1e-14 * max(1.0, float(np.linalg.norm(x))):
        raise DegenerateGeometryError("field point lies on the source worldline")
    return float(t)


def field_geometry(x, tau_ret: float, traj: SourceTrajectory) -> FieldGeometry:
    """Geometry factors r, s = r - (r.u)/b, r_u = r - (r/b)u at tau'."""
    x = _vec(x)
    r = x - traj.x(tau_ret)
    r_mag = float(np.linalg.norm(r))
    if r_mag <= 0.0:
        raise DegenerateGeometryError("field point lies on the source worldline")
    u = traj.u(tau_ret)
    b = traj.b(tau_ret)
    s = r_mag - (r @ u) / b
    if s <= 0.0:
        raise SingularGeometryError(f"non-positive retardation scale s = {s}")
    r_u = r - (r_mag / b) * u
    return FieldGeometry(r=r, r_mag=r_mag, s=float(s), r_u=r_u, b=b)


def electric_field_terms(geom: FieldGeometry, u, a, e: float):
    """The three E-field terms (velocity, acceleration, longitudinal)."""
    u = _vec(u)
    a = _vec(a)
    r, s, b = geom.r, geom.s, geom.b
    s3 = s**3
    t1 = e * geom.r_u * (1.0 - (u @ u) / b**2) / s3
    t2 = e * np.cross(r, np.cross(geom.r_u, a)) / (b**2 * s3)
    t3 = e * (u @ a) * np.cross(r, np.cross(u, r)) / (b**4 * s3)
    return t1, t2, t3


def magnetic_field_terms(geom: FieldGeometry, u, a, e: float):
    """The three B-field terms; their sum equals r_hat x E identically."""
    u = _vec(u)
    a = _vec(a)
    r, r_mag, s, b = geom.r, geom.r_mag, geom.s, geom.b
    s3 = s**3
    t1 = e * np.cross(r, geom.r_u) * (1.0 - (u @ u) / b**2) / (r_mag * s3)
    t2 = e * np.cross(r, np.cross(r, np.cross(geom.r_u, a))) / (r_mag * b**2 * s3)
    t3 = e * r_mag * (u @ a) * np.cross(r, u) / (b**4 * s3)
    return t1, t2, t3


def electric_field(x, tau: float, traj: SourceTrajectory) -> np.ndarray:
    """E(x, tau) of the trajectory's charge, evaluated at the retarded time."""
    return fields_at(x, tau, traj)[0]


def magnetic_field(x, tau: float, traj: SourceTrajectory) -> np.ndarray:
    """B(x, tau) of the trajectory's charge, evaluated at the retarded time."""
    return fields_at(x, tau, traj)[1]


def fields_at(x, tau: float, traj: SourceTrajectory):
    """(E, B, tau_ret) with the retardation solved once."""
    tau_ret = retarded_time(x, tau, traj)
    geom = field_geometry(x, tau_ret, traj)
    u = traj.u(tau_ret)
    a = traj.a(tau_ret)
    E = np.sum(electric_field_terms(geom, u, a, traj.e), axis=0)
    B = np.sum(magnetic_field_terms(geom, u, a, traj.e), axis=0)
    return E, B, tau_ret


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
    if bracket_ex >= 0.0:
        return PhotonMassResult(
            bracket_b_form=float(bracket_b),
            bracket_explicit=float(bracket_ex),
            mu=math.sqrt(bracket_ex),
            imaginary=False,
        )
    return PhotonMassResult(
        bracket_b_form=float(bracket_b),
        bracket_explicit=float(bracket_ex),
        mu=None,
        imaginary=True,
    )
