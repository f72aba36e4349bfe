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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .errors import (
    DegenerateGeometryError,
    DomainError,
    RetardationError,
    SingularGeometryError,
)
from .kinematics import NATURAL, UnitSystem, _vec

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
        return cls(
            e=e,
            position=lambda tau: x0,
            velocity=lambda tau: zero,
            acceleration=lambda tau: zero,
            units=units,
        )

    @classmethod
    def uniform(cls, e: float, x0, u, units: UnitSystem = NATURAL) -> "SourceTrajectory":
        """Charge moving with constant proper velocity u through x0 at tau = 0."""
        x0 = _vec(x0)
        u = _vec(u)
        zero = np.zeros(3)
        return cls(
            e=e,
            position=lambda tau: x0 + u * tau,
            velocity=lambda tau: u,
            acceleration=lambda tau: zero,
            units=units,
        )

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
        return cls(
            e=e,
            position=lambda tau: spline(tau),
            velocity=lambda tau: d1(tau),
            acceleration=lambda tau: d2(tau),
            tau_min=float(tau_grid[0]),
            tau_max=float(tau_grid[-1]),
            units=units,
        )


@dataclass(frozen=True)
class FieldGeometry:
    """Retardation geometry at a field point: r, |r|, s and r_u."""

    r: np.ndarray
    r_mag: float
    s: float
    r_u: np.ndarray
    b: float


def _propagation_path(tau_ret: float, tau: float, traj: SourceTrajectory) -> float:
    # signal path length on the source clock: int_{tau'}^{tau} b ds;
    # the roundoff floor of quad at these tolerances is below the brentq xtol
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(traj.b, tau_ret, tau, epsabs=1e-12, epsrel=1e-12, limit=200)
    return val


def retarded_time(x, tau: float, traj: SourceTrajectory) -> float:
    """Largest tau' < tau from which a signal reaches (x, tau).

    Solves |x - xbar(tau')| = int_{tau'}^{tau} b ds by bracketed root
    finding; the gap function is strictly monotone because b > |u| along
    any worldline, so the retarded time is unique.
    """
    x = _vec(x)
    if not traj.tau_min <= tau <= traj.tau_max:
        raise RetardationError(f"tau = {tau} outside trajectory interval")
    scale = max(1.0, abs(tau))
    dist_now = float(np.linalg.norm(x - traj.x(tau)))
    if dist_now < 1e-14 * max(1.0, float(np.linalg.norm(x))):
        raise DegenerateGeometryError("field point lies on the source worldline")

    def gap(tp: float) -> float:
        return _propagation_path(tp, tau, traj) - float(np.linalg.norm(x - traj.x(tp)))

    # gap(tau) = -dist < 0 and gap increases as tau' moves backward
    step = max(dist_now / traj.units.c, 1e-6 * scale)
    lo = tau - step
    for _ in range(200):
        if lo < traj.tau_min:
            lo = traj.tau_min
            if gap(lo) < 0.0:
                raise RetardationError(
                    "trajectory interval too short to contain the retarded time"
                )
            break
        if gap(lo) > 0.0:
            break
        step *= 2.0
        lo = tau - step
    else:
        raise RetardationError("failed to bracket the retarded time")
    tau_ret = brentq(gap, lo, tau, xtol=1e-12 * scale, rtol=4 * np.finfo(float).eps)
    if np.linalg.norm(x - traj.x(tau_ret)) < 1e-14 * max(1.0, float(np.linalg.norm(x))):
        raise DegenerateGeometryError("field point lies on the source worldline")
    return float(tau_ret)


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
