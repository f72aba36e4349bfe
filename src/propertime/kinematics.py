r"""Dual-clock kinematics.

The same motion can be parameterized by the observer clock :math:`t` or by
the clock carried by the observed system (its proper time :math:`\tau`).
The two velocities

.. math:: \mathbf{w} = d\mathbf{x}/dt, \qquad \mathbf{u} = d\mathbf{x}/d\tau

are related through the collaborative light speed
:math:`b = \sqrt{c^2 + \mathbf{u}^2}` by the identity
:math:`\mathbf{w}/c = \mathbf{u}/b`.  Observer speeds are bounded by
:math:`c`; proper speeds are unbounded.

All vectors are numpy arrays of shape (3,).  Units are Gaussian with a
configurable speed of light (natural units ``c = 1`` by default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError

__all__ = [
    "UnitSystem",
    "NATURAL",
    "SI",
    "KinematicState",
    "ElapsedTime",
    "gamma",
    "proper_from_observer",
    "observer_from_proper",
    "collaborative_speed",
    "elapsed_observer_time",
    "RedshiftResult",
    "redshift_z",
]


@dataclass(frozen=True)
class UnitSystem:
    """Unit conventions for the whole library.

    ``c`` is the vacuum light speed in length/time; charges follow the
    Gaussian convention throughout.
    """

    c: float = 1.0

    def __post_init__(self):
        if not self.c > 0.0:
            raise DomainError(f"speed of light must be positive, got {self.c}")


NATURAL = UnitSystem(c=1.0)
SI = UnitSystem(c=299792458.0)


def _vec(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise DomainError(f"expected a 3-vector, got shape {v.shape}")
    return v


# components of a x b: a[_NEXT] b[_PREV] - a[_PREV] b[_NEXT]
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cross(a, b):
    """a x b over the last axis, broadcasting the leading axes.

    The same products and differences as np.cross, at a fifth of its call
    overhead on 3-vectors.
    """
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


def _dot(a, b):
    """a . b over the last axis, broadcasting the leading axes.

    One (1, 3) @ (3, 1) product per point, the same dot as ``a @ b`` on
    two 3-vectors (``einsum`` and ``sum`` round differently).
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def gamma(w, units: UnitSystem = NATURAL) -> float:
    r"""Lorentz factor :math:`\gamma(w) = 1/\sqrt{1 - w^2/c^2}`.

    Raises :class:`DomainError` for a NaN speed or one at or above ``c``.
    """
    w = _vec(w)
    beta2 = (w @ w) / units.c**2
    if not beta2 < 1.0:  # NaN fails it too
        raise DomainError(f"|w| = {np.sqrt(w @ w)} is not below c = {units.c}")
    return float(1.0 / np.sqrt(1.0 - beta2))


def proper_from_observer(w, units: UnitSystem = NATURAL) -> np.ndarray:
    r""":math:`\mathbf{u} = \gamma(w)\,\mathbf{w}`; unbounded above."""
    w = _vec(w)
    return gamma(w, units) * w


def observer_from_proper(u, units: UnitSystem = NATURAL) -> np.ndarray:
    r""":math:`\mathbf{w} = \mathbf{u}\,c/b`; always strictly below ``c``."""
    u = _vec(u)
    return u * units.c / collaborative_speed(u, units)


def collaborative_speed(u, units: UnitSystem = NATURAL) -> float:
    r""":math:`b = \sqrt{c^2 + \mathbf{u}\cdot\mathbf{u}} \ge c`.

    Satisfies ``b == gamma(observer_from_proper(u)) * c`` identically.
    """
    u = _vec(u)
    return float(np.sqrt(units.c**2 + u @ u))


@dataclass(frozen=True, eq=False)
class KinematicState:
    """Snapshot of a moving point on both clocks.

    Carries position, proper velocity and the two time readings; the
    observer velocity ``w`` and the collaborative speed ``b`` are derived.
    """

    x: np.ndarray
    u: np.ndarray
    tau: float
    t: float
    units: UnitSystem = NATURAL

    def __post_init__(self):
        object.__setattr__(self, "x", _vec(self.x))
        object.__setattr__(self, "u", _vec(self.u))

    @property
    def b(self) -> float:
        return collaborative_speed(self.u, self.units)

    @property
    def w(self) -> np.ndarray:
        return observer_from_proper(self.u, self.units)


class ElapsedTime(NamedTuple):
    t: float
    b_bar: float


def elapsed_observer_time(tau_grid, b_samples, units: UnitSystem = NATURAL) -> ElapsedTime:
    r"""Observer time elapsed over a sampled proper-time interval.

    Integrates :math:`t = (1/c)\int b(s)\,ds` with composite Simpson on the
    given grid and also returns the mean value :math:`\bar b = c\,t/\Delta\tau`,
    the single effective light speed that reproduces the same elapsed time.
    """
    tau = np.asarray(tau_grid, dtype=float)
    b = np.asarray(b_samples, dtype=float)
    if tau.ndim != 1 or tau.size < 2 or tau.shape != b.shape:
        raise DomainError("need matching 1-D grids with at least two samples")
    if np.any(np.diff(tau) <= 0.0):
        raise DomainError("proper-time grid must be strictly increasing")
    if np.any(b < units.c):
        raise DomainError("collaborative speed samples must satisfy b >= c")
    from scipy.integrate import simpson

    t = float(simpson(b, x=tau)) / units.c
    span = tau[-1] - tau[0]
    return ElapsedTime(t=t, b_bar=units.c * t / span)


@dataclass(frozen=True)
class RedshiftResult:
    """z plus the ingredients it was computed from."""

    z: float
    beta: float
    w_mag: float
    u_mag: float
    b: float
    z_small_speed: float


def redshift_z(w=None, u=None, units: UnitSystem = NATURAL) -> RedshiftResult:
    """Doppler redshift z = sqrt((1 + beta)/(1 - beta)) - 1.

    Given the observer velocity, beta = |w|/c; given the proper velocity,
    beta = |u|/b, the identical number.  The small-speed reading z = beta
    is reported alongside.
    """
    if (w is None) == (u is None):
        raise DomainError("provide exactly one of w or u")
    if w is not None:
        w = _vec(w)
        w_mag = float(np.linalg.norm(w))
        beta = w_mag / units.c
        u_mag = gamma(w, units) * w_mag
        b = units.c * math.sqrt(1.0 + (u_mag / units.c) ** 2)
    else:
        u = _vec(u)
        u_mag = float(np.linalg.norm(u))
        b = collaborative_speed(u, units)
        beta = u_mag / b
        w_mag = beta * units.c
    if not beta < 1.0:  # from u, b rounds to |u| above about 7e7 c
        raise DomainError(f"beta = |u|/b rounds to {beta} at |u| = {u_mag}")
    z = math.sqrt((1.0 + beta) / (1.0 - beta)) - 1.0
    return RedshiftResult(
        z=z, beta=beta, w_mag=w_mag, u_mag=u_mag, b=b, z_small_speed=beta
    )
