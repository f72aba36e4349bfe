r"""The proper-time transformation group.

A nonlinear representation of the Lorentz group that leaves the proper
time :math:`\tau` of the observed source fixed for every inertial
observer.  For a boost with velocity :math:`\mathbf{v}` the starred
projection

.. math:: \mathbf{d}^* = \mathbf{d}/\gamma
          - (1 - \gamma)\frac{\mathbf{v}\cdot\mathbf{d}}{\gamma v^2}\mathbf{v}

keeps the component along :math:`\mathbf{v}` and divides the
perpendicular component by :math:`\gamma`.  Events, proper velocities,
accelerations and the collaborative light speed transform as

.. math::
    \mathbf{x}' = \gamma[\mathbf{x}^* - (\mathbf{v}/c)\,\bar b\tau],\quad
    \mathbf{u}' = \gamma[\mathbf{u}^* - (\mathbf{v}/c)\,b],\quad
    \mathbf{a}' = \gamma\{\mathbf{a}^* - \mathbf{v}\,(\mathbf{u}\cdot\mathbf{a})/(bc)\},\quad
    b' = \gamma[b - \mathbf{u}\cdot\mathbf{v}/c],

with inverse forms obtained by priming and flipping the sign of the
:math:`\mathbf{v}` terms.  The consistency :math:`b'^2 = c^2 + u'^2`
holds identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError
from .kinematics import NATURAL, UnitSystem, _vec, collaborative_speed, gamma

__all__ = [
    "BoostParameters",
    "SourceDensities",
    "dstar",
    "boost_event",
    "boost_event_inverse",
    "boost_velocity",
    "boost_velocity_inverse",
    "boost_acceleration",
    "boost_acceleration_inverse",
    "boost_lightspeed",
    "boost_lightspeed_inverse",
    "boost_sources",
    "density_transform_general",
    "convective_density_ratio",
]


@dataclass(frozen=True, eq=False)
class BoostParameters:
    """Relative velocity between two inertial frames, with |v| < c.

    ``v`` is a read-only copy, so gamma, computed by :func:`gamma` (which
    rejects |v| >= c and a NaN v), holds for the life of the boost.
    """

    v: np.ndarray
    units: UnitSystem = NATURAL
    gamma_v: float = field(init=False, repr=False)

    def __post_init__(self):
        v = _vec(self.v).copy()
        v.flags.writeable = False
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "gamma_v", gamma(v, self.units))

    @cached_property
    def inverse(self) -> "BoostParameters":
        """The boost by -v, which undoes this one; its gamma equals this gamma."""
        return BoostParameters(-self.v, self.units)

    @property
    def is_identity(self) -> bool:
        return not np.any(self.v)


def dstar(d, boost: BoostParameters) -> np.ndarray:
    """Starred projection d*: parallel part kept, perpendicular part / gamma.

    v = 0 is the identity (the v**2 denominator is a removable singularity).
    """
    d = _vec(d)
    if boost.is_identity:
        return d.copy()
    g = boost.gamma_v
    v = boost.v
    return d / g - (1.0 - g) * ((v @ d) / (g * (v @ v))) * v


def boost_event(x, tau: float, b_bar: float, boost: BoostParameters) -> np.ndarray:
    """x' = gamma [x* - (v/c) b_bar tau], with b_bar from elapsed_observer_time."""
    x = _vec(x)
    if b_bar < boost.units.c:
        raise DomainError(f"mean collaborative speed {b_bar} below c")
    if boost.is_identity:
        return x.copy()
    return boost.gamma_v * (dstar(x, boost) - (boost.v / boost.units.c) * b_bar * tau)


def boost_event_inverse(x_prime, tau: float, b_bar_prime: float, boost: BoostParameters) -> np.ndarray:
    """x = gamma [x'* + (v/c) b_bar' tau]; undoes :func:`boost_event`.

    The pair composes to the identity for events on a source worldline
    through the spacetime origin, where b_bar' tau / c is the primed-frame
    time of the same event; b_bar' comes from the primed elapsed time (for
    constant velocity, b_bar' = b').
    """
    return boost_event(x_prime, tau, b_bar_prime, boost.inverse)


def boost_velocity(u, boost: BoostParameters) -> np.ndarray:
    """u' = gamma [u* - (v/c) b]; a source at rest is seen with u' = -gamma v."""
    u = _vec(u)
    if boost.is_identity:
        return u.copy()
    b = collaborative_speed(u, boost.units)
    return boost.gamma_v * (dstar(u, boost) - (boost.v / boost.units.c) * b)


def boost_velocity_inverse(u_prime, boost: BoostParameters) -> np.ndarray:
    """u = gamma [u'* + (v/c) b']; undoes :func:`boost_velocity`."""
    return boost_velocity(u_prime, boost.inverse)


def boost_acceleration(a, u, boost: BoostParameters) -> np.ndarray:
    """a' = gamma {a* - v (u.a)/(b c)}."""
    a = _vec(a)
    u = _vec(u)
    if boost.is_identity:
        return a.copy()
    b = collaborative_speed(u, boost.units)
    return boost.gamma_v * (dstar(a, boost) - boost.v * ((u @ a) / (b * boost.units.c)))


def boost_acceleration_inverse(a_prime, u_prime, boost: BoostParameters) -> np.ndarray:
    """a = gamma {a'* + v (u'.a')/(b' c)}; undoes :func:`boost_acceleration`."""
    return boost_acceleration(a_prime, u_prime, boost.inverse)


def boost_lightspeed(b: float, u, boost: BoostParameters) -> float:
    """b' = gamma [b - u.v/c]; equals sqrt(c^2 + u'^2) identically."""
    u = _vec(u)
    if boost.is_identity:
        return float(b)
    return float(boost.gamma_v * (b - (u @ boost.v) / boost.units.c))


def boost_lightspeed_inverse(b_prime: float, u_prime, boost: BoostParameters) -> float:
    """b = gamma [b' + u'.v/c]; undoes :func:`boost_lightspeed`."""
    return boost_lightspeed(b_prime, u_prime, boost.inverse)


@dataclass(frozen=True, eq=False)
class SourceDensities:
    """Charge density, current density and the proper velocity of the source.

    For a convective source the current is tied to the charge flow by
    ``J/c = rho u/b`` exactly; :meth:`convective` builds that case.
    """

    rho: float
    J: np.ndarray
    u: np.ndarray
    units: UnitSystem = NATURAL

    def __post_init__(self):
        object.__setattr__(self, "J", _vec(self.J))
        object.__setattr__(self, "u", _vec(self.u))

    @property
    def b(self) -> float:
        return collaborative_speed(self.u, self.units)

    @classmethod
    def convective(cls, rho: float, u, units: UnitSystem = NATURAL) -> "SourceDensities":
        u = _vec(u)
        b = collaborative_speed(u, units)
        return cls(rho=rho, J=rho * units.c * u / b, u=u, units=units)


def density_transform_general(
    rho: float, J, b: float, b_prime: float, boost: BoostParameters
) -> float:
    """rho' from b' rho' = gamma [b rho - J.v/c], for arbitrary b, b'."""
    J = _vec(J)
    return float(boost.gamma_v * (b * rho - (J @ boost.v) / boost.units.c) / b_prime)


def convective_density_ratio(u, boost: BoostParameters) -> float:
    """rho'/rho for a convective source: (1 - u.v/b^2) / (1 - u.v/(b c))."""
    u = _vec(u)
    b = collaborative_speed(u, boost.units)
    uv = u @ boost.v
    return float((1.0 - uv / b**2) / (1.0 - uv / (b * boost.units.c)))


def boost_sources(s: SourceDensities, boost: BoostParameters) -> SourceDensities:
    """Transform charge and current densities into the primed frame.

    J' = J + (gamma - 1)(J.v) v/v^2 - gamma (b/c) rho v, and rho' follows
    the eliminated form rho' = (rho - J.v/(bc)) / (1 - u.v/(bc)).
    """
    if boost.is_identity:
        return SourceDensities(rho=s.rho, J=s.J.copy(), u=s.u.copy(), units=s.units)
    c = boost.units.c
    g = boost.gamma_v
    v = boost.v
    b = s.b
    J_prime = s.J + (g - 1.0) * ((s.J @ v) / (v @ v)) * v - g * (b / c) * s.rho * v
    rho_prime = (s.rho - (s.J @ v) / (b * c)) / (1.0 - (s.u @ v) / (b * c))
    u_prime = boost_velocity(s.u, boost)
    return SourceDensities(rho=float(rho_prime), J=J_prime, u=u_prime, units=s.units)
