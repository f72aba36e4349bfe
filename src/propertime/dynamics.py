r"""Canonical proper-time single-particle mechanics.

The generator of proper-time evolution shares the phase space of the
observer-time Hamiltonian :math:`H`:

.. math:: K = \frac{H^2}{2mc^2} + \frac{mc^2}{2},

with :math:`H = H_0 + V`, :math:`H_0 = \sqrt{c^2\pi^2 + m^2c^4}` and
:math:`\pi = \mathbf{p} - (e/c)\mathbf{A}`.  Hamilton's equations give

.. math::
    \frac{d\mathbf{x}}{d\tau} = \Big[1 + \frac{V}{H_0}\Big]\frac{\pi}{m}
        = \frac{\pi}{\tilde m},\qquad
    \frac{d\mathbf{p}}{d\tau} = \frac{e}{c}(\mathbf{u}\cdot\nabla)\mathbf{A}
        + \frac{e}{c}\mathbf{u}\times\mathbf{B}
        - \nabla V\,\frac{b}{c}\Big[1 + \frac{V}{H_0}\Big],

where :math:`\tilde m = m/(1 + V/H_0)` is the interaction-renormalized
mass and :math:`b = H_0/(mc) = \sqrt{c^2 + \tilde m^2 u^2/m^2}` (the
implicit relation; this is the choice that makes the right-hand side the
exact gradient of K).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError, IntegrationAbort, RenormalizationPoleError
from .kinematics import NATURAL, UnitSystem, _vec

__all__ = [
    "FieldConfiguration",
    "PhaseState",
    "ForceDecomposition",
    "OrbitTrajectory",
    "TimeReversalRecord",
    "kinetic_momentum",
    "h_zero",
    "hamiltonian_H",
    "canonical_K",
    "effective_mass_tilde",
    "b_kinetic",
    "hamilton_rhs",
    "approximate_rhs",
    "propertime_force",
    "coulomb_critical_radius",
    "integrate_orbit",
    "metric_deformation",
    "lagrangian",
    "time_reversal_check",
]

_POLE_TOL = 1e-14
_FD_STEP = 1e-6


def _curl(jac: np.ndarray) -> np.ndarray:
    """curl A from the Jacobian jac[i, j] = dA_i/dx_j."""
    return np.array([jac[2, 1] - jac[1, 2], jac[0, 2] - jac[2, 0], jac[1, 0] - jac[0, 1]])


@dataclass
class FieldConfiguration:
    """Potential energy V(x) and vector potential A(x) with derivatives.

    Analytic gradient, magnetic field and A-Jacobian callables may be
    supplied; otherwise second-order central differences with step
    ``1e-6 * (1 + |x_j|)`` are used.  ``jac_vector(x)[i, j]`` is dA_i/dx_j.
    """

    scalar: Callable[[np.ndarray], float]
    vector: Optional[Callable[[np.ndarray], np.ndarray]] = None
    grad_scalar: Optional[Callable[[np.ndarray], np.ndarray]] = None
    curl_vector: Optional[Callable[[np.ndarray], np.ndarray]] = None
    jac_vector: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # (scalar, grad_scalar, make) from free() and coulomb(): make(m, c) is
    # hamilton_rhs on six floats for that scalar and gradient with A absent.
    # replace() and hand-built configurations drop it (see integrate_orbit).
    _plain_rhs: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def V(self, x) -> float:
        return float(self.scalar(_vec(x)))

    def A(self, x) -> np.ndarray:
        if self.vector is None:
            return np.zeros(3)
        return _vec(self.vector(x))

    def _central_difference(self, f, x) -> np.ndarray:
        """d f/dx_j in the last axis, step _FD_STEP * (1 + |x_j|)."""
        cols = []
        for j in range(3):
            h = _FD_STEP * (1.0 + abs(x[j]))
            xp = x.copy(); xp[j] += h
            xm = x.copy(); xm[j] -= h
            cols.append((np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h))
        return np.stack(cols, axis=-1)

    def grad_V(self, x) -> np.ndarray:
        x = _vec(x)
        if self.grad_scalar is not None:
            return _vec(self.grad_scalar(x))
        return self._central_difference(self.scalar, x)

    def jac_A(self, x) -> np.ndarray:
        x = _vec(x)
        if self.vector is None:
            return np.zeros((3, 3))
        if self.jac_vector is not None:
            return np.asarray(self.jac_vector(x), dtype=float)
        return self._central_difference(self.vector, x)

    def B(self, x) -> np.ndarray:
        if self.vector is None:
            return np.zeros(3)
        if self.curl_vector is not None:
            return _vec(self.curl_vector(x))
        return _curl(self.jac_A(x))

    @classmethod
    def free(cls) -> "FieldConfiguration":
        conf = cls(scalar=lambda x: 0.0, grad_scalar=lambda x: np.zeros(3))
        conf._plain_rhs = (conf.scalar, conf.grad_scalar, _free_plain_rhs)
        return conf

    @classmethod
    def coulomb(cls, strength: float) -> "FieldConfiguration":
        """Central potential V = -strength/r with analytic gradient."""

        def V(x):
            return -strength / math.sqrt(x @ x)

        def grad(x):
            return strength * x / math.sqrt(x @ x) ** 3

        conf = cls(scalar=V, grad_scalar=grad)
        conf._plain_rhs = (V, grad, functools.partial(_coulomb_plain_rhs, strength))
        return conf


@dataclass(frozen=True)
class PhaseState:
    """Canonical pair (x, p) plus rest mass, charge and the clock reading."""

    x: np.ndarray
    p: np.ndarray
    m: float
    e: float = 0.0
    tau: float = 0.0
    units: UnitSystem = NATURAL

    def __post_init__(self):
        object.__setattr__(self, "x", _vec(self.x))
        object.__setattr__(self, "p", _vec(self.p))
        if not self.m > 0.0:
            raise DomainError(f"rest mass must be positive, got {self.m}")


def kinetic_momentum(state: PhaseState, fields: FieldConfiguration) -> np.ndarray:
    """pi = p - (e/c) A(x)."""
    return state.p - (state.e / state.units.c) * fields.A(state.x)


def _evaluate(state: PhaseState, fields: FieldConfiguration):
    """(pi, H0, V) at the state: the one evaluation the functions below read."""
    pi = kinetic_momentum(state, fields)
    _, H0, V = _energies(state.x, pi, state.m, state.units.c, fields)
    return pi, H0, V


def _energies(x: np.ndarray, pi: np.ndarray, m: float, c: float, fields: FieldConfiguration):
    """(pi.pi, H0, V) at position x and kinetic momentum pi."""
    pp = pi @ pi
    return pp, math.sqrt(c**2 * pp + m**2 * c**4), fields.V(x)


def _generator_values(state: PhaseState, fields: FieldConfiguration):
    """(K, H, b) from one evaluation."""
    return _generator_values_at(state.x, kinetic_momentum(state, fields), state.m, state.units.c, fields)


def _generator_values_at(x: np.ndarray, pi: np.ndarray, m: float, c: float,
                         fields: FieldConfiguration):
    """(K, H, b) at position x and kinetic momentum pi, K in its expanded form
    (see canonical_K).  Orbit records on both routes of integrate_orbit come
    from here, so they equal canonical_K, hamiltonian_H and b_kinetic."""
    pp, H0, V = _energies(x, pi, m, c, fields)
    K = pp / (2.0 * m) + m * c**2 + V**2 / (2.0 * m * c**2) + V * H0 / (m * c**2)
    return float(K), H0 + V, H0 / (m * c)


def h_zero(state: PhaseState, fields: FieldConfiguration) -> float:
    """H0 = sqrt(c^2 pi^2 + m^2 c^4)."""
    return _evaluate(state, fields)[1]


def hamiltonian_H(state: PhaseState, fields: FieldConfiguration) -> float:
    """H = H0 + V; satisfies H0 = m c b with b = b_kinetic(state, fields)."""
    return _generator_values(state, fields)[1]


def b_kinetic(state: PhaseState, fields: FieldConfiguration) -> float:
    """The collaborative speed carried by the kinetic momentum: H0/(m c)."""
    return _generator_values(state, fields)[2]


def canonical_K(state: PhaseState, fields: FieldConfiguration) -> float:
    """K = pi^2/2m + mc^2 + V^2/(2mc^2) + V H0/(mc^2) = H^2/(2mc^2) + mc^2/2."""
    return _generator_values(state, fields)[0]


def _renorm_factor(H0: float, V: float) -> float:
    factor = 1.0 + V / H0
    if abs(factor) < _POLE_TOL:
        raise RenormalizationPoleError("V = -H0: renormalized mass diverges")
    return factor


def effective_mass_tilde(state: PhaseState, fields: FieldConfiguration) -> float:
    """m_tilde = m / (1 + V/H0); equals m when V = 0."""
    return state.m / _renorm_factor(*_evaluate(state, fields)[1:])


def _equations_of_motion(state: PhaseState, fields: FieldConfiguration):
    """(u, dp/dtau, b, V, grad V, dA/dtau, B): the right-hand side and the
    field values it was built from; dA/dtau and B are None when A is."""
    c = state.units.c
    pi, H0, V = _evaluate(state, fields)
    factor = _renorm_factor(H0, V)
    u = factor * pi / state.m
    b = H0 / (state.m * c)
    grad_V = fields.grad_V(state.x)
    dp = -grad_V * (b / c) * factor
    if fields.vector is None:
        return u, dp, b, V, grad_V, None, None
    jac = fields.jac_A(state.x)
    B = fields.B(state.x) if fields.curl_vector is not None else _curl(jac)
    dA_dtau = jac @ u
    dp = dp + (state.e / c) * dA_dtau + (state.e / c) * np.cross(u, B)
    return u, dp, b, V, grad_V, dA_dtau, B


def hamilton_rhs(state: PhaseState, fields: FieldConfiguration):
    """(dx/dtau, dp/dtau) from the canonical proper-time generator.

    Matches the central-difference gradient of canonical_K at second
    order: dx/dtau = dK/dp and dp/dtau = -dK/dx.
    """
    return _equations_of_motion(state, fields)[:2]


def approximate_rhs(state: PhaseState, fields: FieldConfiguration):
    """Weak-coupling reduction: u treated as p/m and b set to c.

    This is the explicit approximation m a = -grad V (1 + V/mc^2); use it
    deliberately, never as a stand-in for :func:`hamilton_rhs`.  The
    corrected force is conservative with potential V + V^2/(2mc^2), which
    turns repulsive inside the critical radius.
    """
    c = state.units.c
    V = fields.V(state.x)
    dp = -fields.grad_V(state.x) * (1.0 + V / (state.m * c**2))
    return state.p / state.m, dp


@dataclass(frozen=True)
class ForceDecomposition:
    """(c/b)[dp/dtau - (e/c) dA/dtau] split into its named pieces.

    ``radial_correction`` is the addition to the Lorentz force,
    -grad V * V/(m c b); it opposes -grad V and wins below the critical
    radius.
    """

    total: np.ndarray
    electric: np.ndarray
    magnetic: np.ndarray
    radial_correction: np.ndarray


def propertime_force(state: PhaseState, fields: FieldConfiguration) -> ForceDecomposition:
    """Force form of the equations of motion for time-independent A."""
    c = state.units.c
    u, dp, b, V, grad_V, dA_dtau, B = _equations_of_motion(state, fields)
    if B is None:
        dA_dtau = B = np.zeros(3)
    total = (c / b) * (dp - (state.e / c) * dA_dtau)
    electric = -grad_V
    magnetic = (state.e / b) * np.cross(u, B)
    radial = -grad_V * V / (state.m * c * b)
    return ForceDecomposition(
        total=total, electric=electric, magnetic=magnetic, radial_correction=radial
    )


def coulomb_critical_radius(m: float, e_charge: float, units: UnitSystem = NATURAL) -> float:
    """Radius where -grad V (1 + V/mc^2) vanishes for V = -e^2/r.

    Solved numerically; the root is e^2/(m c^2), and the force is
    repulsive inside it.
    """
    if m <= 0.0 or e_charge <= 0.0:
        raise DomainError("mass and charge must be positive")
    c = units.c
    guess = e_charge**2 / (m * c**2)

    def critical(r: float) -> float:
        return 1.0 - e_charge**2 / (r * m * c**2)

    return float(brentq(critical, 1e-6 * guess, 1e6 * guess, xtol=1e-15 * guess, rtol=8 * np.finfo(float).eps))


@dataclass
class OrbitTrajectory:
    """Fixed-step orbit record: per-step tau, x, p, K, H and b."""

    tau: np.ndarray
    x: np.ndarray
    p: np.ndarray
    K: np.ndarray
    H: np.ndarray
    b: np.ndarray

    @property
    def k_drift(self) -> float:
        """Max relative drift of K along the run."""
        k0 = self.K[0]
        return float(np.max(np.abs(self.K - k0)) / abs(k0))


# Plain-float right-hand sides of free() and coulomb() for integrate_orbit.
# Each is hamilton_rhs for its configuration with A absent, written out on six
# floats in the same order of operations, so only the dot products x.x and
# pi.pi round differently: they are summed left to right here, while numpy's
# BLAS dot may fuse its multiply-adds.  Where
# numpy would overflow, divide by zero or meet the pole, the float code raises
# an ArithmeticError or leaves a non-finite state, and _plain_rk4 hands that
# step to the generic route.  A dot product past _DOT_MAX raises too, so that
# numpy's differently rounded one cannot overflow where the float sum did not.
_DOT_MAX = 1e300


def _free_plain_rhs(m: float, c: float):
    c2, m2c4, mc = c**2, m**2 * c**4, m * c

    def rhs(x0, x1, x2, p0, p1, p2):
        pp = p0 * p0 + p1 * p1 + p2 * p2
        if not pp < _DOT_MAX:
            raise OverflowError("pi.pi near the float range")
        H0 = math.sqrt(c2 * pp + m2c4)
        factor = _renorm_factor(H0, 0.0)
        dp = -0.0 * (H0 / mc / c) * factor
        return factor * p0 / m, factor * p1 / m, factor * p2 / m, dp, dp, dp

    return rhs


def _coulomb_plain_rhs(strength: float, m: float, c: float):
    strength = float(strength)
    c2, m2c4, mc = c**2, m**2 * c**4, m * c

    def rhs(x0, x1, x2, p0, p1, p2):
        r2 = x0 * x0 + x1 * x1 + x2 * x2
        pp = p0 * p0 + p1 * p1 + p2 * p2
        if not (r2 < _DOT_MAX and pp < _DOT_MAX):
            raise OverflowError("x.x or pi.pi near the float range")
        r = math.sqrt(r2)
        H0 = math.sqrt(c2 * pp + m2c4)
        factor = _renorm_factor(H0, -strength / r)
        b_c, r3 = H0 / mc / c, r**3
        return (
            factor * p0 / m, factor * p1 / m, factor * p2 / m,
            -(strength * x0 / r3) * b_c * factor,
            -(strength * x1 / r3) * b_c * factor,
            -(strength * x2 / r3) * b_c * factor,
        )

    return rhs


def _plain_rk4(make_rhs, state0: PhaseState, fields: FieldConfiguration, dtau: float,
               n_steps: int, record_every: int, rows: list):
    """integrate_orbit's steps on six floats; returns (k, x, p) for the generic
    route to go on from.  k is n_steps when every step ran; otherwise it is the
    step whose evaluation raised or whose new state is not finite, and x, p are
    the state before it, so the generic route redoes that step and raises what
    it raises there."""
    m, c = state0.m, state0.units.c

    def record(tau, x, p):
        # with A absent pi is p up to the signs of zeros, which pi @ pi ignores
        rows.append((tau, x, p, *_generator_values_at(x, p, m, c, fields)))

    record(state0.tau, state0.x.copy(), state0.p.copy())
    # Python floats in the loop: numpy scalars are slower and warn where they do not
    try:
        f = make_rhs(float(m), float(c))
    except ArithmeticError:  # m or c beyond the float range of m**2 c**4
        return 0, state0.x.copy(), state0.p.copy()
    x0, x1, x2 = state0.x.tolist()
    p0, p1, p2 = state0.p.tolist()
    h = float(dtau)
    h2, h6 = 0.5 * h, h / 6.0
    for k in range(n_steps):
        try:
            k1x0, k1x1, k1x2, k1p0, k1p1, k1p2 = f(x0, x1, x2, p0, p1, p2)
            k2x0, k2x1, k2x2, k2p0, k2p1, k2p2 = f(
                x0 + h2 * k1x0, x1 + h2 * k1x1, x2 + h2 * k1x2,
                p0 + h2 * k1p0, p1 + h2 * k1p1, p2 + h2 * k1p2)
            k3x0, k3x1, k3x2, k3p0, k3p1, k3p2 = f(
                x0 + h2 * k2x0, x1 + h2 * k2x1, x2 + h2 * k2x2,
                p0 + h2 * k2p0, p1 + h2 * k2p1, p2 + h2 * k2p2)
            k4x0, k4x1, k4x2, k4p0, k4p1, k4p2 = f(
                x0 + h * k3x0, x1 + h * k3x1, x2 + h * k3x2,
                p0 + h * k3p0, p1 + h * k3p1, p2 + h * k3p2)
        except ArithmeticError:
            break
        nx0 = x0 + h6 * (k1x0 + 2.0 * k2x0 + 2.0 * k3x0 + k4x0)
        nx1 = x1 + h6 * (k1x1 + 2.0 * k2x1 + 2.0 * k3x1 + k4x1)
        nx2 = x2 + h6 * (k1x2 + 2.0 * k2x2 + 2.0 * k3x2 + k4x2)
        np0 = p0 + h6 * (k1p0 + 2.0 * k2p0 + 2.0 * k3p0 + k4p0)
        np1 = p1 + h6 * (k1p1 + 2.0 * k2p1 + 2.0 * k3p1 + k4p1)
        np2 = p2 + h6 * (k1p2 + 2.0 * k2p2 + 2.0 * k3p2 + k4p2)
        if not math.isfinite(nx0 + nx1 + nx2 + np0 + np1 + np2):
            break
        x0, x1, x2, p0, p1, p2 = nx0, nx1, nx2, np0, np1, np2
        if (k + 1) % record_every == 0 or k == n_steps - 1:
            xp = np.array((x0, x1, x2, p0, p1, p2))
            record(state0.tau + (k + 1) * dtau, xp[:3], xp[3:])
    else:
        k = n_steps
    return k, np.array((x0, x1, x2)), np.array((p0, p1, p2))


def integrate_orbit(
    state0: PhaseState,
    fields: FieldConfiguration,
    dtau: float,
    n_steps: int,
    rhs: Callable = hamilton_rhs,
    record_every: int = 1,
) -> OrbitTrajectory:
    """Classic RK4 over the proper-time equations of motion.

    Conserved quantities are recorded rather than enforced, so K drift is
    a direct diagnostic of the step size.  ``hamilton_rhs`` on the fields of
    :meth:`FieldConfiguration.free` or :meth:`FieldConfiguration.coulomb`
    runs on plain floats; x and p then differ from the generic route only by
    the rounding of two dot products.
    """
    if not dtau > 0.0:
        raise DomainError(f"dtau must be positive, got {dtau}")
    if n_steps < 0:
        raise DomainError(f"n_steps must be non-negative, got {n_steps}")
    if record_every < 1:
        raise DomainError(f"record_every must be at least 1, got {record_every}")
    x = state0.x.copy()
    p = state0.p.copy()
    m, e, units = state0.m, state0.e, state0.units
    rows = []  # (tau, x, p, K, H, b) per record

    def record(tau):
        st = PhaseState(x=x, p=p, m=m, e=e, tau=tau, units=units)
        rows.append((tau, x.copy(), p.copy(), *_generator_values(st, fields)))

    def deriv(xc, pc):
        st = PhaseState(x=xc, p=pc, m=m, e=e, units=units)
        return rhs(st, fields)

    start = 0
    plain = fields._plain_rhs
    if (rhs is hamilton_rhs and fields.vector is None and plain is not None
            and plain[:2] == (fields.scalar, fields.grad_scalar)):
        start, x, p = _plain_rk4(plain[2], state0, fields, dtau, n_steps, record_every, rows)
    else:
        record(state0.tau)
    for k in range(start, n_steps):
        try:
            k1x, k1p = deriv(x, p)
            k2x, k2p = deriv(x + 0.5 * dtau * k1x, p + 0.5 * dtau * k1p)
            k3x, k3p = deriv(x + 0.5 * dtau * k2x, p + 0.5 * dtau * k2p)
            k4x, k4p = deriv(x + dtau * k3x, p + dtau * k3p)
        except (RenormalizationPoleError, FloatingPointError) as exc:
            raise IntegrationAbort(k, str(exc)) from exc
        x = x + (dtau / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        p = p + (dtau / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p))):
            raise IntegrationAbort(k, "state overflowed")
        tau = state0.tau + (k + 1) * dtau
        if (k + 1) % record_every == 0 or k == n_steps - 1:
            record(tau)
    tau, x, p, K, H, b = (np.array(column) for column in zip(*rows))
    return OrbitTrajectory(tau=tau, x=x, p=p, K=K, H=H, b=b)


def metric_deformation(state: PhaseState, fields: FieldConfiguration) -> float:
    """Spatial coefficient 1/(1 + V/H0)^2 of the deformed line element.

    c^2 dt^2 = c^2 dtau^2 + dx^2 / (1 + V/H0)^2: unity in free space,
    diverging toward the pole V -> -H0.
    """
    return 1.0 / _renorm_factor(*_evaluate(state, fields)[1:]) ** 2


def _solve_mass_ratio(u2: float, beta: float, m: float, c: float) -> float:
    # m_tilde from m_tilde (1 + V/(m c b)) = m with b = sqrt(c^2 + m_tilde^2 u^2/m^2)
    if u2 == 0.0:
        factor = 1.0 + beta / c
        if abs(factor) < _POLE_TOL:
            raise RenormalizationPoleError("V = -H0 at zero velocity")
        return m / factor

    def implicit(mt: float) -> float:
        b = math.sqrt(c**2 + mt**2 * u2 / m**2)
        return mt * (1.0 + beta / b) - m

    lo = 1e-12 * m
    hi = 10.0 * m * max(1.0, abs(beta) / c + 1.0)
    for _ in range(60):
        if implicit(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise RenormalizationPoleError("no consistent renormalized mass")
    if implicit(lo) > 0.0:
        raise RenormalizationPoleError("no consistent renormalized mass")
    return float(brentq(implicit, lo, hi, xtol=1e-15 * m, rtol=8 * np.finfo(float).eps))


def lagrangian(x, u, fields: FieldConfiguration, m: float, e: float = 0.0,
               units: UnitSystem = NATURAL) -> float:
    """Configuration-space Lagrangian conjugate to the proper-time generator.

    L = m_tilde u^2 - (m_tilde u^2/2)(m_tilde/m) - mc^2 - V^2/(2mc^2)
        - V b/c + (e/c) A.u,

    with the implicit relation b = sqrt(c^2 + m_tilde^2 u^2 / m^2) solved
    for the consistent m_tilde.  The Legendre transform p.u - L recovers K
    with p = m_tilde u + (e/c)A.
    """
    x = _vec(x)
    u = _vec(u)
    c = units.c
    V = fields.V(x)
    mt = _solve_mass_ratio(float(u @ u), V / (m * c), m, c)
    b = math.sqrt(c**2 + mt**2 * (u @ u) / m**2)
    u2 = u @ u
    value = (
        mt * u2
        - 0.5 * mt * u2 * (mt / m)
        - m * c**2
        - V**2 / (2.0 * m * c**2)
        - V * b / c
    )
    if fields.vector is not None:
        value += (e / c) * (fields.A(x) @ u)
    return float(value)


@dataclass(frozen=True)
class TimeReversalRecord:
    """K under p -> -p and H -> -H, and the sign of dtau/dt.

    K is even in both operations while dtau/dt = mc^2/H flips with H, so
    proper time acquires a direction even though K never goes negative.
    """

    k_value: float
    k_momentum_reversed: float
    k_energy_flipped: float
    dtau_dt: float
    dtau_dt_energy_flipped: float


def time_reversal_check(
    state: PhaseState, fields: Optional[FieldConfiguration] = None
) -> TimeReversalRecord:
    """Evaluate the discrete-symmetry behavior at one phase point (A = 0)."""
    if fields is None:
        fields = FieldConfiguration.free()
    if fields.vector is not None:
        raise DomainError("time-reversal record is defined for A = 0")
    c = state.units.c
    m = state.m
    K = canonical_K(state, fields)
    reversed_state = PhaseState(
        x=state.x, p=-state.p, m=m, e=state.e, tau=state.tau, units=state.units
    )
    K_rev = canonical_K(reversed_state, fields)
    H = hamiltonian_H(state, fields)
    K_flip = (-H) ** 2 / (2.0 * m * c**2) + m * c**2 / 2.0
    return TimeReversalRecord(
        k_value=K,
        k_momentum_reversed=K_rev,
        k_energy_flipped=float(K_flip),
        dtau_dt=m * c**2 / H,
        dtau_dt_energy_flipped=m * c**2 / (-H),
    )
