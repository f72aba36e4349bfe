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

from .errors import DomainError, IntegrationAbort, RenormalizationPoleError
from .kinematics import NATURAL, UnitSystem, _cross, _dot, _vec

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


@dataclass(frozen=True)
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
    # From free() and coulomb(): make(m, c, h), one RK4 step of hamilton_rhs on
    # six floats with A absent, and V over the rows of an (n, 3) array.
    # replace() and hand-built configurations drop both (see integrate_orbit).
    _plain_step: Optional[Callable] = field(default=None, init=False, repr=False, compare=False)
    _array_V: Optional[Callable] = field(default=None, init=False, repr=False, compare=False)

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
        object.__setattr__(conf, "_plain_step", _free_plain_step)
        object.__setattr__(conf, "_array_V", lambda x: np.zeros(len(x)))
        return conf

    @classmethod
    def coulomb(cls, strength: float) -> "FieldConfiguration":
        """Central potential V = -strength/r with analytic gradient."""

        def V(x):
            return -strength / math.sqrt(x @ x)

        def grad(x):
            return strength * x / math.sqrt(x @ x) ** 3

        conf = cls(scalar=V, grad_scalar=grad)
        object.__setattr__(conf, "_plain_step", functools.partial(_coulomb_plain_step, strength))
        object.__setattr__(conf, "_array_V", lambda x: -strength / np.sqrt(_dot(x, x)))
        return conf


@dataclass(frozen=True, eq=False)
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
    """(pi, pi.pi, H0, V) at the state: the one evaluation the functions below read."""
    pi = kinetic_momentum(state, fields)
    return (pi, *_energies(state.x, pi, state.m, state.units.c, fields))


def _energies(x: np.ndarray, pi: np.ndarray, m: float, c: float, fields: FieldConfiguration):
    """(pi.pi, H0, V) at position x and kinetic momentum pi."""
    pp = pi @ pi
    return pp, math.sqrt(c**2 * pp + m**2 * c**4), fields.V(x)


def _generator_values(state: PhaseState, fields: FieldConfiguration):
    """(K, H, b) from one evaluation."""
    return _generator_values_at(*_evaluate(state, fields)[1:], state.m, state.units.c)


def _generator_values_at(pp, H0, V, m: float, c: float):
    """(K, H, b) from pi.pi, H0 and V: floats, or arrays over integrate_orbit's records.
    K in its expanded form (see canonical_K).  V * V: a float's V**2 calls pow."""
    K = pp / (2.0 * m) + m * c**2 + V * V / (2.0 * m * c**2) + V * H0 / (m * c**2)
    return K, H0 + V, H0 / (m * c)


def h_zero(state: PhaseState, fields: FieldConfiguration) -> float:
    """H0 = sqrt(c^2 pi^2 + m^2 c^4)."""
    return _evaluate(state, fields)[2]


def hamiltonian_H(state: PhaseState, fields: FieldConfiguration) -> float:
    """H = H0 + V; satisfies H0 = m c b with b = b_kinetic(state, fields)."""
    return _generator_values(state, fields)[1]


def b_kinetic(state: PhaseState, fields: FieldConfiguration) -> float:
    """The collaborative speed carried by the kinetic momentum: H0/(m c)."""
    return _generator_values(state, fields)[2]


def canonical_K(state: PhaseState, fields: FieldConfiguration) -> float:
    """K = pi^2/2m + mc^2 + V^2/(2mc^2) + V H0/(mc^2) = H^2/(2mc^2) + mc^2/2."""
    return float(_generator_values(state, fields)[0])


def _renorm_factor(H0: float, V: float) -> float:
    factor = 1.0 + V / H0
    if abs(factor) < _POLE_TOL:
        raise RenormalizationPoleError("V = -H0: renormalized mass diverges")
    return factor


def effective_mass_tilde(state: PhaseState, fields: FieldConfiguration) -> float:
    """m_tilde = m / (1 + V/H0); equals m when V = 0."""
    return state.m / _renorm_factor(*_evaluate(state, fields)[2:])


def _equations_of_motion(state: PhaseState, fields: FieldConfiguration):
    """(u, dp/dtau, b, V, grad V, dA/dtau, B): the right-hand side and the
    field values it was built from; dA/dtau and B are None when A is."""
    c = state.units.c
    pi, _, H0, V = _evaluate(state, fields)
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
    dp = dp + (state.e / c) * dA_dtau + (state.e / c) * _cross(u, B)
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


@dataclass(frozen=True, eq=False)
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
    magnetic = (state.e / b) * _cross(u, B)
    radial = -grad_V * V / (state.m * c * b)
    return ForceDecomposition(
        total=total, electric=electric, magnetic=magnetic, radial_correction=radial
    )


def coulomb_critical_radius(m: float, e_charge: float, units: UnitSystem = NATURAL) -> float:
    """Radius where -grad V (1 + V/mc^2) vanishes for V = -e^2/r.

    The root of 1 + V/mc^2, e^2/(m c^2), in closed form; the force is
    repulsive inside it.  Mass and charge must be finite and positive.
    """
    if not (0.0 < m < math.inf and 0.0 < e_charge < math.inf):
        raise DomainError("mass and charge must be finite and positive")
    e_over_c = e_charge / units.c
    return float(e_over_c * e_over_c / m)


@dataclass(eq=False)
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


# Plain-float RK4 steps of free() and coulomb() for integrate_orbit: make(m, c, h)
# returns step(x0, x1, x2, p0, p1, p2) -> the six floats one classic RK4 step of
# hamilton_rhs later, with A absent.  On free() V = 0 makes the renormalization
# factor exactly 1, so u = p/m, p never changes, and x and p are bit for bit the
# generic route's.  coulomb() writes its four stages out inline and regroups the
# arithmetic: factor = 1 - s/(r H0), u = (factor/m) p, dp/dtau = g x with
# g = -(s/(m c^2)) H0 factor / r**3, and x + h/6 (k1 + 2 (k2 + k3) + k4).  So it
# rounds apart from hamilton_rhs by more than its two dot products; one step
# stays within 1e-14 of the generic step, relative to |x| and |p|.  Each stage
# has one check, and where numpy would overflow, divide by zero or meet the pole,
# the float code raises an ArithmeticError or leaves a non-finite state;
# integrate_orbit then redoes that step, and every later one, through the
# generic RK4.  The check also fails on a dot product past _DOT_MAX, so that
# numpy's differently rounded one cannot overflow where the float sum did not.
_DOT_MAX = 1e300


def _free_plain_step(m: float, c: float, h: float):
    c2, m2c4, mc, h6 = c**2, m**2 * c**4, m * c, h / 6.0

    def step(x0, x1, x2, p0, p1, p2):
        pp = p0 * p0 + p1 * p1 + p2 * p2
        H0 = math.sqrt(c2 * pp + m2c4)
        # hamilton_rhs divides V = 0 by H0, and its dp/dtau = -0 * b/c is nan where b overflows
        if not (pp < _DOT_MAX and H0 > 0.0 and H0 / mc / c < math.inf):
            raise ArithmeticError("pi.pi near the float range, H0 zero or b overflowing")
        u0, u1, u2 = p0 / m, p1 / m, p2 / m
        return (x0 + h6 * (u0 + 2.0 * u0 + 2.0 * u0 + u0),
                x1 + h6 * (u1 + 2.0 * u1 + 2.0 * u1 + u1),
                x2 + h6 * (u2 + 2.0 * u2 + 2.0 * u2 + u2), p0, p1, p2)

    return step


def _coulomb_plain_step(strength: float, m: float, c: float, h: float):
    s = float(strength)
    c2, m2c4, g_scale = c**2, m**2 * c**4, -(s / (m * c**2))
    h2, h6 = 0.5 * h, h / 6.0
    sqrt, dot_max, pole_tol = math.sqrt, _DOT_MAX, _POLE_TOL

    def step(x0, x1, x2, p0, p1, p2):
        # r**3, not r2 * r: its OverflowError hands the step over where numpy's would
        # raise.  One assignment per name: a six-name tuple assignment builds a tuple
        r2 = x0 * x0 + x1 * x1 + x2 * x2
        pp = p0 * p0 + p1 * p1 + p2 * p2
        r = sqrt(r2)
        H0 = sqrt(c2 * pp + m2c4)
        factor = 1.0 - s / (r * H0)
        if not (r2 < dot_max and pp < dot_max) or -pole_tol < factor < pole_tol:
            raise ArithmeticError("x.x or pi.pi near the float range, or V = -H0")
        fm = factor / m
        g = g_scale * H0 * factor / r**3
        k1x0 = fm * p0; k1x1 = fm * p1; k1x2 = fm * p2
        k1p0 = g * x0; k1p1 = g * x1; k1p2 = g * x2

        y0 = x0 + h2 * k1x0; y1 = x1 + h2 * k1x1; y2 = x2 + h2 * k1x2
        q0 = p0 + h2 * k1p0; q1 = p1 + h2 * k1p1; q2 = p2 + h2 * k1p2
        r2 = y0 * y0 + y1 * y1 + y2 * y2
        pp = q0 * q0 + q1 * q1 + q2 * q2
        r = sqrt(r2)
        H0 = sqrt(c2 * pp + m2c4)
        factor = 1.0 - s / (r * H0)
        if not (r2 < dot_max and pp < dot_max) or -pole_tol < factor < pole_tol:
            raise ArithmeticError("x.x or pi.pi near the float range, or V = -H0")
        fm = factor / m
        g = g_scale * H0 * factor / r**3
        k2x0 = fm * q0; k2x1 = fm * q1; k2x2 = fm * q2
        k2p0 = g * y0; k2p1 = g * y1; k2p2 = g * y2

        y0 = x0 + h2 * k2x0; y1 = x1 + h2 * k2x1; y2 = x2 + h2 * k2x2
        q0 = p0 + h2 * k2p0; q1 = p1 + h2 * k2p1; q2 = p2 + h2 * k2p2
        r2 = y0 * y0 + y1 * y1 + y2 * y2
        pp = q0 * q0 + q1 * q1 + q2 * q2
        r = sqrt(r2)
        H0 = sqrt(c2 * pp + m2c4)
        factor = 1.0 - s / (r * H0)
        if not (r2 < dot_max and pp < dot_max) or -pole_tol < factor < pole_tol:
            raise ArithmeticError("x.x or pi.pi near the float range, or V = -H0")
        fm = factor / m
        g = g_scale * H0 * factor / r**3
        k3x0 = fm * q0; k3x1 = fm * q1; k3x2 = fm * q2
        k3p0 = g * y0; k3p1 = g * y1; k3p2 = g * y2

        y0 = x0 + h * k3x0; y1 = x1 + h * k3x1; y2 = x2 + h * k3x2
        q0 = p0 + h * k3p0; q1 = p1 + h * k3p1; q2 = p2 + h * k3p2
        r2 = y0 * y0 + y1 * y1 + y2 * y2
        pp = q0 * q0 + q1 * q1 + q2 * q2
        r = sqrt(r2)
        H0 = sqrt(c2 * pp + m2c4)
        factor = 1.0 - s / (r * H0)
        if not (r2 < dot_max and pp < dot_max) or -pole_tol < factor < pole_tol:
            raise ArithmeticError("x.x or pi.pi near the float range, or V = -H0")
        fm = factor / m
        g = g_scale * H0 * factor / r**3
        return (x0 + h6 * (k1x0 + 2.0 * (k2x0 + k3x0) + fm * q0),
                x1 + h6 * (k1x1 + 2.0 * (k2x1 + k3x1) + fm * q1),
                x2 + h6 * (k1x2 + 2.0 * (k2x2 + k3x2) + fm * q2),
                p0 + h6 * (k1p0 + 2.0 * (k2p0 + k3p0) + g * y0),
                p1 + h6 * (k1p1 + 2.0 * (k2p1 + k3p1) + g * y1),
                p2 + h6 * (k1p2 + 2.0 * (k2p2 + k3p2) + g * y2))

    return step


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
    a direct diagnostic of the step size.  The state is six floats.
    ``hamilton_rhs`` on the fields of :meth:`FieldConfiguration.free` or
    :meth:`FieldConfiguration.coulomb` takes one whole RK4 step per call on
    plain floats, one check per stage, while numpy ignores underflow, which
    Python floats never signal.  On free() x and p are bit for bit the
    generic route's; on coulomb() the step regroups the arithmetic of
    ``hamilton_rhs`` and stays within 1e-14 of the generic step, relative
    to |x| and |p|.  Any other ``rhs``, fields or underflow setting, and a
    step the plain floats fail and every later one, run the generic RK4:
    one step on the six-vector (x, p) as a float array, calling ``rhs`` on
    a :class:`PhaseState` at each stage, so numpy's ``errstate`` covers the
    whole step; a pole, a ``FloatingPointError`` or an ``OverflowError`` in
    one of its stages raises ``IntegrationAbort`` with the step.  The loop
    records tau, x and p; K, H and b of all records are evaluated once it
    ends.  Those two fields take them from one array pass; other fields,
    and a pass that would warn or raise, go row by row.
    """
    if not (math.isfinite(dtau) and dtau > 0.0):
        raise DomainError(f"dtau must be finite and positive, got {dtau}")
    if n_steps < 0:
        raise DomainError(f"n_steps must be non-negative, got {n_steps}")
    if record_every < 1:
        raise DomainError(f"record_every must be at least 1, got {record_every}")
    m, e, units = state0.m, state0.e, state0.units
    c = units.c
    array_V = fields._array_V
    taus, xps = [], []  # per record: tau, and x and p as six floats

    def values(x, p):  # (K, H, b) of one record, as canonical_K etc. take it
        # with A absent pi is p up to the signs of zeros, which pi @ pi ignores
        pi = p if fields.vector is None else p - (e / c) * fields.A(x)
        return _generator_values_at(*_energies(x, pi, m, c, fields), m, c)

    def record(tau, xp):
        taus.append(tau)
        xps.extend(xp)

    def trajectory():  # K, H and b of every record, evaluated here
        x, p = np.fromiter(xps, float).reshape(-1, 2, 3).swapaxes(0, 1).copy()
        columns = None
        if array_V is not None:
            try:
                with np.errstate(all="raise"):
                    pp = _dot(p, p)
                    H0 = np.sqrt(c**2 * pp + m**2 * c**4)
                    columns = _generator_values_at(pp, H0, array_V(x), m, c)
            except ArithmeticError:
                pass
        if columns is None:  # row by row, under the caller's errstate
            columns = zip(*map(values, x, p))
        K, H, b = map(np.array, columns)
        return OrbitTrajectory(tau=np.array(taus), x=x, p=p, K=K, H=H, b=b)

    def f(y):  # rhs on a PhaseState
        u, dp = rhs(PhaseState(x=y[:3], p=y[3:], m=m, e=e, units=units), fields)
        return np.concatenate((u, dp))

    def generic(*xp):  # one RK4 step through f
        y = np.array(xp)
        try:
            k1 = f(y)
            k2 = f(y + h2 * k1)
            k3 = f(y + h2 * k2)
            k4 = f(y + h * k3)
        except (RenormalizationPoleError, FloatingPointError, OverflowError) as exc:
            raise IntegrationAbort(k, str(exc)) from exc
        xp = (y + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)).tolist()
        # one component at a time: their sum can overflow while each is finite
        if not all(map(math.isfinite, xp)):
            raise IntegrationAbort(k, "state overflowed")
        return xp

    h = float(dtau)
    h2, h6 = 0.5 * h, h / 6.0
    step = generic
    # Python floats in the loop: faster than numpy scalars, but they never signal underflow
    if rhs is hamilton_rhs and fields._plain_step is not None and np.geterr()["under"] == "ignore":
        try:
            step = fields._plain_step(float(m), float(c), h)
        except ArithmeticError:  # m or c beyond the float range of m**2 c**4
            pass
    xp = (*state0.x.tolist(), *state0.p.tolist())
    record(state0.tau, xp)
    k = 0
    try:
        while k < n_steps:
            try:
                xp_next = step(*xp)
                finite = step is generic or math.isfinite(sum(xp_next))
            except ArithmeticError:
                if step is generic:
                    raise
                finite = False
            if not finite:  # redo this step, and every later one, through generic
                step = generic
                continue
            xp = xp_next
            k += 1
            if k % record_every == 0 or k == n_steps:
                record(state0.tau + k * dtau, xp)
    except Exception:
        trajectory()  # the records made so far: one that raises goes first
        raise
    return trajectory()


def metric_deformation(state: PhaseState, fields: FieldConfiguration) -> float:
    """Spatial coefficient 1/(1 + V/H0)^2 of the deformed line element.

    c^2 dt^2 = c^2 dtau^2 + dx^2 / (1 + V/H0)^2: unity in free space,
    diverging toward the pole V -> -H0.
    """
    return 1.0 / _renorm_factor(*_evaluate(state, fields)[2:]) ** 2


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
    from scipy.optimize import brentq

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
    u2 = u @ u
    mt = _solve_mass_ratio(float(u2), V / (m * c), m, c)
    b = math.sqrt(c**2 + mt**2 * u2 / m**2)
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
