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
        return cls(scalar=lambda x: 0.0, grad_scalar=lambda x: np.zeros(3))

    @classmethod
    def coulomb(cls, strength: float) -> "FieldConfiguration":
        """Central potential V = -strength/r with analytic gradient."""

        def V(x):
            return -strength / math.sqrt(x @ x)

        def grad(x):
            return strength * x / math.sqrt(x @ x) ** 3

        return cls(scalar=V, grad_scalar=grad)


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
    c = state.units.c
    pi = kinetic_momentum(state, fields)
    return pi, math.sqrt(c**2 * (pi @ pi) + state.m**2 * c**4), fields.V(state.x)


def _generator_values(state: PhaseState, fields: FieldConfiguration):
    """(K, H, b) from one evaluation; K in its expanded form (see canonical_K)."""
    c, m = state.units.c, state.m
    pi, H0, V = _evaluate(state, fields)
    K = (pi @ pi) / (2.0 * m) + m * c**2 + V**2 / (2.0 * m * c**2) + V * H0 / (m * c**2)
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
    a direct diagnostic of the step size.
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
    taus, xs, ps, Ks, Hs, bs = [], [], [], [], [], []

    def record(tau):
        K, H, b = _generator_values(PhaseState(x=x, p=p, m=m, e=e, tau=tau, units=units), fields)
        taus.append(tau)
        xs.append(x.copy())
        ps.append(p.copy())
        Ks.append(K)
        Hs.append(H)
        bs.append(b)

    def deriv(xc, pc):
        st = PhaseState(x=xc, p=pc, m=m, e=e, units=units)
        return rhs(st, fields)

    record(state0.tau)
    tau = state0.tau
    for k in range(n_steps):
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
    return OrbitTrajectory(
        tau=np.array(taus),
        x=np.array(xs),
        p=np.array(ps),
        K=np.array(Ks),
        H=np.array(Hs),
        b=np.array(bs),
    )


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
