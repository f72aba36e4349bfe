r"""Global-clock many-particle theory.

A closed system of n particles has a single proper clock defined by
:math:`d\tau = (Mc^2/H)\,dt` with the effective mass
:math:`Mc^2 = \sqrt{H^2 - c^2 P^2}`, so that
:math:`H = \sqrt{c^2 P^2 + M^2 c^4} = Mcb` with
:math:`b = \sqrt{U^2 + c^2}`, :math:`U = P/M`.  The global generator is

.. math:: K = \frac{P^2}{2M} + Mc^2,

and each particle clock relates to the global one through
:math:`d\tau_i/d\tau = H m_i/(M H_i) = b/b_i`.

The boost generator uses the instant-form free-particle realization
:math:`\mathbf{L} = (1/c^2)\sum H_i \mathbf{x}_i`, and the spin is the
orbital remainder :math:`\mathbf{S} = \mathbf{J} - \mathbf{X}_0 \times
\mathbf{P}`; with these choices the canonical center of mass
:math:`\mathbf{X}` is conjugate to :math:`\mathbf{P}` and every listed
bracket of the algebra closes for free systems.

Brackets are taken from phase gradients.  The observables of the algebra
table are analytic and take leading batch axes, so their gradients come
exact to rounding from the complex step :math:`\partial f/\partial q =
\operatorname{Im} f(q + ih)/h`, all 3n directions of x in one evaluation
and all of p in another.  :func:`phase_gradient` and
:func:`poisson_bracket` take user callables, which need not accept
complex input, and keep central differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, SpacelikeSystemError
from .kinematics import NATURAL, UnitSystem, _cross

__all__ = [
    "ParticleSystem",
    "GlobalInvariants",
    "CenterOfMass",
    "ClusterSummary",
    "FreeTrajectory",
    "system_invariants",
    "clock_ratio",
    "clock_ratio_speeds",
    "per_particle_speeds",
    "poisson_bracket",
    "phase_gradient",
    "verify_algebra",
    "center_of_mass",
    "cluster_split",
    "free_flight",
    "generating_identity_residual",
    "evolve_observable",
]

_FD_H = 1e-5  # relative central-difference step of phase_gradient
_CS_H = 1e-30  # complex step of the exact table gradients


@dataclass(frozen=True, eq=False)
class ParticleSystem:
    """Phase-space snapshot of n particles (free unless ``interaction`` given).

    ``masses``, ``xs`` and ``ps`` are read-only float copies, so invariants are cached.
    ``interaction``, when present, is a total potential V({x_i}) added to
    H; the split of V among particles is not defined, so per-particle
    operations require a free system.
    """

    masses: np.ndarray
    xs: np.ndarray
    ps: np.ndarray
    units: UnitSystem = NATURAL
    interaction: Optional[Callable[[np.ndarray], float]] = None

    def __post_init__(self):
        m = np.atleast_1d(np.array(self.masses, dtype=float))
        xs = np.array(self.xs, dtype=float)
        ps = np.array(self.ps, dtype=float)
        if m.ndim != 1 or m.size < 1 or np.any(m <= 0.0):
            raise DomainError("need at least one particle with positive mass")
        if xs.shape != (m.size, 3) or ps.shape != (m.size, 3):
            raise DomainError("positions and momenta must have shape (n, 3)")
        for name, a in (("masses", m), ("xs", xs), ("ps", ps)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        return self.masses.size

    def particle_energies(self, ps: Optional[np.ndarray] = None) -> np.ndarray:
        """H_i = sqrt(c^2 p_i^2 + m_i^2 c^4), free part only."""
        c = self.units.c
        ps = self.ps if ps is None else ps
        return np.sqrt(c**2 * np.sum(ps**2, axis=-1) + self.masses**2 * c**4)

    @cached_property
    def _snapshot(self):
        """(H_i, invariants, X0), all read-only: the one derivation of H, P, M and the rest."""
        c = self.units.c
        hs = self.particle_energies()
        H = float(np.sum(hs))
        if self.interaction is not None:
            H += float(self.interaction(self.xs))
        P = np.sum(self.ps, axis=0)
        L = np.sum(hs[:, None] * self.xs, axis=0) / c**2
        M, K, U, b = _mass_shell(H, P, c)
        X0, J, S, X = _center(hs, self.xs, self.ps, H, P, M, c)
        for a in (hs, P, L, U, X0, J, S, X):
            a.flags.writeable = False
        return hs, GlobalInvariants(H=H, P=P, J=J, L=L, M=M, K=K, U=U, b=b, S=S, X=X), X0

    def with_phase(self, xs: np.ndarray, ps: np.ndarray) -> "ParticleSystem":
        return ParticleSystem(
            masses=self.masses, xs=xs, ps=ps, units=self.units, interaction=self.interaction
        )

    def require_free(self, op: str) -> None:
        if self.interaction is not None:
            raise DomainError(f"{op} is defined for free systems only")

    @classmethod
    def random(
        cls,
        n: int,
        rng: np.random.Generator,
        p_max: float = 5.0,
        units: UnitSystem = NATURAL,
    ) -> "ParticleSystem":
        masses = rng.uniform(0.5, 2.0, size=n)
        xs = rng.uniform(-2.0, 2.0, size=(n, 3))
        ps = rng.uniform(-p_max, p_max, size=(n, 3)) * masses[:, None] * units.c
        return cls(masses=masses, xs=xs, ps=ps, units=units)


@dataclass(frozen=True, eq=False)
class GlobalInvariants:
    """The global observables of one snapshot."""

    H: float
    P: np.ndarray
    J: np.ndarray
    L: np.ndarray
    M: float
    K: float
    U: np.ndarray
    b: float
    S: np.ndarray
    X: np.ndarray


def _mass_shell(H: float, P: np.ndarray, c: float):
    """(M, K, U, b) of a system with energy H and momentum P."""
    m2c4 = H**2 - c**2 * (P @ P)
    if m2c4 <= 0.0:
        raise SpacelikeSystemError(f"H^2 - c^2 P^2 = {m2c4} is not positive")
    M = float(np.sqrt(m2c4)) / c**2
    U = P / M
    return M, float((P @ P) / (2.0 * M) + M * c**2), U, float(np.sqrt(U @ U + c**2))


def _angular_momentum(xs, ps):
    """J = sum of x_i x p_i over the particle axis -2.

    The products of ``np.cross``, stacked in C order, so numpy sums the
    particles one row after another as it does on ``np.cross``'s result.
    ``_cross`` lays its result out component by component, which numpy
    sums pairwise, rounding differently from 8 particles on; a C-ordered
    copy of it costs more than ``np.cross`` on free-flight step stacks.
    """
    x, y, z = np.moveaxis(xs, -1, 0)
    px, py, pz = np.moveaxis(ps, -1, 0)
    return np.sum(np.stack([y * pz - z * py, z * px - x * pz, x * py - y * px], axis=-1), axis=-2)


def _center(hs, xs, ps, H, P, M, c):
    """(X0, J, S, X) summed over the particle axis -2, so ``xs`` may carry
    a leading step axis; X = X0 + c^2 (S x P)/(H(Mc^2 + H))."""
    X0 = np.sum(hs[:, None] * xs, axis=-2) / H
    J = _angular_momentum(xs, ps)
    S = J - _cross(X0, P)
    X = X0 + c**2 * _cross(S, P) / (H * (M * c**2 + H))
    return X0, J, S, X


def system_invariants(sys: ParticleSystem) -> GlobalInvariants:
    """P, J, L, M, K, U, b plus the spin and canonical center of mass."""
    return sys._snapshot[1]


def clock_ratio(i, sys: ParticleSystem):
    """dtau_i/dtau = H m_i / (M H_i); an index array gives every ratio it
    names from one snapshot."""
    sys.require_free("clock_ratio")
    hs, inv, _ = sys._snapshot
    out = inv.H * sys.masses[i] / (inv.M * hs[i])
    return float(out) if out.ndim == 0 else out


def clock_ratio_speeds(i: int, sys: ParticleSystem) -> float:
    """The same ratio from the collaborative speeds: b / b_i."""
    sys.require_free("clock_ratio_speeds")
    c = sys.units.c
    u_i = sys.ps[i] / sys.masses[i]
    b_i = np.sqrt(c**2 + u_i @ u_i)
    return float(system_invariants(sys).b / b_i)


def per_particle_speeds(sys: ParticleSystem):
    """(u_i, v_i, b_i) arrays: local proper, global proper and local b.

    v_i = (b/b_i) u_i is the velocity on the global clock; when U != 0 it
    can exceed c.  The identity u_i/b_i = v_i/b holds row by row.
    """
    sys.require_free("per_particle_speeds")
    c = sys.units.c
    b = system_invariants(sys).b
    u = sys.ps / sys.masses[:, None]
    b_i = np.sqrt(c**2 + np.sum(u**2, axis=1))
    v = (b / b_i)[:, None] * u
    v2 = np.sum(v**2, axis=1)
    if np.any(v2 >= b**2):
        raise DomainError("|v_i| must stay below the global collaborative speed")
    return u, v, b_i


def phase_gradient(f: Callable, sys: ParticleSystem):
    """(df/dx, df/dp) by central differences, step 1e-5 (1 + |q|) per coordinate q.

    An array-valued ``f`` gives gradients of shape ``f``'s shape + (n, 3).
    ``f`` may be any real callable, so this route takes 12n evaluations and
    carries the step's truncation error; the algebra table's observables
    take the exact complex-step route instead.
    """
    xs, ps = sys.xs, sys.ps
    gx, gp = [], []
    for i in range(sys.n):
        for a in range(3):
            hx = _FD_H * (1.0 + abs(xs[i, a]))
            xp = xs.copy(); xp[i, a] += hx
            xm = xs.copy(); xm[i, a] -= hx
            gx.append((f(xp, ps) - f(xm, ps)) / (2.0 * hx))
            hp = _FD_H * (1.0 + abs(ps[i, a]))
            pp = ps.copy(); pp[i, a] += hp
            pm = ps.copy(); pm[i, a] -= hp
            gp.append((f(xs, pp) - f(xs, pm)) / (2.0 * hp))
    # rows run over the 3n coordinates: move them last and split them (n, 3)
    return tuple(
        np.moveaxis(np.asarray(g), 0, -1).reshape(np.shape(g[0]) + xs.shape) for g in (gx, gp)
    )


def _bracket(grad_f, grad_g):
    """{f, g} from the phase gradients (df/dx, df/dp) and (dg/dx, dg/dp);
    for array-valued f and g, entry [i..., j...] is {f_i..., g_j...}."""
    fx, fp = grad_f
    gx, gp = grad_g
    axes = ([-2, -1], [-2, -1])
    return np.tensordot(fx, gp, axes) - np.tensordot(fp, gx, axes)


def poisson_bracket(f: Callable, g: Callable, sys: ParticleSystem) -> float:
    """{f, g} = sum_i (df/dx_i . dg/dp_i - df/dp_i . dg/dx_i), numerically.

    ``f`` and ``g`` are scalar observables of the phase arrays (xs, ps).
    """
    return float(_bracket(phase_gradient(f, sys), phase_gradient(g, sys)))


def _stepped(q: np.ndarray) -> np.ndarray:
    """q.size complex copies of ``q``; copy k has coordinate k stepped by i h."""
    z = np.tile(q.astype(complex).ravel(), (q.size, 1))
    np.fill_diagonal(z.imag, _CS_H)
    return z.reshape((q.size,) + q.shape)


def _exact_gradient(f: Callable, sys: ParticleSystem):
    """(df/dx, df/dp) exact to rounding, shaped as ``phase_gradient``'s.

    Complex step: df/dq = Im f(q + ih)/h, with no difference of nearby
    values to lose digits.  ``f`` must be analytic in the phase and take
    leading batch axes; one call on a (3n, n, 3) stack with each x
    coordinate stepped in turn gives df/dx, one more gives df/dp.
    """
    xs, ps = sys.xs, sys.ps
    stack = (xs.size,) + xs.shape
    gx = f(_stepped(xs), np.broadcast_to(ps, stack)).imag
    gp = f(np.broadcast_to(xs, stack), _stepped(ps)).imag
    # rows run over the 3n coordinates: move them last and split them (n, 3)
    return tuple(np.moveaxis(g / _CS_H, 0, -1).reshape(g.shape[1:] + xs.shape) for g in (gx, gp))


def _observable_table(sys: ParticleSystem):
    """H, M, K and the 3-vectors P, J, L as functions of (xs, ps).

    Each sums over the particle axis -2, so leading axes of (xs, ps) are a
    batch, and each is analytic in the phase, so complex steps pass through.
    """
    c = sys.units.c

    def H(xs, ps):
        return np.sum(sys.particle_energies(ps), axis=-1)

    def Mc2(xs, ps):
        P = np.sum(ps, axis=-2)
        return np.sqrt(H(xs, ps) ** 2 - c**2 * np.sum(P * P, axis=-1))

    # The rest energy entering K is the system's conserved invariant, held
    # at its snapshot value when differentiating (as m is for one particle).
    rest = float(Mc2(sys.xs, sys.ps))

    def K(xs, ps):
        return H(xs, ps) ** 2 / (2.0 * rest) + rest / 2.0

    return {
        "H": H,
        "M": lambda xs, ps: Mc2(xs, ps) / c**2,
        "K": K,
        "P": lambda xs, ps: np.sum(ps, axis=-2),
        "J": _angular_momentum,
        "L": lambda xs, ps: np.sum(sys.particle_energies(ps)[..., None] * xs, axis=-2) / c**2,
    }


def verify_algebra(sys: ParticleSystem) -> dict:
    """Numerical residuals of the bracket table at this phase point.

    Returns one max-|residual| entry per relation family plus ``max``;
    free systems only.
    """
    sys.require_free("verify_algebra")
    c = sys.units.c
    grads = {name: _exact_gradient(fn, sys) for name, fn in _observable_table(sys).items()}

    def bracket(fa: str, fb: str) -> np.ndarray:
        return _bracket(grads[fa], grads[fb])

    inv = system_invariants(sys)
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    families = {
        "{P_i,P_j}": bracket("P", "P"),
        "{J_i,P_j}-eps_ijk P_k": bracket("J", "P") - eps @ inv.P,
        "{J_i,J_j}-eps_ijk J_k": bracket("J", "J") - eps @ inv.J,
        "{J_i,L_j}-eps_ijk L_k": bracket("J", "L") - eps @ inv.L,
        "{P_i,L_j}+delta_ij H/c^2": bracket("P", "L") + np.eye(3) * inv.H / c**2,
        "{L_i,L_j}+eps_ijk J_k/c^2": bracket("L", "L") + (eps @ inv.J) / c**2,
        "{H,P_i}": bracket("H", "P"),
        "{H,J_i}": bracket("H", "J"),
        "{K,P_i}": bracket("K", "P"),
        "{K,J_i}": bracket("K", "J"),
        "{K,L_i}+H P_i/(M c^2)": bracket("K", "L") + inv.H * inv.P / (inv.M * c**2),
        "{M,P_i}": bracket("M", "P"),
        "{M,J_i}": bracket("M", "J"),
        "{M,L_i}": bracket("M", "L"),
        "{M,H}": bracket("M", "H"),
    }
    res = {name: float(np.max(np.abs(r))) for name, r in families.items()}
    res["max"] = max(res.values())
    return res


@dataclass(frozen=True, eq=False)
class CenterOfMass:
    """Energy centroid X0, spin S = J - X0 x P, and the canonical X."""

    X0: np.ndarray
    S: np.ndarray
    X: np.ndarray


def center_of_mass(sys: ParticleSystem) -> CenterOfMass:
    """Canonical center of mass X = X0 + c^2 (S x P)/(H(Mc^2 + H)).

    The spin correction makes {X_i, P_j} = delta_ij; for P = 0 the
    correction vanishes and X = X0.
    """
    _, inv, X0 = sys._snapshot
    return CenterOfMass(X0=X0, S=inv.S, X=inv.X)


@dataclass(frozen=True, eq=False)
class ClusterSummary:
    """Local invariants of one cluster and its clock rate against t."""

    indices: tuple
    M: float
    H: float
    K: float
    P: np.ndarray
    dtau_dt: float


def cluster_split(sys: ParticleSystem, partition: Sequence[Sequence[int]]):
    """Per-cluster effective mass, Hamiltonian, K and clock rate.

    The partition must cover all particle indices exactly once; each
    cluster gets its own local clock dtau_k = (M_k c^2/H_k) dt.
    """
    sys.require_free("cluster_split")
    c = sys.units.c
    seen: list[int] = []
    clusters = []
    hs = sys.particle_energies()
    for group in partition:
        idx = list(group)
        if not idx:
            raise DomainError("empty cluster in partition")
        seen.extend(idx)
        H_k = float(np.sum(hs[idx]))
        P_k = np.sum(sys.ps[idx], axis=0)
        M_k, K_k, _, _ = _mass_shell(H_k, P_k, c)
        clusters.append(
            ClusterSummary(
                indices=tuple(idx),
                M=M_k,
                H=H_k,
                K=K_k,
                P=P_k,
                dtau_dt=M_k * c**2 / H_k,
            )
        )
    if sorted(seen) != list(range(sys.n)):
        raise DomainError("partition must cover every particle exactly once")
    return clusters


@dataclass(frozen=True, eq=False)
class FreeTrajectory:
    """Recorded free evolution under the global generator."""

    taus: np.ndarray
    xs: np.ndarray  # (steps+1, n, 3)
    X: np.ndarray   # (steps+1, 3)
    t: np.ndarray
    H: float
    K: float
    M: float
    P: np.ndarray


def free_flight(sys: ParticleSystem, dtau: float, n_steps: int) -> FreeTrajectory:
    """Evolve a free system on the global clock.

    Momenta are constant and dx_i/dtau = v_i = b c p_i / H_i, so the flow
    is exact; observer time advances as t = (H/Mc^2) tau.
    """
    sys.require_free("free_flight")
    if not (math.isfinite(dtau) and dtau > 0.0):
        raise DomainError(f"dtau must be finite and positive, got {dtau}")
    if n_steps < 0:
        raise DomainError(f"n_steps must be non-negative, got {n_steps}")
    c = sys.units.c
    hs, inv, _ = sys._snapshot
    v = inv.b * c * sys.ps / hs[:, None]
    taus = dtau * np.arange(n_steps + 1)
    xs = sys.xs[None, :, :] + taus[:, None, None] * v[None, :, :]
    X = _center(hs, xs, sys.ps, inv.H, inv.P, inv.M, c)[3]
    t = (inv.H / (inv.M * c**2)) * taus
    return FreeTrajectory(
        taus=taus, xs=xs, X=X, t=t, H=inv.H, K=inv.K, M=inv.M, P=inv.P
    )


def generating_identity_residual(traj: FreeTrajectory, units: UnitSystem = NATURAL) -> float:
    """|int(P.dX - H dt) - int(P.dX - K dtau + dS)| along a free trajectory.

    S = [Mc^2 - K] tau, and both sides are accumulated by trapezoid sums
    over the recorded steps.
    """
    c = units.c
    dX = np.diff(traj.X, axis=0)
    p_dX = float(np.sum(dX @ traj.P))
    lhs = p_dX - traj.H * (traj.t[-1] - traj.t[0])
    S = (traj.M * c**2 - traj.K) * traj.taus
    rhs = p_dX - traj.K * (traj.taus[-1] - traj.taus[0]) + (S[-1] - S[0])
    return float(abs(lhs - rhs))


def evolve_observable(W: Callable, sys: ParticleSystem) -> float:
    """dW/dtau = sum_i (dtau_i/dtau) {W, K_i}; equals {W, K}.

    K_i = H_i^2/(2 m_i c^2) + m_i c^2/2 is the particle generator on its
    own clock, and the clock ratios chain the local rates to the global
    one.  ``W``'s gradient takes central differences, the K_i's the exact
    complex step.
    """
    sys.require_free("evolve_observable")
    c, m = sys.units.c, sys.masses

    def K_each(xs, ps):
        return sys.particle_energies(ps) ** 2 / (2.0 * m * c**2) + m * c**2 / 2.0

    rates = _bracket(phase_gradient(W, sys), _exact_gradient(K_each, sys))
    return float(clock_ratio(np.arange(sys.n), sys) @ rates)
