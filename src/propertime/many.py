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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, SpacelikeSystemError
from .kinematics import NATURAL, UnitSystem

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

_FD_H = 1e-5  # relative central-difference step of the bracket gradients


@dataclass(frozen=True)
class ParticleSystem:
    """Phase-space snapshot of n particles (free unless ``interaction`` given).

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
        m = np.atleast_1d(np.asarray(self.masses, dtype=float))
        xs = np.asarray(self.xs, dtype=float)
        ps = np.asarray(self.ps, dtype=float)
        if m.ndim != 1 or m.size < 1 or np.any(m <= 0.0):
            raise DomainError("need at least one particle with positive mass")
        if xs.shape != (m.size, 3) or ps.shape != (m.size, 3):
            raise DomainError("positions and momenta must have shape (n, 3)")
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ps", ps)

    @property
    def n(self) -> int:
        return self.masses.size

    def particle_energies(self, ps: Optional[np.ndarray] = None) -> np.ndarray:
        """H_i = sqrt(c^2 p_i^2 + m_i^2 c^4), free part only."""
        c = self.units.c
        ps = self.ps if ps is None else ps
        return np.sqrt(c**2 * np.sum(ps**2, axis=1) + self.masses**2 * c**4)

    def total_energy(self) -> float:
        H = float(np.sum(self.particle_energies()))
        if self.interaction is not None:
            H += float(self.interaction(self.xs))
        return H

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


@dataclass(frozen=True)
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


def _center(hs, xs, ps, H, P, M, c):
    """(X0, J, S, X) summed over the particle axis -2, so ``xs`` may carry
    a leading step axis; X = X0 + c^2 (S x P)/(H(Mc^2 + H))."""
    X0 = np.sum(hs[:, None] * xs, axis=-2) / H
    J = np.sum(np.cross(xs, ps), axis=-2)
    S = J - np.cross(X0, P)
    X = X0 + c**2 * np.cross(S, P) / (H * (M * c**2 + H))
    return X0, J, S, X


def system_invariants(sys: ParticleSystem) -> GlobalInvariants:
    """P, J, L, M, K, U, b plus the spin and canonical center of mass."""
    c = sys.units.c
    hs = sys.particle_energies()
    H = sys.total_energy()
    P = np.sum(sys.ps, axis=0)
    L = np.sum(hs[:, None] * sys.xs, axis=0) / c**2
    M, K, U, b = _mass_shell(H, P, c)
    _, J, S, X = _center(hs, sys.xs, sys.ps, H, P, M, c)
    return GlobalInvariants(H=H, P=P, J=J, L=L, M=M, K=K, U=U, b=b, S=S, X=X)


def clock_ratio(i, sys: ParticleSystem):
    """dtau_i/dtau = H m_i / (M H_i); an index array gives every ratio it
    names from one snapshot."""
    sys.require_free("clock_ratio")
    inv = system_invariants(sys)
    out = inv.H * sys.masses[i] / (inv.M * sys.particle_energies()[i])
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
    """(df/dx, df/dp) by central differences, step 1e-5 (1 + |q|) per coordinate q."""
    xs, ps = sys.xs, sys.ps
    gx = np.zeros_like(xs)
    gp = np.zeros_like(ps)
    for i in range(sys.n):
        for a in range(3):
            hx = _FD_H * (1.0 + abs(xs[i, a]))
            xp = xs.copy(); xp[i, a] += hx
            xm = xs.copy(); xm[i, a] -= hx
            gx[i, a] = (f(xp, ps) - f(xm, ps)) / (2.0 * hx)
            hp = _FD_H * (1.0 + abs(ps[i, a]))
            pp = ps.copy(); pp[i, a] += hp
            pm = ps.copy(); pm[i, a] -= hp
            gp[i, a] = (f(xs, pp) - f(xs, pm)) / (2.0 * hp)
    return gx, gp


def _bracket(grad_f, grad_g) -> float:
    """{f, g} from the phase gradients (df/dx, df/dp) and (dg/dx, dg/dp)."""
    fx, fp = grad_f
    gx, gp = grad_g
    return float(np.sum(fx * gp) - np.sum(fp * gx))


def poisson_bracket(f: Callable, g: Callable, sys: ParticleSystem) -> float:
    """{f, g} = sum_i (df/dx_i . dg/dp_i - df/dp_i . dg/dx_i), numerically.

    ``f`` and ``g`` are scalar observables of the phase arrays (xs, ps).
    """
    return _bracket(phase_gradient(f, sys), phase_gradient(g, sys))


def _observable_table(sys: ParticleSystem):
    c = sys.units.c

    def H(xs, ps):
        return float(np.sum(sys.particle_energies(ps)))

    def Mc2(xs, ps):
        P = np.sum(ps, axis=0)
        return float(np.sqrt(H(xs, ps) ** 2 - c**2 * (P @ P)))

    # The rest energy entering K is the system's conserved invariant, held
    # at its snapshot value when differentiating (as m is for one particle).
    rest = Mc2(sys.xs, sys.ps)

    def K(xs, ps):
        return float(H(xs, ps) ** 2 / (2.0 * rest) + rest / 2.0)

    obs = {"H": H, "M": lambda xs, ps: Mc2(xs, ps) / c**2, "K": K}
    for a in range(3):
        obs[f"P{a}"] = lambda xs, ps, a=a: float(np.sum(ps[:, a]))
        obs[f"J{a}"] = lambda xs, ps, a=a: float(np.sum(np.cross(xs, ps)[:, a]))
        obs[f"L{a}"] = lambda xs, ps, a=a: float(
            np.sum(sys.particle_energies(ps) * xs[:, a]) / c**2
        )
    return obs


def verify_algebra(sys: ParticleSystem) -> dict:
    """Numerical residuals of the bracket table at this phase point.

    Returns one max-|residual| entry per relation family plus ``max``;
    free systems only.
    """
    sys.require_free("verify_algebra")
    c = sys.units.c
    obs = _observable_table(sys)
    grads = {name: phase_gradient(fn, sys) for name, fn in obs.items()}

    def bracket(fa: str, fb: str) -> float:
        return _bracket(grads[fa], grads[fb])

    inv = system_invariants(sys)
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0

    res: dict[str, float] = {}

    def track(family: str, value: float):
        res[family] = max(res.get(family, 0.0), abs(value))

    for i in range(3):
        for j in range(3):
            track("{P_i,P_j}", bracket(f"P{i}", f"P{j}"))
            track("{J_i,P_j}-eps_ijk P_k", bracket(f"J{i}", f"P{j}") - eps[i, j] @ inv.P)
            track("{J_i,J_j}-eps_ijk J_k", bracket(f"J{i}", f"J{j}") - eps[i, j] @ inv.J)
            track("{J_i,L_j}-eps_ijk L_k", bracket(f"J{i}", f"L{j}") - eps[i, j] @ inv.L)
            track(
                "{P_i,L_j}+delta_ij H/c^2",
                bracket(f"P{i}", f"L{j}") + (inv.H / c**2 if i == j else 0.0),
            )
            track(
                "{L_i,L_j}+eps_ijk J_k/c^2",
                bracket(f"L{i}", f"L{j}") + (eps[i, j] @ inv.J) / c**2,
            )
    for i in range(3):
        track("{H,P_i}", bracket("H", f"P{i}"))
        track("{H,J_i}", bracket("H", f"J{i}"))
        track("{K,P_i}", bracket("K", f"P{i}"))
        track("{K,J_i}", bracket("K", f"J{i}"))
        track(
            "{K,L_i}+H P_i/(M c^2)",
            bracket("K", f"L{i}") + inv.H * inv.P[i] / (inv.M * c**2),
        )
        track("{M,P_i}", bracket("M", f"P{i}"))
        track("{M,J_i}", bracket("M", f"J{i}"))
        track("{M,L_i}", bracket("M", f"L{i}"))
    track("{M,H}", bracket("M", "H"))
    res["max"] = max(v for k, v in res.items() if k != "max")
    return res


@dataclass(frozen=True)
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
    c = sys.units.c
    H = sys.total_energy()
    P = np.sum(sys.ps, axis=0)
    M = _mass_shell(H, P, c)[0]
    X0, _, S, X = _center(sys.particle_energies(), sys.xs, sys.ps, H, P, M, c)
    return CenterOfMass(X0=X0, S=S, X=X)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    if not dtau > 0.0:
        raise DomainError(f"dtau must be positive, got {dtau}")
    if n_steps < 0:
        raise DomainError(f"n_steps must be non-negative, got {n_steps}")
    c = sys.units.c
    inv = system_invariants(sys)
    hs = sys.particle_energies()
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
    one.
    """
    sys.require_free("evolve_observable")
    c = sys.units.c
    ratios = clock_ratio(np.arange(sys.n), sys)
    grad_w = phase_gradient(W, sys)
    total = 0.0
    for i in range(sys.n):
        m_i = sys.masses[i]

        def K_i(xs, ps, i=i, m_i=m_i):
            h_i = np.sqrt(c**2 * (ps[i] @ ps[i]) + m_i**2 * c**4)
            return float(h_i**2 / (2.0 * m_i * c**2) + m_i * c**2 / 2.0)

        total += ratios[i] * _bracket(grad_w, phase_gradient(K_i, sys))
    return float(total)
