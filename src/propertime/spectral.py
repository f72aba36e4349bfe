r"""The nonlocal square-root operator :math:`\sqrt{c^2 p^2 + m^2 c^4}`.

Coordinate-space representation built from modified Bessel functions of
the third kind with inverse range :math:`\mu = mc/\hbar`.  The 3-D radial
weight (particle branch, spin-independent) is

.. math::
    w(d) = -\frac{\mu^2\hbar^2 c}{\pi^2}\,\frac{1}{d}
           \Big[\frac{K_0(\mu d)}{d} + \frac{2 K_1(\mu d)}{\mu d^2}\Big],

with exponential cutoff at the Compton scale; the delta counter-term of
the full representation cancels the short-distance divergence.

Grid application is done in one dimension, where the same frequency
symbol has the line kernel :math:`S_1(z) = -\hbar c \mu K_1(\mu|z|)/
(\pi|z|)` and the counter-term structure reduces to the subtracted form

.. math::
    S[\psi](x) = mc^2\,\psi(x)
        + \mathrm{PV}\!\int S_1(z)\,[\psi(x - z) - \psi(x)]\,dz .

Discretization scheme (reproducible): on a periodic grid of spacing
:math:`\Delta`, every off-diagonal cell contributes its kernel moments
:math:`\int S_1`, :math:`\int (z - z_j) S_1`, :math:`\int (z-z_j)^2 S_1`,
applied to a local quadratic reconstruction of :math:`\psi(x - z)` by
central differences.  The moments of each cell come from a fixed
Gauss-Legendre rule: the :math:`1/z^2` pole of :math:`S_1` lies :math:`2m`
half-widths from the centre of the cell at offset :math:`m\Delta`, so a
:math:`k`-point rule there converges like
:math:`(2m + \sqrt{4m^2 - 1})^{-2k}`.  Cells :math:`m \le 2` take 20
nodes, :math:`(2 + \sqrt{3})^{-40} \approx 10^{-23}` at the nearest pair;
cells :math:`m \ge 3` take 8, :math:`(6 + \sqrt{35})^{-16} \approx
6 \cdot 10^{-18}` at the nearest of them.  Cells at :math:`\pm z_j` share
their even moments and have opposite odd ones, so each offset is
integrated once.
The self cell, where the PV subtraction leaves the finite integrand
:math:`S_1(z) z^2 \psi''/2`, contributes its second moment, in closed form
from :math:`\int_0^x t K_1(t)\,dt = \int_0^x K_0(t)\,dt - x K_0(x)`, to the
standard three-point Laplacian stencil.  The subtraction pins the zero-
frequency response at exactly :math:`mc^2`, which is how the delta
counter-term enters.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError

__all__ = [
    "KernelParameters",
    "RadialGridFunction",
    "SqrtOperator1D",
    "sqrt_kernel_weight",
    "line_kernel_weight",
    "apply_sqrt_operator",
    "momentum_oracle",
    "fit_kernel_decay",
    "dirac_to_K_eigenvalue",
]


# Cells at offsets m dz with m <= _NEAR_CELLS take _NEAR_NODES Gauss-Legendre
# nodes, the rest _FAR_NODES; the module docstring gives the error bound.
_NEAR_CELLS = 2
_NEAR_NODES = 20
_FAR_NODES = 8


@functools.cache
def _gauss_legendre(k):
    """Nodes and weights of the k-point Gauss-Legendre rule on [-1, 1].

    Computed on first use, not at import: its eigenvalue solve is a
    process's first LAPACK call, which maps about 0.7 MB that processes
    building no table do not need.
    """
    return np.polynomial.legendre.leggauss(k)


@dataclass(frozen=True)
class KernelParameters:
    """Kernel scales: mu = m c / hbar must hold to 1e-14 relative."""

    mu: float
    hbar: float
    m: float
    c: float

    def __post_init__(self):
        if not all(0.0 < value < math.inf for value in (self.mu, self.hbar, self.m, self.c)):
            raise DomainError(f"kernel parameters must be finite and positive, got {self}")
        expected = self.m * self.c / self.hbar
        # an m c/hbar that overflows to inf matches no finite mu
        if not abs(self.mu - expected) <= 1e-14 * expected < math.inf:
            raise DomainError(f"mu = {self.mu} inconsistent with m c/hbar = {expected}")

    @classmethod
    def from_mass(cls, m: float, c: float = 1.0, hbar: float = 1.0) -> "KernelParameters":
        return cls(mu=m * c / hbar, hbar=hbar, m=m, c=c)

    @property
    def rest_energy(self) -> float:
        return self.m * self.c**2


@dataclass(frozen=True, eq=False)
class RadialGridFunction:
    """Samples on a uniform 1-D grid (periodic for operator application)."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values)
        if grid.ndim != 1 or grid.size < 2 or values.shape != grid.shape:
            raise DomainError("grid and values must be matching 1-D arrays")
        steps = np.diff(grid)
        if np.any(steps <= 0.0) or np.ptp(steps) > 1e-9 * steps[0]:
            raise DomainError("grid must be uniform and increasing")
        if not np.all(np.isfinite(values)):
            raise DomainError("values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def n(self) -> int:
        return self.grid.size

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.spacing)

    @classmethod
    def gaussian(cls, n: int, extent: float, width: float, center: float = 0.0) -> "RadialGridFunction":
        """exp(-(x-center)^2 / (2 width^2)) on n points spanning ``extent``."""
        spacing = extent / n
        grid = -0.5 * extent + spacing * np.arange(n)
        return cls(grid=grid, values=np.exp(-((grid - center) ** 2) / (2.0 * width**2)))

    @classmethod
    def plane_wave(cls, n: int, extent: float, mode: int) -> "RadialGridFunction":
        """exp(i k x) with k = 2 pi mode / extent (an exact grid mode)."""
        spacing = extent / n
        grid = -0.5 * extent + spacing * np.arange(n)
        k = 2.0 * math.pi * mode / extent
        return cls(grid=grid, values=np.exp(1j * k * grid))


def sqrt_kernel_weight(d, params: KernelParameters):
    """3-D radial weight of the square-root operator away from the origin.

    Decays like exp(-mu d) beyond the Compton scale; diverges at short
    distance, where the K1 piece of the bracket dominates and the delta
    counter-term takes over.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0.0):
        raise DomainError("distance must be positive")
    from scipy.special import k0, k1

    mu, hbar, c = params.mu, params.hbar, params.c
    bracket = k0(mu * d) / d + 2.0 * k1(mu * d) / (mu * d**2)
    out = -(mu**2 * hbar**2 * c / math.pi**2) * bracket / d
    return float(out) if out.ndim == 0 else out


def line_kernel_weight(z, params: KernelParameters):
    """1-D analog kernel S1(z) = -hbar c mu K1(mu |z|) / (pi |z|), z != 0."""
    z = np.asarray(z, dtype=float)
    az = np.abs(z)
    if np.any(az == 0.0):
        raise DomainError("offset must be nonzero")
    from scipy.special import k1

    out = -params.hbar * params.c * params.mu * k1(params.mu * az) / (math.pi * az)
    return float(out) if out.ndim == 0 else out


def _cell_moments(offsets, dz, params, k):
    """Moments (w0, w1, w2) of S1 over the cells at ``offsets * dz``, k nodes each."""
    nodes, weights = _gauss_legendre(k)
    t = 0.5 * dz * nodes
    z = dz * offsets[:, None] + t
    powers = 0.5 * dz * weights * np.stack([np.ones_like(t), t, t * t])
    return line_kernel_weight(z, params) @ powers.T


class SqrtOperator1D:
    """Cell-integrated coordinate-space application on a periodic grid.

    The convolution table is precomputed once and never mutated, so one
    instance can serve concurrent applications.
    """

    def __init__(self, params: KernelParameters, n: int, spacing: float):
        if not (isinstance(n, numbers.Integral) and n >= 2):
            raise DomainError(f"grid size must be an integer >= 2, got {n!r}")
        if not (isinstance(spacing, numbers.Real) and math.isfinite(spacing) and spacing > 0.0):
            raise DomainError(f"grid spacing must be finite and positive, got {spacing!r}")
        if params.mu * spacing > 1.0:
            raise ResolutionError(
                f"mu * spacing = {params.mu * spacing} > 1: kernel unresolved"
            )
        self.params = params
        self.n = n
        self.spacing = spacing
        self.weights = self._build_table()
        self.weights.flags.writeable = False

    def _build_table(self) -> np.ndarray:
        n, dz = self.n, self.spacing
        p = self.params
        half = n // 2
        # moments (w0, w1, w2) of the cells at offsets +m dz, m = 1..n//2,
        # by a fixed Gauss-Legendre rule in t = z - z_m: the 1/z^2 pole
        # at z = 0 lies half a cell outside even the nearest cell.  The
        # mirror cell at -m dz has the same w0, w2 and the opposite w1.
        offsets = np.arange(1, half + 1)
        moments = np.concatenate([
            _cell_moments(offsets[:_NEAR_CELLS], dz, p, _NEAR_NODES),
            _cell_moments(offsets[_NEAR_CELLS:], dz, p, _FAR_NODES),
        ])
        # minimum-image offset of cell j: kernel is applied over one period
        offset = (np.arange(1, n) + half) % n - half
        w0, w1, w2 = moments[np.abs(offset) - 1].T
        w1 = np.sign(offset) * w1
        # psi(x - z) ~ psi_{i-j} - psi'(x_{i-j})(z - z_j) + psi''(x_{i-j})(z-z_j)^2/2
        below, centre, above = np.zeros((3, n))  # into cells j - 1, j, j + 1
        centre[1:] = w0 - w2 / dz**2
        below[1:] = -w1 / (2.0 * dz) + w2 / (2.0 * dz**2)
        above[1:] = w1 / (2.0 * dz) + w2 / (2.0 * dz**2)
        table = centre + np.roll(below, -1) + np.roll(above, 1)

        # self cell: PV kills the odd moment, and with x = mu dz / 2
        # int_{-dz/2}^{dz/2} S1(z) z^2 dz = -(2 hbar c/(pi mu)) int_0^x t K1(t) dt,
        # where int_0^x t K1 = int_0^x K0 - x K0(x)
        from scipy.special import iti0k0, k0

        x = 0.5 * p.mu * dz
        m2_self = -2.0 * p.hbar * p.c / (math.pi * p.mu) * (iti0k0(x)[1] - x * k0(x))
        table[0] += p.rest_energy - w0.sum() - m2_self / dz**2
        table[1] += m2_self / (2.0 * dz**2)
        table[n - 1] += m2_self / (2.0 * dz**2)
        # symmetrize across the periodic seam (exactly self-adjoint table)
        idx = (-np.arange(n)) % n
        return 0.5 * (table + table[idx])

    def apply(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if values.shape != (self.n,):
            raise DomainError(f"values of shape {values.shape} on a grid of {self.n} points")
        # circulant convolution S[psi]_i = sum_d W[d] psi_{i-d}
        out = np.fft.ifft(np.fft.fft(values) * np.fft.fft(self.weights))
        if np.isrealobj(values):
            return out.real
        return out

    def as_matrix(self) -> np.ndarray:
        idx = (np.arange(self.n)[:, None] - np.arange(self.n)[None, :]) % self.n
        return self.weights[idx]


def apply_sqrt_operator(psi: RadialGridFunction, params: KernelParameters) -> RadialGridFunction:
    """S[psi] through the coordinate-space kernel table."""
    op = SqrtOperator1D(params, psi.n, psi.spacing)
    return RadialGridFunction(grid=psi.grid, values=op.apply(psi.values))


def momentum_oracle(psi: RadialGridFunction, params: KernelParameters) -> RadialGridFunction:
    """S[psi] by direct frequency-domain multiplication (the exact route)."""
    k = 2.0 * math.pi * np.fft.fftfreq(psi.n, d=psi.spacing)
    symbol = np.sqrt(params.c**2 * params.hbar**2 * k**2 + params.m**2 * params.c**4)
    out = np.fft.ifft(symbol * np.fft.fft(psi.values))
    if np.isrealobj(psi.values):
        out = out.real
    return RadialGridFunction(grid=psi.grid, values=out)


def fit_kernel_decay(params: KernelParameters) -> float:
    """Exponential decay constant of the 3-D kernel tail.

    Least-squares fit of ln|w| against the asymptotic Bessel-envelope
    model a + nu ln d - kappa d + beta/d at 60 points over [3/mu, 8/mu];
    the 1/d term carries the first subleading correction of the envelope,
    without which the window is not deep enough in the tail.  Returns
    kappa, which should track mu.
    """
    mu = params.mu
    d = np.linspace(3.0 / mu, 8.0 / mu, 60)
    w = np.abs(sqrt_kernel_weight(d, params))
    design = np.column_stack([np.ones_like(d), np.log(d), d, 1.0 / d])
    coef, *_ = np.linalg.lstsq(design, np.log(w), rcond=None)
    return float(-coef[2])


def dirac_to_K_eigenvalue(E: float, m: float, c: float = 1.0) -> float:
    """Map a Dirac energy eigenvalue onto the proper-time generator spectrum.

    K(E) = E^2/(2 m c^2) + m c^2/2: even in E, bounded below by m c^2 with
    equality exactly at |E| = m c^2; equally spaced E_n become
    quadratically spaced K_n.  Raises :class:`DomainError` unless m and c
    are finite and positive.
    """
    if not (0.0 < m < math.inf and 0.0 < c < math.inf):
        raise DomainError(f"mass and c must be finite and positive, got m = {m!r}, c = {c!r}")
    # products, not powers: a float power raises OverflowError where a product gives inf
    c2 = c * c
    return float(E * E / (2.0 * m * c2) + m * c2 / 2.0)
