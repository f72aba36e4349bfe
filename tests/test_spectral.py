import math
import warnings

import numpy as np
import pytest
from scipy.special import k0, k1

from oracles import bessel_k_via_quadrature, sqrt_table_adaptive
from propertime.errors import DomainError, ResolutionError
from propertime.spectral import (
    KernelParameters,
    RadialGridFunction,
    SqrtOperator1D,
    apply_sqrt_operator,
    dirac_to_K_eigenvalue,
    fit_kernel_decay,
    line_kernel_weight,
    momentum_oracle,
    sqrt_kernel_weight,
)

PARAMS = KernelParameters.from_mass(1.0)


class TestKernelParameters:
    def test_consistency_enforced(self):
        with pytest.raises(DomainError):
            KernelParameters(mu=1.0001, hbar=1.0, m=1.0, c=1.0)

    def test_from_mass(self):
        p = KernelParameters.from_mass(2.0, c=3.0, hbar=0.5)
        assert p.mu == pytest.approx(12.0)
        assert p.rest_energy == pytest.approx(18.0)


class TestBesselValues:
    def test_published_ten_digit_values(self):
        assert k0(1.0) == pytest.approx(0.4210244382, abs=1e-10)
        assert k1(1.0) == pytest.approx(0.6019072302, abs=1e-10)

    def test_independent_quadrature_oracle(self):
        for x in (0.5, 1.0, 2.0, 5.0):
            assert k0(x) == pytest.approx(bessel_k_via_quadrature(0, x), rel=1e-9)
            assert k1(x) == pytest.approx(bessel_k_via_quadrature(1, x), rel=1e-9)


class TestRadialKernelWeight:
    def test_rejects_nonpositive_distance(self):
        with pytest.raises(DomainError):
            sqrt_kernel_weight(0.0, PARAMS)

    def test_exponential_tail(self):
        kappa = fit_kernel_decay(PARAMS)
        assert abs(kappa - PARAMS.mu) / PARAMS.mu < 0.02

    def test_tail_fit_scales_with_mass(self):
        heavy = KernelParameters.from_mass(2.5)
        kappa = fit_kernel_decay(heavy)
        assert abs(kappa - heavy.mu) / heavy.mu < 0.02

    def test_short_distance_divergence(self):
        d = np.geomspace(1e-4, 1e-2, 20)
        w = sqrt_kernel_weight(d, PARAMS)
        assert np.all(np.abs(w[:-1]) > np.abs(w[1:]))  # diverging inward
        # bracket's K1 piece dominates K0 as d -> 0 and carries slope -3
        k1_term = 2.0 * k1(PARAMS.mu * d) / (PARAMS.mu * d**2)
        k0_term = k0(PARAMS.mu * d) / d
        assert np.all(k1_term[:5] / k0_term[:5] > 10.0)
        slope = np.polyfit(np.log(d), np.log(k1_term), 1)[0]
        assert slope == pytest.approx(-3.0, abs=0.01)
        # whole weight approaches -2 hbar^2 c / (pi^2 d^4)
        limit = w * d**4
        assert limit[0] == pytest.approx(-2.0 / math.pi**2, rel=1e-3)


def test_line_kernel_symbol_matches_square_root():
    # continuum symbol of the subtracted 1-D kernel is hbar c sqrt(k^2 + mu^2)
    from scipy.integrate import quad

    for k in (0.5, 1.7, 4.0):
        val, _ = quad(
            lambda z: 2.0 * line_kernel_weight(z, PARAMS) * (math.cos(k * z) - 1.0),
            1e-12,
            np.inf,
            limit=400,
        )
        assert 1.0 + val == pytest.approx(math.sqrt(k**2 + 1.0), rel=1e-9)


class TestOperatorApplication:
    def test_linearity_zero(self):
        psi = RadialGridFunction(np.linspace(-10, 10, 64, endpoint=False), np.zeros(64))
        out = apply_sqrt_operator(psi, PARAMS)
        np.testing.assert_allclose(out.values, np.zeros(64), atol=1e-14)

    @pytest.mark.parametrize("width", [2.0, 5.0, 10.0])
    def test_matches_momentum_oracle(self, width):
        extent = max(20.0, 14.0 * width)
        psi = RadialGridFunction.gaussian(256, extent, width)
        via_kernel = apply_sqrt_operator(psi, PARAMS)
        via_fft = momentum_oracle(psi, PARAMS)
        err = np.sqrt(
            np.sum((via_kernel.values - via_fft.values) ** 2)
            / np.sum(via_fft.values**2)
        )
        assert err < 1e-3

    def test_wide_gaussian_nonrelativistic_expansion(self):
        width = 10.0
        psi = RadialGridFunction.gaussian(256, 140.0, width)
        out = apply_sqrt_operator(psi, PARAMS)
        lap = (
            np.roll(psi.values, -1) - 2 * psi.values + np.roll(psi.values, 1)
        ) / psi.spacing**2
        approx = PARAMS.rest_energy * psi.values - lap / (2.0 * PARAMS.m)
        err = np.sqrt(np.sum((out.values - approx) ** 2) / np.sum(out.values**2))
        assert err < 0.01

    def test_resolution_guard(self):
        with pytest.raises(ResolutionError):
            SqrtOperator1D(PARAMS, 32, spacing=1.5)

    def test_spectrum_bounded_below_by_rest_energy(self):
        for width in (1.5, 4.0, 9.0):
            psi = RadialGridFunction.gaussian(128, 14.0 * width, width)
            out = apply_sqrt_operator(psi, PARAMS)
            ip = float(np.sum(psi.values * out.values) * psi.spacing)
            assert ip >= PARAMS.rest_energy * psi.norm_sq() - 1e-9

    def test_operator_is_symmetric(self):
        op = SqrtOperator1D(PARAMS, 64, 0.5)
        mat = op.as_matrix()
        np.testing.assert_allclose(mat, mat.T, rtol=1e-12, atol=1e-14)


class TestOperatorTable:
    @pytest.mark.parametrize("mass", [0.5, 1.0, 2.0, 3.7])
    def test_matches_adaptive_table(self, mass):
        # one fixed Gauss-Legendre rule and the closed-form self cell against
        # per-cell quad; at mu dz = 1e-6 the x ln x terms of the closed form cancel
        params = KernelParameters.from_mass(mass)
        for n in (2, 3, 8, 64, 128, 256, 333, 1024, 2048):
            for mu_spacing in (1e-6, 1e-3, 0.3, 0.99):
                spacing = mu_spacing / params.mu
                new = SqrtOperator1D(params, n, spacing).weights
                old = sqrt_table_adaptive(params, n, spacing)
                assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))
                np.testing.assert_array_equal(new[1:], new[1:][::-1])

    def test_table_is_read_only(self):
        op = SqrtOperator1D(PARAMS, 16, 0.5)
        with pytest.raises(ValueError):
            op.weights[0] = 99.0

    @pytest.mark.parametrize(
        "call",
        [
            lambda: SqrtOperator1D(PARAMS, 1, 0.2),
            lambda: SqrtOperator1D(PARAMS, 0, 0.2),
            lambda: SqrtOperator1D(PARAMS, -3, 0.2),
            lambda: SqrtOperator1D(PARAMS, 2.5, 0.2),
            lambda: SqrtOperator1D(PARAMS, 8, 0.0),
            lambda: SqrtOperator1D(PARAMS, 8, -0.2),
            lambda: SqrtOperator1D(PARAMS, 8, float("nan")),
            lambda: SqrtOperator1D(PARAMS, 8, 0.2).apply(np.ones(5)),
        ],
        ids=["n-1", "n-0", "n-negative", "n-float", "spacing-0", "spacing-negative",
             "spacing-nan", "apply-wrong-length"],
    )
    def test_arguments_checked(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                call()


class TestMomentumOracle:
    def test_plane_wave_eigenfunction(self):
        n, extent, mode = 128, 40.0, 7
        wave = RadialGridFunction.plane_wave(n, extent, mode)
        out = momentum_oracle(wave, PARAMS)
        k = 2 * math.pi * mode / extent
        expected = math.sqrt(k**2 + 1.0)
        np.testing.assert_allclose(out.values, expected * wave.values, rtol=1e-12)

    def test_constant_mode_rest_energy(self):
        flat = RadialGridFunction(np.linspace(-8, 8, 32, endpoint=False), np.ones(32))
        out = momentum_oracle(flat, PARAMS)
        np.testing.assert_allclose(out.values, np.ones(32), rtol=1e-13)


class TestDiracMap:
    def test_rest_energy_fixed_point(self):
        assert dirac_to_K_eigenvalue(1.0, 1.0) == pytest.approx(1.0)

    def test_even_in_energy(self):
        for E in (0.3, 1.0, 2.7):
            assert dirac_to_K_eigenvalue(E, 1.0) == dirac_to_K_eigenvalue(-E, 1.0)

    def test_doubled_rest_energy(self):
        assert dirac_to_K_eigenvalue(2.0, 1.0) == pytest.approx(2.5)

    def test_bounded_below_on_physical_spectrum(self):
        # over the Dirac continuum |E| >= m c^2 the map stays above m c^2,
        # touching it exactly at the two rest-energy points
        energies = np.concatenate([np.linspace(-5.0, -1.0, 101), np.linspace(1.0, 5.0, 101)])
        values = np.array([dirac_to_K_eigenvalue(E, 1.0) for E in energies])
        assert np.all(values >= 1.0)
        at_rest = {E for E, v in zip(energies, values) if v == 1.0}
        assert at_rest == {-1.0, 1.0}

    def test_equally_spaced_energies_become_quadratic(self):
        E = np.arange(1.0, 6.0)
        K = np.array([dirac_to_K_eigenvalue(e, 1.0) for e in E])
        second_difference = np.diff(K, 2)
        np.testing.assert_allclose(second_difference, 1.0, rtol=1e-13)


class TestRadialGridFunction:
    def test_rejects_nonuniform_grid(self):
        with pytest.raises(DomainError):
            RadialGridFunction(np.array([0.0, 1.0, 2.5]), np.zeros(3))

    def test_rejects_nonfinite_values(self):
        with pytest.raises(DomainError):
            RadialGridFunction(np.array([0.0, 1.0, 2.0]), np.array([0.0, np.nan, 0.0]))

    def test_norm(self):
        f = RadialGridFunction(np.linspace(0, 9, 10), np.ones(10))
        assert f.norm_sq() == pytest.approx(10.0)
