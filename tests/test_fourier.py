import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracspace.grid import (
    FULL_LINE,
    Grid,
    GridFunction,
    HALF_LINE,
    PowerWeight,
    mollify,
    weighted_lp_norm,
)
from fracspace import fourier
from fracspace.fourier import (
    apply_multiplier,
    bessel_potential,
    bessel_symbol,
    derivative_symbol,
    fractional_laplacian_spectral,
    hsp_norm,
    spectral_derivative,
    transform_values,
    wkp_norm,
    wkp_seminorm,
)
from fracspace.harness import generate_test_family

from helpers import plateau, seeds

W0 = PowerWeight(0.0)


def gaussian(grid, width=2.0):
    return GridFunction(grid, np.exp(-(grid.points / width) ** 2))


class TestApplyMultiplier:
    def test_identity(self):
        g = Grid(40.0, 2048, FULL_LINE)
        f = gaussian(g)
        out = apply_multiplier(np.ones_like, f)
        assert np.max(np.abs(out.values - f.values)) < 1e-14

    def test_derivative_of_windowed_sine(self):
        # N = 16384 puts the window's spectral tail below the tolerance
        g = Grid(40.0, 16384, FULL_LINE)
        x = g.points
        win = plateau(x, 0.0, 8.0, 20.0)
        f = GridFunction(g, np.sin(x) * win)
        out = apply_multiplier(lambda xi: 1j * xi, f)
        interior = np.abs(x) < 5.0
        assert np.max(np.abs(out.values[interior, 0] - np.cos(x[interior]))) < 1e-8

    def test_heat_kernel_convolution(self):
        # exp(-xi^2) fhat for f = exp(-x^2/4) gives exp(-x^2/8)/sqrt(2)
        g = Grid(40.0, 4096, FULL_LINE)
        x = g.points
        f = GridFunction(g, np.exp(-x ** 2 / 4))
        out = apply_multiplier(lambda xi: np.exp(-xi ** 2), f)
        ref = np.exp(-x ** 2 / 8) / math.sqrt(2.0)
        assert np.max(np.abs(out.values[:, 0] - ref)) < 1e-8

    def test_half_line_rejected(self):
        g = Grid(40.0, 1024, HALF_LINE)
        f = GridFunction(g, np.exp(-g.points))
        with pytest.raises(ValueError):
            apply_multiplier(np.ones_like, f)

    def test_boundary_heavy_input_warns(self):
        g = Grid(10.0, 1024, FULL_LINE)
        f = GridFunction(g, np.cos(g.points))
        with pytest.warns(RuntimeWarning):
            apply_multiplier(np.ones_like, f)


class TestHermitianSymbols:
    def test_non_hermitian_symbol_rejected(self):
        # m(-xi) != conj m(xi) would map real samples to complex ones
        f = gaussian(Grid(40.0, 1024, FULL_LINE))
        with pytest.raises(ValueError, match="not Hermitian"):
            apply_multiplier(lambda xi: (xi > 0) * 1.0, f)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_derivative_of_real_data_is_real(self, order):
        # equal to the real part of the complex FFT product
        g = Grid(40.0, 2048, FULL_LINE)
        f = gaussian(g)
        out = spectral_derivative(f, order).values
        assert out.dtype == np.float64
        symbol = derivative_symbol(order)(g.frequencies())
        full = np.fft.ifft(symbol[:, None] * np.fft.fft(f.values, axis=0), axis=0)
        tol = 1e-14 * np.max(np.abs(symbol))  # rounding grows with |xi|^order
        assert np.max(np.abs(out - full.real)) < tol
        assert np.max(np.abs(full.imag)) < tol

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_nyquist_mode_keeps_the_real_part_of_the_symbol(self, order):
        # (i xi)^order at xi = -pi N / (2 L): an odd order drops the mode,
        # an even one scales it by the real symbol value
        g = Grid(10.0, 64, FULL_LINE)
        mode = (-1.0) ** np.arange(64)
        with pytest.warns(RuntimeWarning):
            out = spectral_derivative(GridFunction(g, mode), order).values[:, 0]
        nyquist = -math.pi * 32 / 10.0
        expected = 0.0 if order % 2 else (1j * nyquist) ** order
        assert np.allclose(out, np.real(expected) * mode, rtol=1e-13, atol=1e-12)

    def test_complex_data_takes_the_same_symbol(self):
        g = Grid(40.0, 1024, FULL_LINE)
        f = gaussian(g)
        z = GridFunction(g, f.values * (1.0 - 2.0j))
        out = fractional_laplacian_spectral(z, 0.7).values
        assert out.dtype == np.complex128
        ref = fractional_laplacian_spectral(f, 0.7).values * (1.0 - 2.0j)
        assert np.max(np.abs(out - ref)) < 1e-14


class TestBesselPotential:
    def test_order_zero_is_identity(self):
        g = Grid(40.0, 2048, FULL_LINE)
        f = gaussian(g)
        out = bessel_potential(f, 0.0)
        assert np.max(np.abs(out.values - f.values)) < 1e-14

    def test_inverse_composition(self):
        g = Grid(40.0, 2048, FULL_LINE)
        f = gaussian(g)
        out = bessel_potential(bessel_potential(f, 0.7), -0.7)
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_group_property(self):
        g = Grid(40.0, 2048, FULL_LINE)
        f = gaussian(g)
        lhs = bessel_potential(bessel_potential(f, 0.4), 0.9)
        rhs = bessel_potential(f, 1.3)
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_grid_mode_eigenfunction(self):
        g = Grid(40.0, 1024, FULL_LINE)
        xi0 = 2.0 * np.pi * 5 / (2 * g.half_width)
        f = GridFunction(g, np.exp(1j * xi0 * g.points))
        out = bessel_potential(f, 0.6)
        factor = (1 + xi0 ** 2) ** 0.3
        assert np.max(np.abs(out.values - factor * f.values)) < 1e-12

    def test_commutes_with_mollification(self):
        g = Grid(40.0, 4096, FULL_LINE)
        f = generate_test_family(g, 11, 1)[0]
        a = bessel_potential(mollify(f, 8), 0.7)
        b = mollify(bessel_potential(f, 0.7), 8)
        bound = 1e-10 * weighted_lp_norm(f, 2.0, W0)
        assert weighted_lp_norm(a - b, 2.0, W0) <= bound


class TestFractionalLaplacianSpectral:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_cosine_mode(self):
        g = Grid(40.0, 1024, FULL_LINE)
        omega = 2.0 * np.pi * 7 / (2 * g.half_width)
        f = GridFunction(g, np.cos(omega * g.points))
        out = fractional_laplacian_spectral(f, 0.6)
        assert np.max(np.abs(out.values[:, 0]
                             - omega ** 0.6 * np.cos(omega * g.points))) < 1e-12

    def test_order_two_is_negative_second_derivative(self):
        g = Grid(40.0, 2048, FULL_LINE)
        f = gaussian(g)
        lhs = fractional_laplacian_spectral(f, 2.0)
        rhs = apply_multiplier(lambda xi: xi ** 2, f)
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12

    def test_rejects_nonpositive_order(self):
        g = Grid(40.0, 1024, FULL_LINE)
        with pytest.raises(ValueError):
            fractional_laplacian_spectral(gaussian(g), -0.5)


class TestSmoothnessNorms:
    def test_order_zero_matches_lp(self):
        g = Grid(40.0, 2048, FULL_LINE)
        f = gaussian(g)
        w = PowerWeight(0.4)
        assert hsp_norm(f, 0.0, 2.0, w) == pytest.approx(
            weighted_lp_norm(f, 2.0, w), rel=1e-13)

    def test_plancherel(self):
        g = Grid(40.0, 4096, FULL_LINE)
        f = GridFunction(g, np.exp(-g.points ** 2 / 4))
        s = 0.8
        xi, spec = transform_values(f)
        dxi = 2 * np.pi / (g.n_points * g.h)
        oracle = math.sqrt(np.sum((1 + xi ** 2) ** s * np.abs(spec[:, 0]) ** 2)
                           * dxi / (2 * np.pi))
        assert hsp_norm(f, s, 2.0, W0) == pytest.approx(oracle, abs=1e-8)

    def test_monotone_in_smoothness(self):
        g = Grid(40.0, 2048, FULL_LINE)
        fam = generate_test_family(g, 12, 20)
        for f in fam:
            assert hsp_norm(f, 0.3, 2.0, W0) <= hsp_norm(f, 0.9, 2.0, W0) * (1 + 1e-12)

    def test_wkp_order_zero(self):
        g = Grid(40.0, 2048, FULL_LINE)
        f = gaussian(g)
        w = PowerWeight(0.2)
        assert wkp_norm(f, 0, 2.0, w) == pytest.approx(
            weighted_lp_norm(f, 2.0, w), rel=1e-13)

    def test_wkp_gaussian_closed_form(self):
        g = Grid(40.0, 4096, FULL_LINE)
        f = GridFunction(g, np.exp(-g.points ** 2))
        expected = 2.0 * (math.pi / 2.0) ** 0.25  # ||f||_2 + ||f'||_2
        assert wkp_norm(f, 1, 2.0, W0) == pytest.approx(expected, abs=1e-8)

    def test_wkp_hsp_equivalence_band_stable(self):
        bands = []
        for n in (1024, 2048, 4096):
            g = Grid(40.0, n, FULL_LINE)
            fam = generate_test_family(g, 2, 20)
            ratios = [wkp_norm(f, 1, 2.0, W0) / hsp_norm(f, 1.0, 2.0, W0) for f in fam]
            bands.append((min(ratios), max(ratios)))
        for lo, hi in bands:
            assert 0 < lo <= hi < math.inf
        ref_lo, ref_hi = bands[-1]
        for lo, hi in bands:
            assert lo == pytest.approx(ref_lo, rel=0.05)
            assert hi == pytest.approx(ref_hi, rel=0.05)

    def test_embedding_chain(self):
        # the order-2 Bessel norm controls the first-order Sobolev norm
        sups = []
        for n in (1024, 2048, 4096):
            g = Grid(40.0, n, FULL_LINE)
            fam = generate_test_family(g, 1, 20)
            sups.append(max(wkp_norm(f, 1, 2.0, W0) / hsp_norm(f, 2.0, 2.0, W0)
                            for f in fam))
        assert all(math.isfinite(s) for s in sups)
        assert max(sups) - min(sups) <= 0.05 * min(sups)

    def test_hardy_inequality_property(self):
        # L^p(w_{gamma - s p}) is controlled by the order-s norm with w_gamma
        s, p, gamma = 0.4, 2.0, 0.5
        sups = []
        for n in (1024, 2048, 4096):
            g = Grid(40.0, n, FULL_LINE)
            fam = generate_test_family(g, 3, 20)
            target = PowerWeight(gamma - s * p)
            sups.append(max(
                weighted_lp_norm(f, p, target) / hsp_norm(f, s, p, PowerWeight(gamma))
                for f in fam))
        assert all(math.isfinite(v) for v in sups)
        assert max(sups) - min(sups) <= 0.05 * min(sups)

    def test_half_line_wkp_uses_extension(self):
        g = Grid(40.0, 2048, HALF_LINE)
        t = g.points
        # f and f' vanish at 0, keeping the boundary cell unbiased
        f = GridFunction(g, t ** 2 * np.exp(-t))
        val = wkp_norm(f, 1, 2.0, W0)
        ref = math.sqrt(3.0) / 2.0 + 0.5  # ||t^2 e^-t||_2 + ||(2t-t^2)e^-t||_2
        assert val == pytest.approx(ref, abs=1e-6)

    def test_seminorm_top_order_only(self):
        g = Grid(40.0, 2048, FULL_LINE)
        f = gaussian(g)
        top = weighted_lp_norm(spectral_derivative(f, 2), 2.0, W0)
        assert wkp_seminorm(f, 2, 2.0, W0) == pytest.approx(top, rel=1e-12)

    @pytest.mark.parametrize("kind", [FULL_LINE, HALF_LINE])
    def test_seminorm_equals_the_all_orders_path(self, kind):
        # the former implementation built every derivative j <= k and read
        # the last; computing the top order alone gives the same bits
        from fracspace.halfline import (reflect_extend, restrict_plus,
                                        solve_reflection_coefficients)
        g = Grid(40.0, 2048, kind)
        for f in generate_test_family(g, 11, 3):
            for k in (1, 2, 3):
                if kind == FULL_LINE:
                    restrict, base = (lambda v: v), f
                else:
                    restrict = restrict_plus
                    base = reflect_extend(f, solve_reflection_coefficients(max(1, k)))
                derivs = [spectral_derivative(base, j) if j else base for j in range(k + 1)]
                for p, gamma in ((2.0, 0.0), (1.5, -0.5), (3.0, 1.0)):
                    w = PowerWeight(gamma)
                    ref = weighted_lp_norm(restrict(derivs[-1]), p, w)
                    assert np.array_equal(wkp_seminorm(f, k, p, w), ref)


# sweep inputs: small grids whose edge samples lie outside the family window,
# and fiber dimensions 1 and 2
sweep_sizes = st.sampled_from([2 ** k for k in range(6, 11)])
sweep_fibers = st.integers(1, 2)
sweep_symbols = st.lists(st.one_of(st.floats(-2.0, 2.0).map(bessel_symbol),
                                   st.integers(1, 3).map(derivative_symbol)),
                         min_size=1, max_size=4)


class TestTransformSweep:
    @settings(max_examples=30, deadline=None)
    @given(n=sweep_sizes, fiber_dim=sweep_fibers, seed=seeds, symbols=sweep_symbols)
    def test_apply_multiplier_is_a_slice_of_the_sweep(self, n, fiber_dim, seed, symbols):
        f = generate_test_family(Grid(40.0, n, FULL_LINE), seed, 1, fiber_dim=fiber_dim)[0]
        stacked = fourier._multiplied(fourier._symbol_values(symbols, f.grid), f)
        assert stacked.shape == (len(symbols), n, fiber_dim)
        spec = np.fft.rfft(f.values, axis=0)
        half = n // 2 + 1
        for m, values in zip(symbols, stacked):
            assert np.array_equal(apply_multiplier(m, f).values, values)
            # the one-symbol formula on the half spectrum
            single = np.fft.irfft(spec * m(f.grid.frequencies())[:half, None], n, axis=0)
            assert np.array_equal(single, values)

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from([FULL_LINE, HALF_LINE]), n=sweep_sizes,
           fiber_dim=sweep_fibers, seed=seeds, k=st.integers(0, 3),
           p=st.floats(1.1, 4.0), gamma=st.floats(-0.9, 2.0))
    def test_wkp_norm_is_the_sum_of_derivative_norms(self, kind, n, fiber_dim, seed,
                                                      k, p, gamma):
        from fracspace.halfline import (reflect_extend, restrict_plus,
                                        solve_reflection_coefficients)
        f = generate_test_family(Grid(40.0, n, kind), seed, 1, fiber_dim=fiber_dim)[0]
        if kind == FULL_LINE:
            restrict, base = (lambda v: v), f
        else:
            restrict = restrict_plus
            base = reflect_extend(f, solve_reflection_coefficients(max(1, k)))
        w = PowerWeight(gamma)
        former = float(sum(
            weighted_lp_norm(restrict(spectral_derivative(base, j) if j else base), p, w)
            for j in range(k + 1)))
        assert wkp_norm(f, k, p, w) == former
