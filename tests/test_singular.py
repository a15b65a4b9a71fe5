import math

import numpy as np
import pytest
from scipy import integrate

from fracspace.grid import FULL_LINE, Grid, GridFunction, PowerWeight, weighted_lp_norm
from fracspace import fourier
from fracspace.singular import (
    TruncationParams,
    _offset_mesh,
    c_sigma,
    difference_l1_bound,
    fractional_laplacian_singular,
    symbol_integral,
    truncated_difference_operator,
)
from fracspace.harness import generate_test_family

from helpers import plateau

W0 = PowerWeight(0.0)


def _oracle_c_sigma(sigma: float) -> float:
    """Independent adaptive-quadrature evaluation with Richardson tail removal.

    The -1 part of the tail beyond the cutoff is closed form; Richardson with
    period-locked cutoffs (where sin vanishes) removes the remaining
    oscillatory T^-(2+sigma) term.
    """
    def j_to(cut):
        near = integrate.quad(lambda t: (np.cos(t) - 1.0) / t ** (1 + sigma),
                              0.0, 1.0, limit=400, points=[0.0])[0]
        far = integrate.quad(lambda t: (np.cos(t) - 1.0) / t ** (1 + sigma),
                             1.0, cut, limit=4000)[0]
        return 2.0 * (near + far - cut ** (-sigma) / sigma)

    t1, t2 = 2 * np.pi * 64, 2 * np.pi * 128
    j1, j2 = j_to(t1), j_to(t2)
    q = 2.0 ** (2.0 + sigma)
    return 1.0 / (j2 + (j2 - j1) / (q - 1.0))


def _complex_input(grid, seed):
    re, im = generate_test_family(grid, seed, 2, fiber_dim=2)
    return GridFunction(grid, re.values + 1j * im.values)


def _pair(vals, m):
    return np.roll(vals, -m, axis=0) + np.roll(vals, m, axis=0) - 2.0 * vals


def _roll_truncated(f, sigma, params):
    """Reference: the annulus sum as one np.roll pass per offset."""
    ms, weights = _offset_mesh(f.grid, params)
    acc = np.zeros_like(f.values)
    for m, w in zip(ms, weights):
        acc += (w / (m * f.grid.h) ** (1.0 + sigma)) * _pair(f.values, m)
    return acc


def _roll_far_field(f, sigma, big_r, n_images=64):
    """Reference: the |h| > R completion applied as its own FFT convolution."""
    h, n = f.grid.h, f.grid.n_points
    m = np.arange(n, dtype=float)
    kernel = np.zeros(n)
    for j in range(-n_images, n_images + 1):
        d = np.abs(m + j * n) * h
        term = np.where(d > big_r + 0.25 * h, np.where(d > 0, d, 1.0) ** (-1.0 - sigma), 0.0)
        term = np.where(np.abs(d - big_r) < 0.25 * h, 0.5 * big_r ** (-1.0 - sigma), term)
        kernel += term
    jn = (n_images + 0.5) * n
    kernel += ((m + jn) * h) ** (-sigma) / (sigma * n * h)
    kernel += ((jn - m) * h) ** (-sigma) / (sigma * n * h)
    out = np.fft.ifft(np.fft.fft(f.values, axis=0) * np.fft.fft(h * kernel)[:, None], axis=0)
    return out - (2.0 / sigma) * big_r ** (-sigma) * f.values


def _roll_singular(f, sigma):
    """Reference: every Richardson level r in {h, 2h, 4h} as its own roll sum."""
    h, n = f.grid.h, f.grid.n_points
    m_top = n // 4
    far = _roll_far_field(f, sigma, m_top * h)

    def level(k):
        total = np.zeros_like(f.values)
        for m in range(k, m_top + 1):
            w = h * (m * h) ** (-1.0 - sigma)
            if m in (k, m_top):
                w *= 0.5
            total += w * _pair(f.values, m)
        return c_sigma(sigma) * (total + far)

    t1, t2, t4 = level(1), level(2), level(4)
    q2, q4 = 2.0 ** (2.0 - sigma), 2.0 ** (4.0 - sigma)
    s1 = t1 + (t1 - t2) / (q2 - 1.0)
    s2 = t2 + (t2 - t4) / (q2 - 1.0)
    return s1 + (s1 - s2) / (q4 - 1.0)


class TestCSigma:
    @pytest.mark.parametrize("sigma", [round(0.1 * k, 1) for k in range(1, 10)])
    def test_negative(self, sigma):
        assert c_sigma(sigma) < 0.0

    @pytest.mark.parametrize("sigma", [0.25, 0.5, 0.75])
    def test_against_independent_quadrature(self, sigma):
        assert c_sigma(sigma) == pytest.approx(_oracle_c_sigma(sigma), abs=1e-8)

    @pytest.mark.parametrize("xi", [0.5, 2.0, 8.0])
    def test_homogeneity(self, xi):
        sigma = 0.5
        c = c_sigma(sigma)
        assert c * symbol_integral(xi, sigma) == pytest.approx(xi ** sigma, abs=1e-6)

    def test_rejects_order_outside_unit_interval(self):
        with pytest.raises(ValueError):
            c_sigma(1.2)
        with pytest.raises(ValueError):
            symbol_integral(1.0, 0.0)


class TestTruncatedDifferenceOperator:
    def test_constant_maps_to_zero(self):
        g = Grid(40.0, 2048, FULL_LINE)
        f = GridFunction(g, np.ones(2048))
        with pytest.warns(RuntimeWarning):
            out = truncated_difference_operator(f, 0.5, TruncationParams(g.h, 10.0))
        assert np.max(np.abs(out.values)) < 1e-12

    def test_odd_functions_map_to_odd(self):
        g = Grid(40.0, 2048, FULL_LINE)
        x = g.points
        f = GridFunction(g, x * np.exp(-x ** 2 / 2))
        out = truncated_difference_operator(f, 0.5, TruncationParams(g.h, 10.0))
        v = out.values[:, 0]
        zero = g.zero_index
        flipped = v[zero + 1:]
        mirrored = v[zero - 1:0:-1][: len(flipped)]
        assert np.max(np.abs(flipped + mirrored)) < 1e-12

    def test_matches_truncated_symbol_on_grid_mode(self):
        g = Grid(40.0, 4096, FULL_LINE)
        omega = 2.0 * np.pi * 26 / (2 * g.half_width)
        f = GridFunction(g, np.cos(omega * g.points))
        sigma = 0.5
        r, big_r = 4 * g.h, 15.0
        with pytest.warns(RuntimeWarning):
            out = truncated_difference_operator(f, sigma, TruncationParams(r, big_r, 400))
        # oracle: the exact annulus integral acting on the mode
        j_trunc = 2.0 * integrate.quad(
            lambda t: (np.cos(omega * t) - 1.0) / t ** (1 + sigma), r, big_r,
            limit=4000)[0]
        ratio = out.values[:, 0].real / np.cos(omega * g.points)
        mask = np.abs(np.cos(omega * g.points)) > 0.5
        assert np.max(np.abs(ratio[mask] - j_trunc)) < 1e-4 * abs(j_trunc)

    @pytest.mark.parametrize("n", [1024, 4096])
    @pytest.mark.parametrize("sigma", [0.3, 0.7])
    def test_kernel_matches_roll_loop(self, n, sigma):
        g = Grid(40.0, n, FULL_LINE)
        f = _complex_input(g, 26)
        params = TruncationParams(g.h, 10.0, 40)  # dense near r, geometric beyond
        assert len(_offset_mesh(g, params)[0]) < int(10.0 / g.h)
        ref = _roll_truncated(f, sigma, params)
        out = truncated_difference_operator(f, sigma, params).values
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_truncation_validation(self):
        g = Grid(40.0, 1024, FULL_LINE)
        f = GridFunction(g, np.exp(-g.points ** 2))
        with pytest.raises(ValueError):
            truncated_difference_operator(f, 0.5, TruncationParams(g.h / 4, 10.0))
        with pytest.raises(ValueError):
            truncated_difference_operator(f, 0.5, TruncationParams(g.h, 30.0))
        with pytest.raises(ValueError):
            TruncationParams(1.0, 0.5)


class TestFractionalLaplacianSingular:
    @pytest.mark.parametrize("sigma", [0.3, 0.5, 0.7])
    def test_matches_spectral_representation(self, sigma):
        g = Grid(40.0, 4096, FULL_LINE)
        for f in generate_test_family(g, 21, 5):
            spec = fourier.fractional_laplacian_spectral(f, sigma)
            sing = fractional_laplacian_singular(f, sigma)
            rel = (weighted_lp_norm(sing - spec, 2.0, W0)
                   / weighted_lp_norm(spec, 2.0, W0))
            assert rel < 1e-3

    def test_eigenmode_limit(self):
        g = Grid(40.0, 4096, FULL_LINE)
        omega = 2.0 * np.pi * 26 / (2 * g.half_width)
        f = GridFunction(g, np.cos(omega * g.points))
        sigma = 0.5
        with pytest.warns(RuntimeWarning):
            out = fractional_laplacian_singular(f, sigma)
        ratio = out.values[:, 0].real / np.cos(omega * g.points)
        mask = np.abs(np.cos(omega * g.points)) > 0.5
        assert np.max(np.abs(ratio[mask] - omega ** sigma)) < 1e-4 * omega ** sigma

    def test_halving_composition(self):
        g = Grid(40.0, 4096, FULL_LINE)
        f = generate_test_family(g, 22, 1)[0]
        once = fractional_laplacian_singular(f, 0.5)
        with pytest.warns(RuntimeWarning):
            twice = fractional_laplacian_singular(once, 0.5)
        ref = fourier.fractional_laplacian_spectral(f, 1.0)
        rel = weighted_lp_norm(twice - ref, 2.0, W0) / weighted_lp_norm(ref, 2.0, W0)
        assert rel < 5e-3

    @pytest.mark.parametrize("n", [1024, 4096])
    @pytest.mark.parametrize("sigma", [0.3, 0.7])
    def test_kernel_matches_roll_loop(self, n, sigma):
        g = Grid(40.0, n, FULL_LINE)
        f = _complex_input(g, 27)
        ref = _roll_singular(f, sigma)
        out = fractional_laplacian_singular(f, sigma).values
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_zero_input(self):
        g = Grid(40.0, 1024, FULL_LINE)
        out = fractional_laplacian_singular(GridFunction(g, np.zeros(1024)), 0.4)
        assert np.all(out.values == 0.0)

    def test_truncation_convergence_monotone(self):
        # error against the spectral reference decreases along (r, 1/R) -> 0
        g = Grid(40.0, 4096, FULL_LINE)
        f = generate_test_family(g, 23, 1)[0]
        sigma = 0.5
        ref = fourier.fractional_laplacian_spectral(f, sigma)
        c = c_sigma(sigma)
        errs = []
        for r_mult, big_r in ((16, 2.5), (8, 5.0), (4, 10.0), (2, 20.0)):
            params = TruncationParams(r_mult * g.h, big_r, 200)
            tail = -(2.0 / sigma) * big_r ** (-sigma)
            approx = c * (truncated_difference_operator(f, sigma, params).values
                          + tail * f.values)
            errs.append(float(np.linalg.norm(approx - ref.values)))
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_l1_in_h_bound_stable(self):
        # quadrature of a fixed annulus: stable under both mesh refinement
        # and grid refinement, and controlled by the first-order norm
        sigma = 0.5
        totals = []
        for n, ppd in ((1024, 50), (2048, 100), (4096, 200)):
            g = Grid(40.0, n, FULL_LINE)
            f = generate_test_family(g, 24, 1)[0]
            params = TruncationParams(0.08, 10.0, ppd)
            w1 = (weighted_lp_norm(f, 2.0, W0)
                  + weighted_lp_norm(fourier.spectral_derivative(f), 2.0, W0))
            totals.append(difference_l1_bound(f, sigma, params, 2.0) / w1)
        assert all(math.isfinite(v) for v in totals)
        assert max(totals) - min(totals) <= 0.05 * min(totals)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_norm_equivalence_band(self):
        # ||f||_{s} is equivalent to ||f||_{s-sigma} + ||(-Lap)^{sigma/2} f||_{s-sigma}
        g = Grid(40.0, 2048, FULL_LINE)
        fam = generate_test_family(g, 25, 10)
        s, sigma, p, gamma = 1.0, 0.5, 2.0, 0.3
        w = PowerWeight(gamma)
        ratios = []
        for f in fam:
            num = (fourier.hsp_norm(f, s - sigma, p, w)
                   + fourier.hsp_norm(fractional_laplacian_singular(f, sigma),
                                      s - sigma, p, w))
            ratios.append(num / fourier.hsp_norm(f, s, p, w))
        assert max(ratios) < math.inf and min(ratios) > 0
        assert max(ratios) / min(ratios) < 3.0
