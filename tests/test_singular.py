import math

import numpy as np
import pytest
from scipy import integrate, special

from fracspace.grid import FULL_LINE, Grid, GridFunction, PowerWeight, weighted_lp_norm
from fracspace import fourier
from fracspace.singular import (
    _EVEN_TERMS,
    _N_IMAGES,
    _ODD_TERMS,
    _far_field_kernel,
    _far_series,
    _singular_kernel,
    c_sigma,
    fractional_laplacian_singular,
    symbol_integral,
)
from fracspace.harness import generate_test_family


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


def _image_terms(n, h, sigma, big_r):
    """Reference terms, one row each: the cut power kernel of the 64 periodic
    images on each side and of j = 0, every image through the same cut and
    half-weight test, then the two closed-form tails (131 rows)."""
    n_images = 64
    m = np.arange(n, dtype=float)
    rows = []
    for j in range(-n_images, n_images + 1):
        d = np.abs(m + j * n) * h
        term = np.where(d > big_r + 0.25 * h, np.where(d > 0, d, 1.0) ** (-1.0 - sigma), 0.0)
        rows.append(np.where(np.abs(d - big_r) < 0.25 * h, 0.5 * big_r ** (-1.0 - sigma), term))
    jn = (n_images + 0.5) * n
    rows.append(((m + jn) * h) ** (-sigma) / (sigma * n * h))
    rows.append(((jn - m) * h) ** (-sigma) / (sigma * n * h))
    return np.array(rows)


def _image_sum(n, h, sigma, big_r):
    """Reference: the image terms summed in row order."""
    return _image_terms(n, h, sigma, big_r).sum(axis=0)


def _roll_far_field(f, sigma, big_r):
    """Reference: the |h| > R completion applied as its own FFT convolution."""
    h, n = f.grid.h, f.grid.n_points
    kernel = _image_sum(n, h, sigma, big_r)
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

    def test_computed_once_per_order(self):
        # a 3-N x 3-sigma ladder runs the quadrature once per sigma
        c_sigma.cache_clear()
        for n in (1024, 2048, 4096):
            f = generate_test_family(Grid(40.0, n, FULL_LINE), 30, 1)[0]
            for sigma in (0.3, 0.5, 0.7):
                fractional_laplacian_singular(f, sigma)
        assert c_sigma.cache_info().misses == 3
        with pytest.raises(ValueError):
            c_sigma(1.2)
        info = c_sigma.cache_info()
        assert (info.misses, info.currsize) == (4, 3)

    def test_rejects_order_outside_unit_interval(self):
        with pytest.raises(ValueError):
            c_sigma(1.2)
        with pytest.raises(ValueError):
            symbol_integral(1.0, 0.0)


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

    @pytest.mark.parametrize("half_width", [5.0, 40.0, 500.0])
    @pytest.mark.parametrize("n", [1024, 4096, 16384])
    @pytest.mark.parametrize("sigma", [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95])
    def test_far_field_kernel_matches_image_sum(self, n, sigma, half_width):
        # only the images j = -1, 0 pass through the cut, and one polynomial
        # in the offset sums the others and the tails in its own order:
        # every index agrees within 8 ulps with the exactly rounded sum of all
        # 131 reference terms
        h = Grid(half_width, n, FULL_LINE).h
        big_r = (n // 4) * h
        terms = _image_terms(n, h, sigma, big_r)
        ref = h * np.array([math.fsum(column) for column in terms.T])
        ref[0] -= (2.0 / sigma) * big_r ** (-sigma)
        ulps = np.abs(_far_field_kernel(n, h, sigma) - ref) / np.spacing(np.abs(ref))
        assert np.max(ulps) <= 8.0

    @pytest.mark.parametrize("sigma", [1e-9, 1.0 - 1e-9])
    def test_first_dropped_series_term_below_rounding(self, sigma):
        # at |d| = 1/2, where the series in d converges slowest, the first
        # even and the first odd term the polynomial drops are each below
        # 2^-60 of the far images' and tails' sum (image 64 and the tails
        # nearly cancel in an odd coefficient, so it is summed with its signs)
        expo = -1.0 - sigma
        pairs = [j + 0.5 for j in range(1, _N_IMAGES)]
        last = _N_IMAGES + 0.5

        def terms(d):
            images = [(a + d) ** expo + (a - d) ** expo for a in pairs]
            return images + [(last + d) ** expo, (last + 0.5 + d) ** -sigma / sigma,
                             (last - 0.5 - d) ** -sigma / sigma]

        def dropped(k):
            images = [2.0 * a ** (expo - k) for a in pairs] if k % 2 == 0 else []
            b_image, b_tail = special.binom(expo, k), special.binom(-sigma, k) / sigma
            parts = [b_image * x for x in images + [last ** (expo - k)]]
            parts += [b_tail * (last + 0.5) ** (-sigma - k),
                      b_tail * (-1.0) ** k * (last - 0.5) ** (-sigma - k)]
            return 0.5 ** k * abs(math.fsum(parts))

        total = min(math.fsum(terms(0.5)), math.fsum(terms(-0.5)))
        assert dropped(2 * _EVEN_TERMS) < 2.0 ** -60 * total
        assert dropped(2 * _ODD_TERMS + 1) < 2.0 ** -60 * total

    def test_repeated_calls_identical(self):
        g = Grid(40.0, 2048, FULL_LINE)
        f = _complex_input(g, 28)
        first = fractional_laplacian_singular(f, 0.4).values
        assert np.array_equal(fractional_laplacian_singular(f, 0.4).values, first)

    def test_cached_kernel_read_only(self):
        # the caches hold the kernel's spectrum and its far-field series
        g = Grid(40.0, 1024, FULL_LINE)
        spectrum = _singular_kernel(g.n_points, g.h, 0.5)
        assert spectrum.dtype == np.complex128
        with pytest.raises(ValueError):
            spectrum[0] = 0.0
        series = _far_series(0.5)
        with pytest.raises(ValueError):
            series[0, 0] = 0.0

    def test_one_kernel_per_grid_and_order(self):
        _singular_kernel.cache_clear()
        for n in (1024, 2048, 4096):
            g = Grid(40.0, n, FULL_LINE)
            for f in generate_test_family(g, 29, 3):
                for sigma in (0.3, 0.5, 0.7):
                    fractional_laplacian_singular(f, sigma)
        info = _singular_kernel.cache_info()
        assert (info.misses, info.hits) == (9, 18)
        with pytest.raises(ValueError):
            fractional_laplacian_singular(f, 1.2)
        assert _singular_kernel.cache_info().misses == 9

    def test_refinement_ladder_to_2_16(self):
        # the frac-laplacian-xcheck family (seed 42, 20 members) refined to
        # N = 2^16: the worst discrepancy falls at every doubling, per sigma
        sigmas = (0.3, 0.5, 0.7)
        worst = {sigma: [] for sigma in sigmas}
        for n in [2 ** k for k in range(10, 17)]:
            g = Grid(40.0, n, FULL_LINE)
            family = generate_test_family(g, 42, 20)
            for sigma in sigmas:
                sup = 0.0
                for f in family:
                    spec = fourier.fractional_laplacian_spectral(f, sigma)
                    sing = fractional_laplacian_singular(f, sigma)
                    sup = max(sup, weighted_lp_norm(sing - spec, 2.0, W0)
                              / weighted_lp_norm(spec, 2.0, W0))
                worst[sigma].append(sup)
        for sigma in sigmas:
            assert all(b < a for a, b in zip(worst[sigma], worst[sigma][1:])), worst[sigma]

    def test_zero_input(self):
        g = Grid(40.0, 1024, FULL_LINE)
        out = fractional_laplacian_singular(GridFunction(g, np.zeros(1024)), 0.4)
        assert np.all(out.values == 0.0)

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
