"""The nonlocal difference-quotient form of the fractional Laplacian.

The operator |xi|^sigma (sigma in (0, 1)) can be realized without the Fourier
transform: the annulus-truncated integral

    I_{r,R} f(x) = integral_{r < |h| < R} (f(x+h) - f(x)) / |h|^(1+sigma) dh

converges, after multiplication by the normalizing constant c_sigma, to the
spectral operator as r -> 0 and R -> inf.  This module computes c_sigma by
split quadrature, the truncated operator by exact integer-offset shifts, and
the extrapolated limit.

A sum of weighted symmetric differences f(x+mh) + f(x-mh) - 2 f(x) over
integer offsets m is a circular convolution with an even kernel.  Both
operators therefore assemble one length-N kernel from the difference-quotient
weights (and, for the limit, the Richardson mixture of its levels and the
periodic far-field image sum) and apply it with one FFT pair.  The kernels
never use |xi|^sigma, so the two representations stay independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .grid import FULL_LINE, Grid, GridFunction, warn_if_boundary_heavy


@dataclass(frozen=True)
class TruncationParams:
    """Annulus r < |h| < R and the density of the h-quadrature mesh."""

    inner: float
    outer: float
    points_per_decade: int = 40

    def __post_init__(self):
        if not (0 < self.inner < self.outer):
            raise ValueError(
                f"need 0 < inner < outer, got ({self.inner}, {self.outer})")
        if self.points_per_decade < 4:
            raise ValueError("points_per_decade must be at least 4")


def _cos_minus_one_series(r: float, sigma: float, xi: float, terms: int = 12) -> float:
    """integral_0^r (cos(xi h) - 1) h^(-1-sigma) dh by the alternating series."""
    total = 0.0
    for k in range(1, terms + 1):
        expo = 2 * k - sigma
        total += (-1.0) ** k * (xi ** (2 * k)) * r ** expo / (math.factorial(2 * k) * expo)
    return total


def _cos_tail(r: float, sigma: float, xi: float) -> float:
    """integral_r^inf cos(xi h) h^(-1-sigma) dh, decade by decade with a cos weight."""
    total = 0.0
    a = r
    while True:
        b = 10.0 * a
        chunk, _ = integrate.quad(lambda t: t ** (-1.0 - sigma), a, b,
                                  weight="cos", wvar=xi, limit=400)
        total += chunk
        a = b
        # integration by parts bounds the remainder by ~2 a^(-1-sigma)/xi
        if 2.0 * a ** (-1.0 - sigma) / xi < 1e-16 or a > 1e12:
            break
    return total


def symbol_integral(xi: float, sigma: float, split: float = 1.0) -> float:
    """integral_R (cos(xi h) - 1) / |h|^(1+sigma) dh (= the symbol up to 1/c).

    Split quadrature: a Taylor series for the smooth part on (0, split) and
    cosine-weighted quadrature per decade on (split, inf), both doubled for
    the two signs of h.
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")
    xi = abs(float(xi))
    if xi == 0.0:
        return 0.0
    split = min(split, 1.0 / xi)  # keep the series argument xi*h below 1
    near = _cos_minus_one_series(split, sigma, xi)
    far = _cos_tail(split, sigma, xi) - split ** (-sigma) / sigma
    return 2.0 * (near + far)


def c_sigma(sigma: float) -> float:
    """The negative constant with |xi|^sigma = c * integral (e^{i h xi} - 1)/|h|^{1+sigma} dh
    on the line (d = 1).

    Computed as 1/J with J the integral at |xi| = 1; J < 0, hence c < 0.
    """
    return 1.0 / symbol_integral(1.0, sigma)


def _offset_mesh(grid: Grid, params: TruncationParams) -> tuple[np.ndarray, np.ndarray]:
    """Integer shift counts m (h = m * grid.h) and trapezoid weights in h.

    Consecutive integers near the inner radius, then geometric growth capped
    by points_per_decade; shifts at integer offsets are exact band-limited
    translations of the periodized samples, so no interpolation error enters.
    """
    h = grid.h
    m_lo = int(round(params.inner / h))
    m_hi = int(math.floor(params.outer / h))
    if m_lo < 1:
        raise ValueError("inner radius below the grid spacing is meaningless")
    if params.outer > 0.5 * grid.half_width + 1e-12:
        raise ValueError("outer radius beyond L/2 is contaminated by periodization")
    ratio = 10.0 ** (1.0 / params.points_per_decade)
    ms = [m_lo]
    dense_top = max(m_lo + 1, 16)
    m = m_lo
    while m < m_hi:
        if m < dense_top:
            m += 1
        else:
            m = max(m + 1, int(round(m * ratio)))
        if m > m_hi:
            break
        ms.append(m)
    ms = np.asarray(ms, dtype=int)
    hs = ms * h
    w = np.empty_like(hs)
    if len(hs) == 1:
        w[0] = h
    else:
        # trapezoid on [inner, outer]: the inner boundary is respected exactly
        # so that the truncation error scales cleanly with the inner radius
        w[0] = 0.5 * (hs[1] - hs[0])
        w[-1] = 0.5 * (hs[-1] - hs[-2]) + max(0.0, params.outer - hs[-1])
        w[1:-1] = 0.5 * (hs[2:] - hs[:-2])
    return ms, w


def _pair_kernel(n: int, ms: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Length-n circular kernel of sum_m coeffs_m (f(x+mh) + f(x-mh) - 2 f(x)).

    The offsets satisfy m <= n/4, so +m and -m never share an index.
    """
    kernel = np.zeros(n)
    kernel[ms] = coeffs
    kernel[-ms] = coeffs
    kernel[0] = -2.0 * np.sum(coeffs)
    return kernel


def _circular_apply(values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Circular convolution of each column of ``values`` with ``kernel``."""
    spectrum = np.fft.fft(kernel)
    return np.fft.ifft(np.fft.fft(values, axis=0) * spectrum[:, None], axis=0)


def truncated_difference_operator(f: GridFunction, sigma: float,
                                  params: TruncationParams) -> GridFunction:
    """integral over the annulus of (f(x+h) - f(x)) / |h|^(1+sigma) dh.

    Uses symmetric +-h pairs (the odd Taylor term cancels, leaving a
    truncation error O(r^(2-sigma))) and exact integer-offset translations.
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")
    if f.grid.kind != FULL_LINE:
        raise ValueError("the difference operator needs a full-line grid")
    warn_if_boundary_heavy(f, "truncated_difference_operator")
    ms, weights = _offset_mesh(f.grid, params)
    coeffs = weights / (ms * f.grid.h) ** (1.0 + sigma)
    kernel = _pair_kernel(f.grid.n_points, ms, coeffs)
    return GridFunction(f.grid, _circular_apply(f.values, kernel))


def _far_field_kernel(grid: Grid, sigma: float, R: float,
                      n_images: int = 64) -> np.ndarray:
    """Circular kernel of the far field, integral over |h| > R of
    (f(x+h) - f(x)) / |h|^(1+sigma) dh, with f understood as 2L-periodic (the
    package-wide truncation convention, and what the spectral representation
    acts on).

    The f(x+h) part sums the cut power kernel over periodic images, explicitly
    up to ``n_images`` copies and closed-form (midpoint-corrected integral)
    beyond; the -f(x) part is the closed-form weight at index 0.
    """
    h = grid.h
    n = grid.n_points
    m = np.arange(n, dtype=float)
    expo = -1.0 - sigma
    kernel = np.zeros(n)
    for j in range(-n_images, n_images + 1):
        d = np.abs(m + j * n) * h
        term = np.where(d > R + 0.25 * h, np.where(d > 0, d, 1.0) ** expo, 0.0)
        term = np.where(np.abs(d - R) < 0.25 * h, 0.5 * R ** expo, term)
        kernel += term
    # analytic tails of the image sum (both signs of j)
    jn = (n_images + 0.5) * n
    kernel += ((m + jn) * h) ** (-sigma) / (sigma * n * h)
    kernel += ((jn - m) * h) ** (-sigma) / (sigma * n * h)
    kernel *= h
    kernel[0] -= (2.0 / sigma) * R ** (-sigma)
    return kernel


def fractional_laplacian_singular(f: GridFunction, sigma: float) -> GridFunction:
    """Difference-quotient realization of the operator with symbol |xi|^sigma.

    The annulus integral runs over every integer offset in [r, L/2] (exact
    translations, trapezoid weights whose uniformity lets the oscillatory
    error telescope), the region |h| > L/2 is completed by its periodic image
    kernel, the whole is scaled by c_sigma, and the O(r^(2-sigma)) inner
    truncation error is removed by two Richardson stages over r in {h, 2h, 4h}.
    Every level and the Richardson mixture are linear, so the result is one
    circular kernel applied once.
    """
    grid = f.grid
    if grid.kind != FULL_LINE:
        raise ValueError("needs a full-line grid")
    warn_if_boundary_heavy(f, "fractional_laplacian_singular")
    h = grid.h
    n = grid.n_points
    m_top = n // 4  # R = L/2 exactly
    ms = np.arange(1, m_top + 1)
    # trapezoid levels over m = k..m_top (inner radius r = k h), ends halved
    starts = np.array([1, 2, 4])
    levels = np.where(ms >= starts[:, None], h * (ms * h) ** (-1.0 - sigma), 0.0)
    levels[np.arange(len(starts)), starts - 1] *= 0.5
    levels[:, -1] *= 0.5
    # two Richardson stages with the known leading exponents 2-sigma, 4-sigma;
    # the mixing weights sum to one, so the far field enters exactly once
    a = 1.0 / (2.0 ** (2.0 - sigma) - 1.0)
    b = 1.0 / (2.0 ** (4.0 - sigma) - 1.0)
    mix = np.array([(1.0 + a) * (1.0 + b), -(1.0 + b) * a - b * (1.0 + a), a * b])
    kernel = _pair_kernel(n, ms, mix @ levels)
    kernel += _far_field_kernel(grid, sigma, m_top * h)
    return GridFunction(grid, c_sigma(sigma) * _circular_apply(f.values, kernel))


def difference_l1_bound(f: GridFunction, sigma: float,
                        params: TruncationParams, p: float = 2.0) -> float:
    """Quadrature of integral ||delta_h f||_{L^p} / |h|^(1+sigma) dh over the annulus.

    Finiteness and mesh stability of this number is the discrete form of the
    L^1-in-h estimate controlling the difference representation by the first
    order Sobolev norm.
    """
    ms, weights = _offset_mesh(f.grid, params)
    h_grid = f.grid.h
    vals = f.values
    total = 0.0
    for m, w in zip(ms, weights):
        for sign in (m, -m):
            delta = np.roll(vals, -sign, axis=0) - vals
            mags = np.sqrt(np.sum(np.abs(delta) ** 2, axis=1))
            lp = (np.sum(mags ** p) * h_grid) ** (1.0 / p)
            total += w * lp / (abs(sign) * h_grid) ** (1.0 + sigma)
    return float(total)
