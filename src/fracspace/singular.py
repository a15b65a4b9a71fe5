"""The nonlocal difference-quotient form of the fractional Laplacian.

The operator |xi|^sigma (sigma in (0, 1)) can be realized without the Fourier
transform: the annulus-truncated integral

    I_{r,R} f(x) = integral_{r < |h| < R} (f(x+h) - f(x)) / |h|^(1+sigma) dh

converges, after multiplication by the normalizing constant c_sigma, to the
spectral operator as r -> 0 and R -> inf.  This module computes c_sigma and
the extrapolated limit.  c_sigma = 1/J with J the integral at |xi| = 1: a
Taylor series on (0, 1) and, beyond, the fixed cosine-transform rule of
``_quad`` (Gauss-Legendre panels between the zeros of the cosine, summed by
Levin's u-transform, certified by its last two estimates).

A sum of weighted symmetric differences f(x+mh) + f(x-mh) - 2 f(x) over
integer offsets m is a circular convolution with an even kernel.  The limit
therefore assembles one length-N kernel from the difference-quotient weights
(the Richardson mixture of its levels and the periodic far-field image sum,
whose images on the two sides share one folded sum of powers; past the first
few images that sum is one Taylor polynomial in the offset) and applies it
with ``_conv.convolve`` at size N.  That kernel depends only on (N, h,
sigma), so its spectrum is computed once per key and kept, read-only, in a
small bounded in-process cache; c_sigma is likewise computed once per sigma.
The kernel never uses |xi|^sigma, so the two representations stay
independent.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import _conv, _quad
from .grid import FULL_LINE, GridFunction, _require_kind, warn_if_boundary_heavy


def check_sigma(sigma: float) -> None:
    """Raise ValueError unless sigma lies in (0, 1), the order range of this module."""
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")


def _cos_minus_one_series(r: float, sigma: float, xi: float) -> float:
    """integral_0^r (cos(xi h) - 1) h^(-1-sigma) dh by 12 terms of the alternating series."""
    total = 0.0
    for k in range(1, 13):
        expo = 2 * k - sigma
        total += (-1.0) ** k * (xi ** (2 * k)) * r ** expo / (math.factorial(2 * k) * expo)
    return total


def _cos_tail(r: float, sigma: float, xi: float) -> float:
    """integral_r^inf cos(xi h) h^(-1-sigma) dh by ``_quad.cos_transform``:
    Gauss-Legendre panels between the zeros of cos(xi h), the half-periods
    summed by Levin's u-transform; it raises ArithmeticError unless its last
    two accelerated estimates agree."""
    return _quad.cos_transform(lambda t: t ** (-1.0 - sigma), r, xi)


def symbol_integral(xi: float, sigma: float, split: float = 1.0) -> float:
    """integral_R (cos(xi h) - 1) / |h|^(1+sigma) dh (= the symbol up to 1/c).

    A 12-term Taylor series on (0, split) and, on (split, inf), the fixed
    cosine-transform rule of ``_cos_tail`` less the closed-form integral of
    the -1; both are doubled for the two signs of h.
    """
    check_sigma(sigma)
    xi = abs(float(xi))
    if xi == 0.0:
        return 0.0
    split = min(split, 1.0 / xi)  # keep the series argument xi*h below 1
    near = _cos_minus_one_series(split, sigma, xi)
    far = _cos_tail(split, sigma, xi) - split ** (-sigma) / sigma
    return 2.0 * (near + far)


@functools.lru_cache(maxsize=32)
def c_sigma(sigma: float) -> float:
    """The negative constant with |xi|^sigma = c * integral (e^{i h xi} - 1)/|h|^{1+sigma} dh
    on the line (d = 1).

    Computed as 1/J with J = ``symbol_integral(1, sigma)``, a Taylor series
    plus a certified fixed-order cosine transform; J < 0, hence c < 0.  J is
    computed once per sigma (bounded in-process cache).
    """
    return 1.0 / symbol_integral(1.0, sigma)


def _pair_kernel(n: int, ms: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Length-n circular kernel of sum_m coeffs_m (f(x+mh) + f(x-mh) - 2 f(x)).

    The offsets satisfy m <= n/4, so +m and -m never share an index.
    """
    kernel = np.zeros(n)
    kernel[ms] = coeffs
    kernel[-ms] = coeffs
    kernel[0] = -2.0 * np.sum(coeffs)
    return kernel


# periodic images summed explicitly on each side of the far field
_N_IMAGES = 64
# images j = 1 .. _NEAR_IMAGES - 1 of the folded sum are explicit, the rest one
# polynomial of _SERIES_TERMS terms: its first dropped term is below 2^-60 of
# the sum for every sigma in (0, 1)
_NEAR_IMAGES = 4
_SERIES_TERMS = 32


def _image_series(sigma: float) -> list[float]:
    """Coefficients a_k (k = 0 .. _SERIES_TERMS - 1) of the Taylor polynomial
    sum_k a_k x^k of sum_{j=_NEAR_IMAGES}^{_N_IMAGES-1} (j + x)^(-1-sigma) on 0 <= x <= 1.

    a_k = binom(-1-sigma, k) sum_j j^(-1-sigma-k), each sum of powers exactly
    rounded (``math.fsum``).  The series in x / j converges geometrically
    with ratio at most 1/_NEAR_IMAGES and alternates in sign.
    """
    expo = -1.0 - sigma
    j = np.arange(_NEAR_IMAGES, _N_IMAGES, dtype=float)
    powers = j ** (expo - np.arange(_SERIES_TERMS)[:, None])
    coeffs = []
    binom = 1.0
    for k, row in enumerate(powers.tolist()):
        coeffs.append(binom * math.fsum(row))
        binom *= (expo - k) / (k + 1)
    return coeffs


def _scaled_power(values: np.ndarray, h: float, e: float) -> np.ndarray:
    """(values h)^e, formed in ``values``, which it returns."""
    values *= h
    return np.power(values, e, out=values)


def _far_field_kernel(n: int, h: float, sigma: float) -> np.ndarray:
    """Circular kernel of the far field, integral over |h| > R of
    (f(x+h) - f(x)) / |h|^(1+sigma) dh with R = (n // 4) h = L/2, f understood
    as 2L-periodic (the package-wide truncation convention, and what the
    spectral representation acts on).

    The f(x+h) part sums the cut power kernel over periodic images, explicitly
    up to 64 copies on each side and closed-form (midpoint-corrected integral)
    beyond; the -f(x) part is the closed-form weight at index 0.  For
    0 <= m < n, image j >= 1 lies at (m + j n) h and image -(j + 1) at
    ((n - m) + j n) h, so both sides read one folded sum
    S(q) = sum_{j=1}^{63} ((q + j n) h)^(-1-sigma) over q = 0..n, at q = m and
    at q = n - m; image 64 is added on its own.  In S the images
    j = 1 .. _NEAR_IMAGES - 1 are explicit powers, and the rest is
    (n h)^(-1-sigma) times the polynomial of ``_image_series`` in x = q / n
    (exact, n being a power of two), evaluated by Horner's rule, so a build
    takes eight powers per node.  Every power but the kernel's own first one
    is formed in one reused buffer.
    """
    quarter = n // 4
    big_r = quarter * h
    expo = -1.0 - sigma
    q = np.arange(n + 1, dtype=float)
    m = q[:n]
    coeffs = _image_series(sigma)
    # x = q / n for Horner's rule, then the buffer of every power
    buf = q / n
    folded = np.full(n + 1, coeffs[-1])
    for c in coeffs[-2::-1]:
        folded *= buf
        folded += c
    folded *= (n * h) ** expo
    # the far images' polynomial first, then the near images, j descending
    for j in range(_NEAR_IMAGES - 1, 0, -1):
        folded += _scaled_power(np.add(q, j * n, out=buf), h, expo)
    kernel = _scaled_power(m + _N_IMAGES * n, h, expo)
    kernel += folded[:n]
    kernel += folded[n:0:-1]
    # 0 <= m < n, so only the images j = -1, 0 reach within R + h/4: image
    # -1 at (n - m) h counts for m < n - quarter, image 0 at m h for
    # m > quarter, and each is halved where it lies at R
    half = 0.5 * big_r ** expo
    near = buf[:n - quarter]
    kernel[:n - quarter] += _scaled_power(np.subtract(n, m[:n - quarter], out=near), h, expo)
    kernel[n - quarter] += half
    near = buf[quarter + 1:n]
    near[:] = m[quarter + 1:]
    kernel[quarter + 1:] += _scaled_power(near, h, expo)
    kernel[quarter] += half
    # analytic tails of the image sum (both signs of j)
    jn = (_N_IMAGES + 0.5) * n
    scale = sigma * n * h
    part = buf[:n]
    np.add(m, jn, out=part)
    kernel += np.divide(_scaled_power(part, h, -sigma), scale, out=part)
    np.subtract(jn, m, out=part)
    kernel += np.divide(_scaled_power(part, h, -sigma), scale, out=part)
    kernel *= h
    kernel[0] -= (2.0 / sigma) * big_r ** (-sigma)
    return kernel


@functools.lru_cache(maxsize=32)
def _singular_kernel(n: int, h: float, sigma: float) -> np.ndarray:
    """FFT of the circular kernel of the extrapolated annulus integral,
    without c_sigma, as an (n, 1) ``_conv.spectrum`` (read-only).

    The trapezoid levels over m = k..n/4 (inner radius r = k h, k = 1, 2, 4,
    both ends halved) are mixed by two Richardson stages, and the far-field
    image kernel of ``_far_field_kernel`` is added once.
    """
    m_top = n // 4  # R = L/2 exactly
    ms = np.arange(1, m_top + 1)
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
    kernel += _far_field_kernel(n, h, sigma)
    return _conv.spectrum(kernel[:, None], n)


def fractional_laplacian_singular(f: GridFunction, sigma: float) -> GridFunction:
    """Difference-quotient realization of the operator with symbol |xi|^sigma.

    The annulus integral runs over every integer offset in [r, L/2] (exact
    translations, trapezoid weights whose uniformity lets the oscillatory
    error telescope), the region |h| > L/2 is completed by its periodic image
    kernel, the whole is scaled by c_sigma, and the O(r^(2-sigma)) inner
    truncation error is removed by two Richardson stages over r in {h, 2h, 4h}.
    Every level and the Richardson mixture are linear, so the result is one
    circular kernel, whose spectrum ``_singular_kernel`` builds once per
    (N, h, sigma).
    """
    check_sigma(sigma)
    _require_kind(f, FULL_LINE, "fractional_laplacian_singular")
    grid = f.grid
    warn_if_boundary_heavy(f, "fractional_laplacian_singular")
    spectrum = _singular_kernel(grid.n_points, grid.h, sigma)
    return GridFunction(grid, c_sigma(sigma) * _conv.convolve(spectrum, f.values))

