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
whose images beyond the nearest two and closed-form tails are one Taylor
polynomial in the offset, so a build takes one power per node) and applies
it with ``_conv.convolve`` at size N.  That kernel depends only on (N, h,
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
# terms kept of the far field's polynomial in d, even (a polynomial in d^2)
# and odd (d times one): at |d| = 1/2 the first term each drops is below
# 2^-60 of the sum for every sigma in (0, 1)
_EVEN_TERMS = 21
_ODD_TERMS = 3


@functools.lru_cache(maxsize=32)
def _far_series(sigma: float) -> np.ndarray:
    """Rows (images, tails) of the Taylor coefficients in d, order k = 0 ..
    2 _EVEN_TERMS - 1, of the far field's two smooth parts at x = 1/2 + d:
    the images sum_{a=1.5}^{63.5} ((a + d)^e + (a - d)^e) + (64.5 + d)^e
    (e = -1-sigma) and the tails (65 + d)^(-sigma) + (64 - d)^(-sigma).

    Each is binom(e, k) or binom(-sigma, k) times an exactly rounded sum of
    powers (``math.fsum``).  A pair of images gives only even k, each term at
    most 1/9 of the one before ((d/a)^2 with a >= 3/2); the other three
    terms give ratios of at most 1/128.
    """
    expo = -1.0 - sigma
    pairs = np.arange(1.5, _N_IMAGES)
    last = _N_IMAGES + 0.5
    out = np.empty((2, 2 * _EVEN_TERMS))
    b_image = b_tail = 1.0
    for k in range(out.shape[1]):
        image = [last ** (expo - k)]
        if k % 2 == 0:
            image += (2.0 * pairs ** (expo - k)).tolist()
        out[0, k] = b_image * math.fsum(image)
        out[1, k] = b_tail * math.fsum([(last + 0.5) ** (-sigma - k),
                                        (-1.0) ** k * (last - 0.5) ** (-sigma - k)])
        b_image *= (expo - k) / (k + 1)
        b_tail *= (-sigma - k) / (k + 1)
    out.flags.writeable = False
    return out


def _horner(u: np.ndarray, coeffs: list) -> np.ndarray:
    """sum_i coeffs[i] u^i by Horner's rule, formed in place in one new array."""
    out = np.full(u.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= u
        out += c
    return out


def _far_field_kernel(n: int, h: float, sigma: float) -> np.ndarray:
    """Circular kernel of the far field, integral over |h| > R of
    (f(x+h) - f(x)) / |h|^(1+sigma) dh with R = (n // 4) h = L/2, f understood
    as 2L-periodic (the package-wide truncation convention, and what the
    spectral representation acts on).

    The f(x+h) part sums the cut power kernel over periodic images, explicitly
    up to 64 copies on each side and closed-form (midpoint-corrected integral)
    beyond; the -f(x) part is the closed-form weight at index 0.  For
    0 <= m < n only the images j = -1, 0 reach within R + h/4: they read one
    table of (k h)^(-1-sigma) over k = n/4 .. n, at k = n - m and k = m.
    Every other image and both tails are smooth in d = m/n - 1/2 (exact, n
    being a power of two): image j >= 1 lies at n h (j + 1/2 + d) and image
    -(j + 1) at n h (j + 1/2 - d), so there the kernel is (n h)^(-1-sigma)
    times the images' polynomial of ``_far_series`` plus
    (n h)^(-sigma) / (sigma n h) times the tails' one.  Their sum is
    evaluated in three buffers by Horner's rule in u = d^2 (_EVEN_TERMS
    terms) plus d times _ODD_TERMS terms: no power per node beyond the table.
    """
    quarter = n // 4
    expo = -1.0 - sigma
    images, tails = _far_series(sigma)
    coeffs = (n * h) ** expo * images + (n * h) ** (-sigma) / (sigma * n * h) * tails
    d = np.arange(-(n // 2), n // 2) / n
    u = d * d
    d *= _horner(u, coeffs[1:2 * _ODD_TERMS:2].tolist())
    kernel = _horner(u, coeffs[::2].tolist())
    kernel += d
    # image 0 at m h counts for m > quarter, image -1 at (n - m) h for
    # m < n - quarter, and each is halved where it lies at R
    near = (np.arange(quarter, n + 1) * h) ** expo
    kernel[quarter + 1:] += near[1:n - quarter]
    kernel[:n - quarter] += near[:0:-1]
    kernel[[quarter, n - quarter]] += 0.5 * near[0]
    kernel *= h
    kernel[0] -= (2.0 / sigma) * (quarter * h) ** (-sigma)
    return kernel


@functools.lru_cache(maxsize=32)
def _singular_kernel(n: int, h: float, sigma: float) -> np.ndarray:
    """FFT of the circular kernel of the extrapolated annulus integral,
    without c_sigma, as an (n/2 + 1, 1) ``_conv.spectrum`` (read-only).

    The trapezoid levels over m = k..n/4 (inner radius r = k h, k = 1, 2, 4,
    both ends halved) share one table of (m h)^(-1-sigma) and are mixed by
    two Richardson stages; the far-field image kernel of
    ``_far_field_kernel``, whose table covers the offsets n/4 .. n, is added
    once, so a build takes one power per node.
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

