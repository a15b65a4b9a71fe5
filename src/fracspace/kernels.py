"""The convolution kernel of (1 - Laplacian)^(-s/2) and its weighted
integrability near 0, the half-line kernel operator with kernel 1/(x + y),
and the associated sharp constants from the Schur test.  This module
measures; the harness decides which measurements pass.

The dense path of ``hardy_hilbert_apply`` is one ``_conv.convolve`` with its
two-sided Hankel kernel, whose spectrum a bounded cache keeps per number of
nodes.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special

from . import _conv, _quad
from .grid import (
    AdmissibilityError,
    GridFunction,
    HALF_LINE,
    PowerWeight,
    _require_kind,
    dual_exponent,
)


def bessel_kernel(s: float, x) -> np.ndarray | float:
    """Kernel G_s of the order-s smoothing operator on the line, in closed form

        G_s(x) = (|x|/2)^nu K_nu(|x|) / (sqrt(pi) Gamma(s/2)),  nu = (s - 1)/2,

    with K_nu the modified Bessel function of the second kind (Aronszajn and
    Smith 1961; Stein, *Singular Integrals*, V.3).  The kernel has unit mass:
    its Fourier transform is the multiplier (1 + xi^2)^{-s/2}.  ``x`` is a
    point or an array of points.

    K_nu e^{|x|} comes from ``special.kve`` and e^{-|x|} multiplies it, on a
    1-d view of |x|, so an array call equals per-point calls bit for bit.  At
    x = 0 the value is (4 pi)^{-1/2} Gamma(nu) / Gamma(s/2) for s > 1 (the
    kernel is singular there for s <= 1); where e^{-|x|} underflows, and at
    x = +-inf, it is exactly 0.0.  NaN propagates; a non-finite value at a
    finite x (orders so large that the factors overflow) raises ValueError.
    """
    if s <= 0:
        raise ValueError(f"s must be positive, got {s}")
    r = np.abs(np.atleast_1d(np.asarray(x, dtype=float)))
    c = (4.0 * math.pi) ** -0.5 / special.gamma(s / 2.0)
    nu = (s - 1) / 2.0
    out = np.zeros_like(r)
    zero = r == 0.0
    if zero.any():
        if s <= 1:
            raise ValueError("the kernel is singular at the origin for s <= 1")
        out[zero] = c * special.gamma(nu)
    decay = np.exp(-r)
    live = ~zero & (decay != 0.0)
    rl = r[live]
    with np.errstate(over="ignore", invalid="ignore"):
        out[live] = (rl / 2.0) ** nu * special.kve(nu, rl) * decay[live] * (2.0 * c)
    if (np.isfinite(r) & ~np.isfinite(out)).any():
        raise ValueError(f"the order-{s} kernel is not finite in double precision")
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


def kernel_weighted_tail_integrals(s: float, p: float, gamma: float) -> np.ndarray:
    """Contributions of shrinking dyadic shells near 0 to ||G_s||_{p'} weighted.

    Returns the integrals of |G_s|^{p'} |x|^{gamma'} over [eps/4, eps] for
    eps = 1e-1 * 4^{-j}, j = 0..5; their ratios decide convergence (ratios < 1) versus
    divergence (ratios > 1) of the weighted norm as the mesh refines.  The
    shells are adjacent panels of one Gauss-Legendre rule in log x
    (``_quad.log_panels``), so G_s is evaluated once, on all their nodes.
    """
    pp = dual_exponent(p)
    gamma_dual = PowerWeight(gamma).dual(p).gamma  # dual() checks admissibility
    edges = 1e-1 * 4.0 ** -np.arange(6.0, -1.0, -1.0)
    shells = _quad.log_panels(lambda x: bessel_kernel(s, x) ** pp * x ** gamma_dual, edges)
    return shells[::-1]


def _split_power_quadrature(e: float) -> float:
    """integral_0^inf z^e / (1 + z) dz for -1 < e < 0, split at 1 with
    [1, inf) mapped back to (0, 1] by z -> 1/z: the two integrals of
    z^e / (1 + z) and t^(-1-e) / (1 + t) over (0, 1], each by Gauss-Jacobi
    with the endpoint power as its weight (``_quad.power_weighted``).
    """
    def reciprocal(z):
        return 1.0 / (1.0 + z)

    return _quad.power_weighted(reciprocal, e) + _quad.power_weighted(reciprocal, -1.0 - e)


def check_schur_exponents(p: float, beta: float) -> None:
    """Raise AdmissibilityError unless both exponent windows of ``schur_constant``
    hold: -1 < beta - 1/p' < 0 (the admissible range beta in (-1/p, 1/p')) and
    -1 < beta - 1/p < 0 (convergence of its integral)."""
    pp = dual_exponent(p)
    if not (-1.0 < beta - 1.0 / pp < 0.0):
        raise AdmissibilityError(
            f"beta={beta} violates -1 < beta - 1/p' < 0 for p={p}")
    e = beta - 1.0 / p
    if not (-1.0 < e < 0.0):
        raise AdmissibilityError(
            f"beta={beta} makes the exponent {e} non-integrable for p={p}")


def schur_constant(p: float, beta: float) -> float:
    """integral_0^inf z^(beta - 1/p) / (1 + z) dz by fixed Gauss-Jacobi rules
    (``_split_power_quadrature``), never by the closed form.

    Requires the exponent windows of ``check_schur_exponents``.
    Cross-checked by callers against pi / sin(pi (beta + 1/p')).
    """
    check_schur_exponents(p, beta)
    return _split_power_quadrature(beta - 1.0 / p)


def schur_closed_form(p: float, beta: float) -> float:
    """pi / sin(pi (beta + 1/p')), the closed form matching ``schur_constant``."""
    pp = dual_exponent(p)
    return math.pi / math.sin(math.pi * (beta + 1.0 / pp))


def hardy_hilbert_apply(h: GridFunction, nodes: np.ndarray | None = None) -> GridFunction:
    """I h(x) = integral_0^inf h(y) / (x + y) dy on a half-line grid.

    The integral is taken against the piecewise-linear interpolant of the
    samples, cell by cell in closed form (exact for piecewise-linear data).
    At the node x = 0 the integral is evaluated exactly when it converges
    (first sample zero) and at the first cell midpoint otherwise.  ``nodes``
    restricts evaluation to a subset of node indices (the rest are zero).
    """
    _require_kind(h, HALF_LINE, "hardy_hilbert_apply")
    grid = h.grid
    y = grid.points
    hh = grid.h
    n = grid.n_points
    left = h.values[:-1, :]
    slope = h.values[1:, :] - h.values[:-1, :]
    singular_origin = bool(np.any(h.values[0] != 0.0))

    def row(x: float) -> np.ndarray:
        a = x + y[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.log1p(hh / a)
            coef = 1.0 - (a / hh) * ratio
        sing = a == 0.0
        if np.any(sing):
            # exact x = 0 with vanishing first sample: the first cell reduces
            # to the ramp integral, contributing the slope alone
            ratio[sing] = 0.0
            coef[sing] = 1.0
        return ratio @ left + coef @ slope

    if nodes is not None:
        out = np.zeros_like(h.values)
        for i in np.asarray(nodes, dtype=int):
            x = 0.5 * hh if (i == 0 and singular_origin) else y[i]
            out[i, :] = row(x)
        return GridFunction(grid, out)

    # dense evaluation: the cell weights depend on x_i + y_j = (i + j) h only,
    # so out[i] is a Hankel product, i.e. a convolution with the data reversed
    spectrum, first, last = _hankel_kernel(n)
    v = h.values
    out = _conv.convolve(spectrum, v[::-1]) - first * v[0] - last * v[-1]
    if singular_origin:
        out[0, :] = row(0.5 * hh)
    return GridFunction(grid, out)


@functools.lru_cache(maxsize=8)
def _hankel_kernel(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(spectrum at size 2n, first, last) of the dense ``hardy_hilbert_apply``
    on n nodes (read-only; the end columns of shape (n, 1)).

    With kap[m] = log(1 + 1/m) and mu[m] = 1 - m kap[m] (kap[0] = 0 and
    mu[0] = 1, the x = 0 limits), cell j < n - 1 adds
    kap[i + j] v_j + mu[i + j] (v_{j+1} - v_j) to node i, so
    out_i = sum_{j<n} K[i + j] v_j - mu[i - 1] v_0 - (kap - mu)[i + n - 1] v_{n-1}
    with K[m] = kap[m] - mu[m] + mu[m - 1] and mu[-1] = 0.  With the samples
    reversed, the sum is the convolution with the two-sided kernel
    K[d + n - 1], d = -(n - 1) .. n - 1, whose 2n - 1 taps a circular
    convolution of length 2n holds without aliasing.
    """
    m = np.arange(2 * n - 1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        kap = np.log1p(1.0 / m)
        mu = 1.0 - m * kap
    kap[0] = 0.0
    mu[0] = 1.0
    shifted = np.concatenate(([0.0], mu[:-1]))  # mu[m - 1]
    first, last = shifted[:n, None], (kap - mu)[n - 1:, None]
    first.flags.writeable = last.flags.writeable = False
    taps = kap - mu + shifted
    kernel = np.concatenate((taps[n - 1:], [0.0], taps[:n - 1]))
    return _conv.spectrum(kernel[:, None], 2 * n), first, last
