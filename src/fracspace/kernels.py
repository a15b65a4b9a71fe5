"""The convolution kernel of (1 - Laplacian)^(-s/2), its envelope bounds, the
half-line kernel operator with kernel 1/(x + y), and the associated sharp
constants from the Schur test.

Two operators skip work that cannot change their result.  ``bessel_kernel``
evaluates its points in blocks of ``_BLOCK`` and sums each block's log-time
trapezoid only over the window of nodes whose integrand can be nonzero in
double precision for some point of that block; every dropped node
contributes exactly 0.0, and the working memory is one block times its
window, not every point times every node.  The dense path of
``hardy_hilbert_apply`` is one ``_conv.convolve`` with its two-sided Hankel
kernel, whose spectrum a bounded cache keeps per number of nodes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from . import _conv
from .grid import (
    AdmissibilityError,
    GridFunction,
    HALF_LINE,
    PowerWeight,
    _require_kind,
    dual_exponent,
)

# log-time quadrature for the subordination integral: t = exp(u), trapezoid.
_U_GRID = np.arange(-80.0, 50.0 + 1e-9, 0.05)
_EXP_U = np.exp(_U_GRID)
_EXP_MINUS_U = np.exp(-_U_GRID)
# exp(x) is exactly 0.0 in double precision for x below about -745.13
_UNDERFLOW = -746.0
# points per block of ``bessel_kernel``, each with its own live window
_BLOCK = 64

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _exponent(r2: np.ndarray, a: float, sl: slice) -> np.ndarray:
    """Log-integrand -e^u - (r2/4) e^{-u} + a u at the nodes ``sl``, one row per r2."""
    return (-_EXP_U[None, sl] - 0.25 * r2[:, None] * _EXP_MINUS_U[None, sl]
            + a * _U_GRID[None, sl])


def _window_sums(r2: np.ndarray, a: float) -> np.ndarray:
    """Trapezoid sums of exp(_exponent) for the positive r2 of one block, over
    the live window of the block's smallest r2; 0.0 where no node is live.

    The window bound is the same expression as the integrand, so rounding
    keeps it an upper bound, and a NaN bound keeps every node (and the NaN
    result).  A one-point block takes its integrand from the bound row; the
    exponential is taken in place.
    """
    bound = _exponent(np.min(r2, keepdims=True), a, slice(None))[0]
    live = np.flatnonzero(~(bound <= _UNDERFLOW))
    if live.size == 0:
        return np.zeros_like(r2)
    sl = slice(max(live[0] - 1, 0), live[-1] + 2)
    logs = bound[None, sl] if r2.size == 1 else _exponent(r2, a, sl)
    return _trapezoid(np.exp(logs, out=logs), dx=_U_GRID[1] - _U_GRID[0], axis=1)


def bessel_kernel(s: float, x) -> np.ndarray | float:
    """Kernel G_s of the order-s smoothing operator on the line, from the
    heat subordination

        G_s(x) = C_s * integral_0^inf e^{-t} e^{-x^2/(4t)} t^{(s-1)/2} dt/t,

    with C_s = (4 pi)^{-1/2} / Gamma(s/2) so that the kernel has unit mass
    (the multiplier (1 + xi^2)^{-s/2} equals one at frequency zero).  ``x``
    is a point or an array of points.

    The integral is the trapezoid rule in u = log t on the nodes ``_U_GRID``,
    taken for the nonzero points in blocks of ``_BLOCK``, each restricted to
    its live window: the exponent is concave in u and decreasing in |x|, so
    the nodes where it exceeds ``_UNDERFLOW`` at the smallest nonzero |x| of
    the block form one interval that holds every nonzero term of every point
    of the block.  The window keeps one (zero) node beyond each end, so the
    kept terms and their weights are those of the full-range rule; only the
    summation grouping differs.  When no node is live the value is exactly
    0.0.
    """
    if s <= 0:
        raise ValueError(f"s must be positive, got {s}")
    r2 = np.asarray(x, dtype=float) ** 2
    c = (4.0 * math.pi) ** -0.5 / special.gamma(s / 2.0)
    r2_flat = np.atleast_1d(r2)
    out = np.empty_like(r2_flat)
    zero = r2_flat == 0.0
    if np.any(zero):
        if s <= 1:
            raise ValueError("the kernel is singular at the origin for s <= 1")
        out[zero] = c * special.gamma((s - 1) / 2.0)
    nonzero = np.flatnonzero(~zero)
    a = (s - 1) / 2.0
    for start in range(0, nonzero.size, _BLOCK):
        block = nonzero[start:start + _BLOCK]
        out[block] = c * _window_sums(r2_flat[block], a)
    return float(out[0]) if r2.ndim == 0 else out.reshape(r2.shape)


_ENVELOPE_TAIL = "exponential-tail"
_ENVELOPE_NEAR = {"algebraic": "near-origin |x|^(s-d)",
                  "log": "near-origin 1+log(2/|x|)",
                  "flat": "near-origin constant"}


@dataclass(frozen=True)
class KernelBoundReport:
    """Supremum of G_s over the claimed envelope in each regime of |x|."""

    s: float
    regime: str
    sup_ratio: float
    pass_flag: bool


def _near_envelope(s: float, x: np.ndarray) -> tuple[str, np.ndarray]:
    if s < 1.0:
        return _ENVELOPE_NEAR["algebraic"], np.abs(x) ** (s - 1.0)
    if s == 1.0:
        return _ENVELOPE_NEAR["log"], 1.0 + np.log(2.0 / np.abs(x))
    return _ENVELOPE_NEAR["flat"], np.ones_like(x)


def kernel_bound_check(s: float) -> list[KernelBoundReport]:
    """Check the two-regime envelopes of G_s (d = 1) on meshes of 400 and 800 points.

    Each report passes when the observed ratio sup G_s / envelope is finite and
    moves by less than 5 percent under that mesh doubling.
    """
    reports = []
    # |x| >= 2: exponential tail envelope exp(-|x|/2)
    for regime, lo, hi, log_mesh in ((_ENVELOPE_TAIL, 2.0, 40.0, False),
                                     ("near", 1e-6, 2.0, True)):
        sups = []
        for n in (400, 800):
            if log_mesh:
                x = np.logspace(math.log10(lo), math.log10(hi), n)
            else:
                x = np.linspace(lo, hi, n)
            g = bessel_kernel(s, x)
            if regime == _ENVELOPE_TAIL:
                name, env = _ENVELOPE_TAIL, np.exp(-x / 2.0)
            else:
                name, env = _near_envelope(s, x)
            sups.append(float(np.max(g / env)))
        stable = math.isfinite(sups[1]) and abs(sups[1] - sups[0]) <= 0.05 * sups[0]
        reports.append(KernelBoundReport(s, name, sups[1], stable))
    return reports


def kernel_weighted_tail_integrals(s: float, p: float, gamma: float) -> np.ndarray:
    """Contributions of shrinking dyadic shells near 0 to ||G_s||_{p'} weighted.

    Returns the integrals of |G_s|^{p'} |x|^{gamma'} over [eps/4, eps] for
    eps = 1e-1 * 4^{-j}, j = 0..5; their ratios decide convergence (ratios < 1) versus
    divergence (ratios > 1) of the weighted norm as the mesh refines.
    """
    pp = dual_exponent(p)
    gamma_dual = PowerWeight(gamma).dual(p).gamma  # dual() checks admissibility
    out = []
    for j in range(6):
        eps = 1e-1 * 4.0 ** (-j)
        val, _ = integrate.quad(
            lambda x: bessel_kernel(s, x) ** pp * x ** gamma_dual,
            eps / 4.0, eps, limit=200)
        out.append(val)
    return np.asarray(out)


def _split_power_quadrature(e: float) -> float:
    """Adaptive quadrature of integral_0^inf z^e / (1 + z) dz for -1 < e < 0.

    Split at 1 and map [1, inf) back to (0, 1] by z -> 1/z.
    """
    head, _ = integrate.quad(lambda z: z ** e / (1.0 + z), 0.0, 1.0, limit=200)
    tail, _ = integrate.quad(lambda t: t ** (-e - 1.0) / (1.0 + t), 0.0, 1.0, limit=200)
    return head + tail


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
    """Adaptive quadrature of integral_0^inf z^(beta - 1/p) / (1 + z) dz.

    Requires the exponent windows of ``check_schur_exponents``.
    Cross-checked by callers against pi / sin(pi (beta + 1/p')).
    """
    check_schur_exponents(p, beta)
    return _split_power_quadrature(beta - 1.0 / p)


def schur_closed_form(p: float, beta: float) -> float:
    """pi / sin(pi (beta + 1/p')), the closed form matching ``schur_constant``."""
    pp = dual_exponent(p)
    return math.pi / math.sin(math.pi * (beta + 1.0 / pp))


def schur_companion_constant(p: float, beta: float) -> float:
    """The second Schur-test integral, integral_0^inf z^(-beta - 1/p)/(1+z) dz."""
    e = -beta - 1.0 / p
    if not (-1.0 < e < 0.0):
        raise AdmissibilityError(
            f"beta={beta} makes the exponent {e} non-integrable for p={p}")
    return _split_power_quadrature(e)


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
