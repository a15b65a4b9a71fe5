"""The convolution kernel of (1 - Laplacian)^(-s/2), its envelope bounds, the
half-line kernel operator with kernel 1/(x + y), and the associated sharp
constants from the Schur test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy import integrate, special

from ._conv import full_convolve
from .grid import (
    AdmissibilityError,
    GridFunction,
    HALF_LINE,
    PowerWeight,
    dual_exponent,
)

# log-time quadrature for the subordination integral: t = exp(u), trapezoid.
_U_GRID = np.arange(-80.0, 50.0 + 1e-9, 0.05)

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def bessel_kernel(s: float, d: int, x) -> np.ndarray | float:
    """Kernel G_s of the order-s smoothing operator, from the heat subordination

        G_s(x) = C_{s,d} * integral_0^inf e^{-t} e^{-|x|^2/(4t)} t^{(s-d)/2} dt/t,

    with C_{s,d} = (4 pi)^{-d/2} / Gamma(s/2) so that the kernel has unit mass
    (the multiplier (1 + |xi|^2)^{-s/2} equals one at frequency zero).
    """
    if s <= 0:
        raise ValueError(f"s must be positive, got {s}")
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    r2 = np.sum(np.atleast_2d(x_arr.T).T ** 2, axis=-1) if x_arr.ndim > 1 else x_arr ** 2
    scalar = np.isscalar(x) or np.asarray(x).ndim == 0
    c = (4.0 * math.pi) ** (-d / 2.0) / special.gamma(s / 2.0)
    out = np.empty_like(np.atleast_1d(r2), dtype=float)
    r2_flat = np.atleast_1d(r2)
    zero = r2_flat == 0.0
    if np.any(zero):
        if s <= d:
            raise ValueError("the kernel is singular at the origin for s <= d")
        out[zero] = c * special.gamma((s - d) / 2.0)
    if np.any(~zero):
        u = _U_GRID
        expo = (-np.exp(u)[None, :]
                - 0.25 * r2_flat[~zero, None] * np.exp(-u)[None, :]
                + ((s - d) / 2.0) * u[None, :])
        vals = np.exp(expo)
        integral = _trapezoid(vals, dx=u[1] - u[0], axis=1)
        out[~zero] = c * integral
    return float(out[0]) if scalar else out.reshape(np.shape(r2))


_ENVELOPE_TAIL = "exponential-tail"
_ENVELOPE_NEAR = {"algebraic": "near-origin |x|^(s-d)",
                  "log": "near-origin 1+log(2/|x|)",
                  "flat": "near-origin constant"}


@dataclass(frozen=True)
class KernelBoundReport:
    """Supremum of G_s over the claimed envelope in each regime of |x|."""

    s: float
    d: int
    regime: str
    sup_ratio: float
    mesh_points: int
    pass_flag: bool

    def to_json(self) -> str:
        rec = asdict(self)
        rec["pass"] = rec.pop("pass_flag")
        return json.dumps(rec)


def _near_envelope(s: float, d: int, x: np.ndarray) -> tuple[str, np.ndarray]:
    if s < d:
        return _ENVELOPE_NEAR["algebraic"], np.abs(x) ** (s - d)
    if s == d:
        return _ENVELOPE_NEAR["log"], 1.0 + np.log(2.0 / np.abs(x))
    return _ENVELOPE_NEAR["flat"], np.ones_like(x)


def kernel_bound_check(s: float, d: int = 1, mesh_points: int = 400,
                       stability_rtol: float = 0.05) -> list[KernelBoundReport]:
    """Check the two-regime envelopes of G_s on refining meshes.

    Each report passes when the observed ratio sup G_s / envelope is finite and
    moves by less than ``stability_rtol`` under mesh doubling.
    """
    if d != 1:
        raise ValueError("only d = 1 is implemented")
    reports = []
    # |x| >= 2: exponential tail envelope exp(-|x|/2)
    for regime, lo, hi, log_mesh in ((_ENVELOPE_TAIL, 2.0, 40.0, False),
                                     ("near", 1e-6, 2.0, True)):
        sups = []
        for n in (mesh_points, 2 * mesh_points):
            if log_mesh:
                x = np.logspace(math.log10(lo), math.log10(hi), n)
            else:
                x = np.linspace(lo, hi, n)
            g = bessel_kernel(s, d, x)
            if regime == _ENVELOPE_TAIL:
                name, env = _ENVELOPE_TAIL, np.exp(-x / 2.0)
            else:
                name, env = _near_envelope(s, d, x)
            sups.append(float(np.max(g / env)))
        stable = math.isfinite(sups[1]) and abs(sups[1] - sups[0]) <= stability_rtol * sups[0]
        reports.append(KernelBoundReport(s, d, name, sups[1], 2 * mesh_points, stable))
    return reports


def kernel_weighted_tail_integrals(s: float, p: float, gamma: float,
                                   n_levels: int = 6) -> np.ndarray:
    """Contributions of shrinking dyadic shells near 0 to ||G_s||_{p'} weighted.

    Returns the integrals of |G_s|^{p'} |x|^{gamma'} over [eps/4, eps] for
    eps = 1e-1 * 4^{-j}; their ratios decide convergence (ratios < 1) versus
    divergence (ratios > 1) of the weighted norm as the mesh refines.
    """
    w = PowerWeight(gamma)
    w.check_admissible(p)
    pp = dual_exponent(p)
    gamma_dual = w.dual(p).gamma
    out = []
    for j in range(n_levels):
        eps = 1e-1 * 4.0 ** (-j)
        val, _ = integrate.quad(
            lambda x: bessel_kernel(s, 1, x) ** pp * x ** gamma_dual,
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


def schur_constant(p: float, beta: float) -> float:
    """Adaptive quadrature of integral_0^inf z^(beta - 1/p) / (1 + z) dz.

    Requires both exponent windows -1 < beta - 1/p' < 0 (the admissible range
    beta in (-1/p, 1/p')) and -1 < beta - 1/p < 0 (convergence of this
    integral).  Cross-checked by callers against pi / sin(pi (beta + 1/p')).
    """
    pp = dual_exponent(p)
    if not (-1.0 < beta - 1.0 / pp < 0.0):
        raise AdmissibilityError(
            f"beta={beta} violates -1 < beta - 1/p' < 0 for p={p}")
    e = beta - 1.0 / p
    if not (-1.0 < e < 0.0):
        raise AdmissibilityError(
            f"beta={beta} makes the exponent {e} non-integrable for p={p}")
    return _split_power_quadrature(e)


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


def hardy_hilbert_apply(h: GridFunction, p: float, w: PowerWeight,
                        nodes: np.ndarray | None = None) -> GridFunction:
    """I h(x) = integral_0^inf h(y) / (x + y) dy on a half-line grid.

    The integral is taken against the piecewise-linear interpolant of the
    samples, cell by cell in closed form (exact for piecewise-linear data).
    At the node x = 0 the integral is evaluated exactly when it converges
    (first sample zero) and at the first cell midpoint otherwise.  ``nodes``
    restricts evaluation to a subset of node indices (the rest are zero).
    """
    w.check_integrable(p)
    grid = h.grid
    if grid.kind != HALF_LINE:
        raise ValueError("hardy_hilbert_apply needs a half-line grid")
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
    # so both sums are Hankel products, i.e. FFT correlations
    m = np.arange(2 * n - 1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        kap = np.log1p(1.0 / m)
        mu = 1.0 - m * kap
    kap[0] = 0.0
    mu[0] = 1.0
    out = (full_convolve(kap[:, None], left[::-1])[n - 2: 2 * n - 2]
           + full_convolve(mu[:, None], slope[::-1])[n - 2: 2 * n - 2])
    if singular_origin:
        out[0, :] = row(0.5 * hh)
    return GridFunction(grid, out)
