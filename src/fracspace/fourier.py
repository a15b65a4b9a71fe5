"""Discrete Fourier multipliers: Bessel potentials, fractional Laplacian symbol,
smoothness norms, and Hormander-Mihlin constants.

Convention, fixed once for the whole package: the transform is
fhat(xi) = integral f(x) exp(-i xi x) dx with inverse carrying 1/(2 pi).
On a full-line grid the discrete frequencies are xi_k = pi k / L,
k = -N/2 .. N/2 - 1, and a multiplier acts as ifft(m(xi) * fft(f)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import (
    FULL_LINE,
    HALF_LINE,
    Grid,
    GridFunction,
    PowerWeight,
    warn_if_boundary_heavy,
    weighted_lp_norm,
)

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Symbol:
    """A scalar multiplier xi -> C with optional closed-form derivatives.

    ``eval`` must accept numpy arrays.  Missing derivatives are filled in by
    central differences whose step is balanced per order against roundoff
    (relative step eps^(1/(k+2))), which keeps all orders accurate uniformly
    over a logarithmic frequency mesh.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    d1: Optional[Callable[[np.ndarray], np.ndarray]] = None
    d2: Optional[Callable[[np.ndarray], np.ndarray]] = None
    d3: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        return np.asarray(self.eval(xi))

    def derivative(self, xi: np.ndarray, order: int) -> np.ndarray:
        """k-th derivative, preferring closed forms over finite differences."""
        if order == 0:
            return self(xi)
        closed = {1: self.d1, 2: self.d2, 3: self.d3}.get(order)
        if closed is not None:
            return np.asarray(closed(xi))
        return self._fd_derivative(xi, order)

    def _fd_derivative(self, xi: np.ndarray, order: int) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        step = _EPS ** (1.0 / (order + 2)) * np.maximum(np.abs(xi), 1e-6)
        m = self.eval
        if order == 1:
            return (m(xi + step) - m(xi - step)) / (2.0 * step)
        if order == 2:
            return (m(xi + step) - 2.0 * m(xi) + m(xi - step)) / step ** 2
        if order == 3:
            return (m(xi + 2 * step) - 2.0 * m(xi + step)
                    + 2.0 * m(xi - step) - m(xi - 2 * step)) / (2.0 * step ** 3)
        raise ValueError(f"derivative order {order} not supported")


def identity_symbol() -> Symbol:
    return Symbol(lambda xi: np.ones_like(np.asarray(xi, dtype=float)))


def bessel_symbol(s: float) -> Symbol:
    """(1 + xi^2)^(s/2), the order-s smoothing/roughening multiplier."""
    return Symbol(
        lambda xi: (1.0 + np.asarray(xi, dtype=float) ** 2) ** (s / 2.0),
        d1=lambda xi: s * xi * (1.0 + xi ** 2) ** (s / 2.0 - 1.0),
    )


def frac_laplacian_symbol(sigma: float) -> Symbol:
    """|xi|^sigma (vanishing at xi = 0; requires sigma > 0)."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return Symbol(lambda xi: np.abs(np.asarray(xi, dtype=float)) ** sigma)


def derivative_symbol(order: int = 1) -> Symbol:
    return Symbol(lambda xi: (1j * np.asarray(xi)) ** order)


@dataclass(frozen=True)
class MultiplierReport:
    """Per-order suprema |xi|^k |m^(k)(xi)| for k = 0..3 and their maximum."""

    per_order: tuple
    mihlin_constant: float
    finite: bool

    @classmethod
    def from_orders(cls, per_order, finite: bool) -> "MultiplierReport":
        per_order = tuple(float(v) for v in per_order)
        top = max(per_order)
        return cls(per_order, math.inf if not finite else top, finite)


def apply_multiplier(m, f: GridFunction) -> GridFunction:
    """ifft(m(xi) fft(f)) on a full-line grid, fiberwise.

    Warns when f has not decayed at the boundary (the grid periodizes).
    """
    if f.grid.kind != FULL_LINE:
        raise ValueError("multipliers act on full-line grids; extend first")
    warn_if_boundary_heavy(f, "apply_multiplier")
    xi = f.grid.frequencies()
    mvals = np.asarray(m(xi))
    if not np.all(np.isfinite(mvals)):
        raise ValueError("multiplier takes non-finite values on the grid frequencies")
    spec = np.fft.fft(f.values, axis=0)
    out = np.fft.ifft(spec * mvals[:, None], axis=0)
    return GridFunction(f.grid, out)


def bessel_potential(f: GridFunction, s: float) -> GridFunction:
    """Apply (1 - Laplacian)^(s/2)."""
    return apply_multiplier(bessel_symbol(s), f)


def fractional_laplacian_spectral(f: GridFunction, sigma: float) -> GridFunction:
    """Apply |xi|^sigma, the spectral form of the fractional Laplacian."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return apply_multiplier(frac_laplacian_symbol(sigma), f)


def spectral_derivative(f: GridFunction, order: int = 1) -> GridFunction:
    return apply_multiplier(derivative_symbol(order), f)


def transform_values(f: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """(xi, fhat(xi)) with the continuum normalization fhat = integral f e^{-i xi x}.

    Frequencies come in fft order.  Useful for Plancherel-style cross-checks.
    """
    if f.grid.kind != FULL_LINE:
        raise ValueError("transform_values needs a full-line grid")
    grid = f.grid
    xi = grid.frequencies()
    phase = np.exp(-1j * xi * grid.points[0])
    spec = np.fft.fft(f.values, axis=0) * grid.h * phase[:, None]
    return xi, spec


def mihlin_constant(m) -> MultiplierReport:
    """Estimate sup_{k <= 3} sup_{xi != 0} |xi|^k |m^(k)(xi)| on a log mesh (d = 1).

    The mesh spans 1e-6..1e6 in |xi| on both signs at 200 points per decade;
    the estimate is repeated on a range-extended and density-doubled mesh, and
    a supremum still growing by more than 5 percent is flagged as infinite.
    """
    sym = m if isinstance(m, Symbol) else Symbol(m)

    def sups(lo_exp, hi_exp, ppd):
        n_pts = int((hi_exp - lo_exp) * ppd) + 1
        mesh = np.logspace(lo_exp, hi_exp, n_pts)
        mesh = np.concatenate([-mesh[::-1], mesh])
        vals = []
        for k in range(4):
            deriv = sym.derivative(mesh, k)
            if not np.all(np.isfinite(deriv)):
                raise ValueError(f"symbol derivative of order {k} is not finite")
            vals.append(float(np.max(np.abs(mesh) ** k * np.abs(deriv))))
        return vals

    base = sups(-6, 6, 200)
    refined = sups(-8, 8, 400)
    finite = all(r <= b * 1.05 + 1e-300 for b, r in zip(base, refined))
    return MultiplierReport.from_orders(refined, finite)


def hsp_norm(f: GridFunction, s: float, p: float, w: PowerWeight) -> float:
    """Weighted L^p norm of the order-s Bessel potential of f."""
    return weighted_lp_norm(bessel_potential(f, s), p, w)


def _full_line_with_derivatives(f: GridFunction, k: int):
    """Return (restrict, [f, f', .., f^(k)]) handling both grid kinds.

    Half-line inputs are extended by higher-order reflection so the spectral
    derivatives see a C^(2m+1) function; results are restricted back.
    """
    if f.grid.kind == FULL_LINE:
        return (lambda g: g), [spectral_derivative(f, j) if j else f for j in range(k + 1)]
    from .halfline import reflect_extend, restrict_plus, solve_reflection_coefficients

    coeffs = solve_reflection_coefficients(max(1, k))
    ext = reflect_extend(f, coeffs)
    return restrict_plus, [spectral_derivative(ext, j) if j else ext for j in range(k + 1)]


def wkp_norm(f: GridFunction, k: int, p: float, w: PowerWeight) -> float:
    """Sum over j <= k of the weighted L^p norms of the j-th derivative."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    restrict, derivs = _full_line_with_derivatives(f, k)
    return float(sum(weighted_lp_norm(restrict(g), p, w) for g in derivs))


def wkp_seminorm(f: GridFunction, k: int, p: float, w: PowerWeight) -> float:
    """Weighted L^p norm of the top-order derivative alone."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    restrict, derivs = _full_line_with_derivatives(f, k)
    return weighted_lp_norm(restrict(derivs[-1]), p, w)
