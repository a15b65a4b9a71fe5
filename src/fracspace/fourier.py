"""Discrete Fourier multipliers: Bessel potentials, fractional Laplacian symbol
and smoothness norms.

Convention, fixed once for the whole package: the transform is
fhat(xi) = integral f(x) exp(-i xi x) dx with inverse carrying 1/(2 pi).
On a full-line grid the discrete frequencies are xi_k = pi k / L,
k = -N/2 .. N/2 - 1, and a multiplier acts as ifft(m(xi) * fft(f)), the
circular convolution ``_conv.convolve`` with the symbol values as spectrum.

That spectrum is a half spectrum (k = 0 .. N/2), so a symbol must map real
samples to real samples: m(-xi_k) == conj m(xi_k) exactly for 0 < k < N/2,
which ``_symbol_values`` checks (the grid frequencies are exactly symmetric,
so every even real symbol and (i xi)^order pass).  The Nyquist entry,
m(-pi N / (2 L)), contributes only its real part: an odd-order derivative
drops the Nyquist mode.
"""

from __future__ import annotations

import numpy as np

from . import _conv
from .grid import (
    FULL_LINE,
    GridFunction,
    PowerWeight,
    _cell_weight_norm,
    _fiber_norms,
    _integer,
    _require_kind,
    warn_if_boundary_heavy,
    weighted_lp_norm,
)


def bessel_symbol(s: float):
    """(1 + xi^2)^(s/2), the order-s smoothing/roughening multiplier."""
    return lambda xi: (1.0 + np.asarray(xi, dtype=float) ** 2) ** (s / 2.0)


def frac_laplacian_symbol(sigma: float):
    """|xi|^sigma (vanishing at xi = 0; requires sigma > 0)."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return lambda xi: np.abs(np.asarray(xi, dtype=float)) ** sigma


def derivative_symbol(order: int = 1):
    """(i xi)^order, raised in place."""
    order = _integer("order", order, 0)

    def symbol(xi):
        values = 1j * np.asarray(xi)
        return np.power(values, order, out=values)
    return symbol


def _symbol_values(symbols, grid) -> list:
    """Each symbol m_i on the frequencies xi_k, k = 0 .. N/2, of a full-line
    grid: the half spectrum of ``_conv.convolve``.

    Raises ValueError unless every m_i is finite on the grid frequencies and
    m_i(-xi_k) == conj m_i(xi_k) for 0 < k < N/2.
    """
    xi = grid.frequencies()
    nyq = grid.n_points // 2
    mvals = [np.asarray(m(xi)) for m in symbols]
    if not all(np.all(np.isfinite(v)) for v in mvals):
        raise ValueError("multiplier takes non-finite values on the grid frequencies")
    if not all(np.array_equal(v[1:nyq], np.conj(v[:nyq:-1])) for v in mvals):
        raise ValueError("multiplier is not Hermitian on the grid frequencies: "
                         "m(-xi) != conj m(xi) maps real samples to complex ones")
    # copies, so that the full-grid values are freed before the transforms
    return [v[:nyq + 1].copy() for v in mvals]


def _multiplied(mvals, f: GridFunction) -> np.ndarray:
    """ifft(m_i(xi) fft(f)) for the half-spectrum values m_i(xi) of every
    symbol on f's grid (``_symbol_values``), stacked: shape (k, N, n).

    One boundary-decay check and one forward FFT (``_conv.convolve`` with the
    stacked symbol values as its spectrum) serve all symbols, and slice i
    equals the values of ``apply_multiplier(m_i, f)`` bit for bit.
    """
    warn_if_boundary_heavy(f, "apply_multiplier")
    return _conv.convolve(np.stack(mvals)[:, :, None], f.values)


def apply_multiplier(m, f: GridFunction) -> GridFunction:
    """ifft(m(xi) fft(f)) on a full-line grid, fiberwise.

    Warns when f has not decayed at the boundary (the grid periodizes), and
    raises ValueError for a symbol that is not Hermitian (``_symbol_values``).
    The symbol values are an (N/2 + 1, 1) half spectrum, so ``_conv.convolve``
    forms the product in the transform's buffer.
    """
    _require_kind(f, FULL_LINE, "apply_multiplier")
    values, = _symbol_values([m], f.grid)
    warn_if_boundary_heavy(f, "apply_multiplier")
    return GridFunction(f.grid, _conv.convolve(values[:, None], f.values))


def bessel_potential(f: GridFunction, s: float) -> GridFunction:
    """Apply (1 - Laplacian)^(s/2)."""
    return apply_multiplier(bessel_symbol(s), f)


def fractional_laplacian_spectral(f: GridFunction, sigma: float) -> GridFunction:
    """Apply |xi|^sigma, the spectral form of the fractional Laplacian."""
    return apply_multiplier(frac_laplacian_symbol(sigma), f)


def spectral_derivative(f: GridFunction, order: int = 1) -> GridFunction:
    return apply_multiplier(derivative_symbol(order), f)


def transform_values(f: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """(xi, fhat(xi)) with the continuum normalization fhat = integral f e^{-i xi x}.

    Frequencies come in fft order.  Useful for Plancherel-style cross-checks.
    """
    _require_kind(f, FULL_LINE, "transform_values")
    grid = f.grid
    xi = grid.frequencies()
    phase = np.exp(-1j * xi * grid.points[0])
    spec = np.fft.fft(f.values, axis=0) * grid.h * phase[:, None]
    return xi, spec


def hsp_norm(f: GridFunction, s: float, p: float, w: PowerWeight) -> float:
    """Weighted L^p norm of the order-s Bessel potential of f."""
    return weighted_lp_norm(bessel_potential(f, s), p, w)


def _full_line_form(f: GridFunction, k: int):
    """Return (start, g): a full-line function g whose derivatives up to
    order k, read from index ``start`` on, are those of f on f's grid.

    Half-line inputs are extended by higher-order reflection so the spectral
    derivatives see a C^(2m+1) function; results are restricted back.
    """
    if f.grid.kind == FULL_LINE:
        return 0, f
    from .halfline import reflect_extend, solve_reflection_coefficients

    g = reflect_extend(f, solve_reflection_coefficients(max(1, k)))
    return g.grid.zero_index, g


def _derivative_norms(f: GridFunction, orders, k: int) -> list:
    """Fiber norms on f's grid of the derivatives of each order in ``orders``,
    all from one transform of the order-k full-line form (order 0 is that
    form itself, untransformed)."""
    start, g = _full_line_form(f, k)
    positive = [j for j in orders if j]
    mags = {0: g.fiber_norms()} if 0 in orders else {}
    if positive:
        symbols = [derivative_symbol(j) for j in positive]
        stacked = _multiplied(_symbol_values(symbols, g.grid), g)
        mags.update(zip(positive, _fiber_norms(stacked)))
    return [mags[j][start:] for j in orders]


def _seminorm_norms(f: GridFunction, orders) -> list:
    """Fiber norms on f's grid of the j-th derivative for each j in
    ``orders``, as ``wkp_seminorm`` measures it: a half-line f is reflected
    with order max(1, j) for each j, a full-line f is transformed once."""
    if f.grid.kind == FULL_LINE:
        return _derivative_norms(f, orders, 0)
    return [_derivative_norms(f, (j,), j)[0] for j in orders]


def wkp_norm(f: GridFunction, k: int, p: float, w: PowerWeight) -> float:
    """Sum over j <= k of the weighted L^p norms of the j-th derivative."""
    k = _integer("k", k, 0)
    return float(sum(_cell_weight_norm(mags, f.grid, p, w)
                     for mags in _derivative_norms(f, range(k + 1), k)))


def wkp_seminorm(f: GridFunction, k: int, p: float, w: PowerWeight) -> float:
    """Weighted L^p norm of the top-order derivative alone."""
    k = _integer("k", k, 0)
    return _cell_weight_norm(_seminorm_norms(f, (k,))[0], f.grid, p, w)
