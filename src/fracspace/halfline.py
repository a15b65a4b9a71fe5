"""Half-line structure: reflection extensions and their dual, zero extension
and restrictions, the half-space indicator, traces, coextension, zero-trace
projections, retraction operators, and the inequality probes attached to them.

The reflection extension uses scaling factors lambda_j = j (j = 1..2m+2).
With integer factors every reflected sample f(-lambda_j x) lands exactly on a
grid node, so the forward extension and the support projection read each
scaled reflection as a strided slice of the samples, with no interpolation
error; interpolation only enters the dual operator, which samples at
-x/lambda_j from one FFT of its input.  Non-integer factors are rejected.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _fd
from .grid import (
    DegenerateInputError,
    FULL_LINE,
    Grid,
    GridFunction,
    HALF_LINE,
    PowerWeight,
    ResolutionError,
    _cell_weight_norm,
    _fiber_norms,
    _integer,
    _require_kind,
    _samples,
    plateau,
    warn_if_boundary_heavy,
    weighted_lp_norm,
)
from .fourier import (
    _multiplied,
    _seminorm_norms,
    _symbol_values,
    bessel_symbol,
    hsp_norm,
)


@dataclass(frozen=True)
class ReflectionCoefficients:
    """Data (lambda_j, b_j) of the order-m reflection extension.

    The lambda_j must be integers, so that every reflected sample is a grid
    node.  The b_j solve sum_j b_j (-lambda_j)^n = 1 for n = 0..2m+1, which
    matches one-sided derivatives up to order 2m+1 across the reflection point.
    """

    order: int
    lambdas: tuple
    bs: tuple

    def __post_init__(self):
        if len(self.lambdas) != 2 * self.order + 2 or len(self.bs) != len(self.lambdas):
            raise ValueError("need 2m+2 scaling factors and as many coefficients")
        if any(l2 <= l1 for l1, l2 in zip(self.lambdas, self.lambdas[1:])) \
                or self.lambdas[0] <= 0:
            raise ValueError("scaling factors must be positive and increasing")
        if not all(float(lam).is_integer() for lam in self.lambdas):
            raise ValueError(f"scaling factors must be integers, got {self.lambdas}")
        res = self.matching_residual()
        if res > 1e-10:
            raise ValueError(f"derivative-matching residual {res:.3e} exceeds 1e-10")

    def matching_residual(self) -> float:
        """Largest relative residual of the matching system over n = 0..2m+1."""
        worst = 0.0
        for n in range(2 * self.order + 2):
            terms = [b * (-l) ** n for b, l in zip(self.bs, self.lambdas)]
            scale = max(1.0, sum(abs(t) for t in terms))
            worst = max(worst, abs(sum(terms) - 1.0) / scale)
        return worst


def solve_reflection_coefficients(m: int) -> ReflectionCoefficients:
    """Coefficients for lambda_j = j, solved exactly in rational arithmetic.

    The matching system says that the weights b_j reproduce evaluation at 1
    from the nodes -1..-(2m+2) on polynomials of degree 2m+1; those are
    Lagrange extrapolation weights, computed here as exact products.
    """
    m = _integer("m", m, 0)
    if m > 8:
        raise ResolutionError(
            "m > 8 rejected: the Vandermonde system is too ill-conditioned")
    count = 2 * m + 2
    bs = []
    for j in range(1, count + 1):
        prod = Fraction(1)
        for k in range(1, count + 1):
            if k != j:
                prod *= Fraction(1 + k, k - j)
        bs.append(float(prod))
    return ReflectionCoefficients(m, tuple(float(j) for j in range(1, count + 1)),
                                  tuple(bs))


def zero_extend(f: GridFunction) -> GridFunction:
    """Place the half-line samples on [0, L) of a full-line grid, zero on x < 0."""
    _require_kind(f, HALF_LINE, "zero_extend")
    full = f.grid.companion(FULL_LINE)
    out = np.zeros((full.n_points, f.fiber_dim), dtype=f.values.dtype)
    out[full.zero_index:, :] = f.values
    return GridFunction(full, out)


def restrict_plus(F: GridFunction) -> GridFunction:
    """Samples on x >= 0 as a half-line function."""
    _require_kind(F, FULL_LINE, "restrict_plus")
    half = F.grid.companion(HALF_LINE)
    return GridFunction(half, F.values[F.grid.zero_index:, :])


def restrict_minus(F: GridFunction) -> GridFunction:
    """Mirrored samples of the open left half, t -> F(-t), as a half-line function.

    The node x = 0 belongs to the plus side (matching the half-space
    indicator), so the t = 0 entry is zero.
    """
    _require_kind(F, FULL_LINE, "restrict_minus")
    half = F.grid.companion(HALF_LINE)
    out = np.zeros((half.n_points, F.fiber_dim), dtype=F.values.dtype)
    zero = F.grid.zero_index
    out[1:, :] = F.values[zero - 1:: -1, :][: half.n_points - 1]
    return GridFunction(half, out)


def _gathered_reflection(values: np.ndarray, coeffs: ReflectionCoefficients,
                         out: np.ndarray) -> np.ndarray:
    """Add sum_j b_j f(lambda_j t_m) to out[m - 1] for m = 1..len(out), with
    integer lambda_j and values zero past the end; returns ``out``.

    Each scaled reflection is the strided slice values[lambda_j::lambda_j],
    cut to len(out) rows.
    """
    for lam, b in zip(coeffs.lambdas, coeffs.bs):
        j = int(lam)
        scaled = values[j::j][:out.shape[0]]
        out[:scaled.shape[0]] += b * scaled
    return out


def reflect_extend(f: GridFunction, coeffs: ReflectionCoefficients) -> GridFunction:
    """Extend a half-line function across 0 by scaled reflections.

    (E f)(x) = f(x) for x >= 0 and sum_j b_j f(-lambda_j x) for x < 0; values
    that would require f beyond L are taken as zero under the decay guard.
    """
    _require_kind(f, HALF_LINE, "reflect_extend")
    warn_if_boundary_heavy(f, "reflect_extend")
    full = f.grid.companion(FULL_LINE)
    zero = full.zero_index
    out = np.zeros((full.n_points, f.fiber_dim), dtype=f.values.dtype)
    out[zero:, :] = f.values
    # row zero - m holds x = -m h, m = 1..zero
    _gathered_reflection(f.values, coeffs, out[zero - 1:: -1, :])
    return GridFunction(full, out)


def _real_columns(values: np.ndarray) -> np.ndarray:
    """Real ``values`` as they are; complex ``values`` as float64 columns, the
    real and imaginary part of each column side by side (a view when the
    last axis is contiguous, else a copy)."""
    if not np.iscomplexobj(values):
        return values
    if values.strides[-1] != values.itemsize:
        values = values.copy()
    return values.view(np.float64)


def _upsampled_values(spec: np.ndarray, factor: int) -> np.ndarray:
    """Trigonometric interpolant on the ``factor``-fold refined lattice (factor
    >= 2) of the real samples whose ``rfft`` (along axis 0) is ``spec``.

    The Nyquist row of the n samples splits evenly between the frequencies
    +-n/2 of the refined lattice, where both are inner rows.
    """
    nyq = spec.shape[0] - 1
    size = 2 * nyq * factor
    padded = np.zeros((size // 2 + 1, spec.shape[1]), dtype=spec.dtype)
    padded[:nyq] = spec[:nyq]
    padded[nyq] = 0.5 * spec[nyq]
    return np.fft.irfft(padded, size, axis=0) * factor


def reflect_extend_dual(g: GridFunction, coeffs: ReflectionCoefficients) -> GridFunction:
    """Adjoint-type operator: 1_{x>=0} (g + sum_j b_j lambda_j^{-1} g(-x/lambda_j)).

    Off-grid values of g come from its trigonometric interpolant: the points
    -x/lambda_j live on the lambda_j-fold refined lattice, where that
    interpolant is an exact FFT upsampling of the one ``rfft`` of g (of its
    real and imaginary columns, for complex g).
    """
    _require_kind(g, FULL_LINE, "reflect_extend_dual")
    grid = g.grid
    n = grid.n_points
    zero = grid.zero_index
    spec = np.fft.rfft(_real_columns(g.values), axis=0)
    acc = g.values[zero:, :].copy()
    for lam, b in zip(coeffs.lambdas, coeffs.bs):
        j = int(lam)
        up = _upsampled_values(spec, j).view(g.values.dtype) if j > 1 else g.values
        # row j * zero - k holds -x_k / lambda_j, k = 0..n - zero - 1
        acc += (b / lam) * up[j * zero: j * zero - (n - zero): -1]
    out = np.zeros_like(g.values)
    out[zero:, :] = acc
    return GridFunction(grid, out)


def indicator_multiply(F: GridFunction) -> GridFunction:
    """Multiply samples by the indicator of x >= 0 (the node 0 is kept)."""
    _require_kind(F, FULL_LINE, "indicator_multiply")
    out = F.values.copy()
    out[: F.grid.zero_index, :] = 0.0
    return GridFunction(F.grid, out)


@dataclass(frozen=True)
class TraceVector:
    """(f(0), f'(0), ..., f^(k)(0)), each entry a C^n vector."""

    order: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.atleast_2d(_samples(self.entries))
        if e.shape[0] != self.order + 1:
            raise ValueError(f"need {self.order + 1} entries, got {e.shape[0]}")
        if not np.all(np.isfinite(e)):
            raise ValueError("trace entries must be finite")
        object.__setattr__(self, "entries", e)


def trace(f: GridFunction, k: int) -> TraceVector:
    """Evaluate (f(0), ..., f^(k)(0)) by stencils of accuracy order k + 3.

    One-sided on half-line grids, centered on full-line grids.
    """
    k = _integer("k", k, 0)
    grid = f.grid
    one_sided = "right" if grid.kind == HALF_LINE else None
    zero = grid.zero_index
    need = 2 * k + 3
    if grid.kind == HALF_LINE:
        if grid.n_points < need:
            raise ResolutionError("not enough nodes near 0 for the trace stencil")
    else:
        if zero < k + 4 or grid.n_points - zero < k + 4:
            raise ResolutionError("not enough nodes on each side of 0")
    entries = np.empty((k + 1, f.fiber_dim), dtype=f.values.dtype)
    for j in range(k + 1):
        entries[j] = _fd.derivative_at(f.values, grid.h, zero, j,
                                       accuracy=k + 3, one_sided=one_sided)
    return TraceVector(k, entries)


def coextend(t: TraceVector, grid: Grid) -> GridFunction:
    """sum_j (x^j / j!) chi(x) t_j: a compactly supported function with trace t."""
    if t.order > 6:
        raise ValueError("coextension implemented for k <= 6")
    x = grid.points
    chi = plateau(x, 0.0, 1.0, 2.0)  # 1 on [-1, 1], supported in [-2, 2]
    vals = np.zeros((grid.n_points, t.entries.shape[1]), dtype=t.entries.dtype)
    for j in range(t.order + 1):
        vals += (x ** j / math.factorial(j) * chi)[:, None] * t.entries[j][None, :]
    return GridFunction(grid, vals)


def project_H0(f: GridFunction, k: int) -> GridFunction:
    """f minus the coextension of its trace; the result has vanishing trace."""
    return f - coextend(trace(f, k), f.grid)


def support_projection(F: GridFunction, coeffs: ReflectionCoefficients) -> GridFunction:
    """F minus the left-side reflection extension of its restriction to x < 0.

    The output vanishes identically on x < 0 (the gather-based reflection
    reproduces the restriction exactly) and the map is a projection.
    """
    _require_kind(F, FULL_LINE, "support_projection")
    minus = restrict_minus(F)
    grid = F.grid
    zero = grid.zero_index
    out = F.values.copy()
    # left side: F(x) - (E_- minus)(x) = 0 exactly for x < 0
    out[:zero, :] = 0.0
    # right side: subtract sum_j b_j (restriction)(lambda_j x)
    out[zero + 1:, :] -= _gathered_reflection(minus.values, coeffs,
                                              np.zeros_like(out[zero + 1:, :]))
    # node 0: the mirrored restriction vanishes there by convention
    return GridFunction(grid, out)


def factor_norm_upper(f: GridFunction, s: float, p: float, gamma: float) -> float:
    """Upper bound for the restricted-space norm: the norm of the reflection
    extension of order max(1, ceil|s|)."""
    _require_kind(f, HALF_LINE, "factor_norm_upper")
    coeffs = solve_reflection_coefficients(max(1, int(math.ceil(abs(s)))))
    return hsp_norm(reflect_extend(f, coeffs), s, p, PowerWeight(gamma))


def gn_ratios(u: GridFunction, j: int, k: int, pg) -> list:
    """``gn_check`` for each (p, gamma) of ``pg``; the derivatives of u are
    taken once for the whole sweep (one transform for a full-line u)."""
    if not 0 < j < k:
        raise ValueError(f"need 0 < j < k, got j={j}, k={k}")
    num_mags, top_mags = _seminorm_norms(u, (j, k))
    base_mags = u.fiber_norms()
    ratios = []
    for p, gamma in pg:
        w = PowerWeight(gamma)
        num = _cell_weight_norm(num_mags, u.grid, p, w)
        base = _cell_weight_norm(base_mags, u.grid, p, w)
        top = _cell_weight_norm(top_mags, u.grid, p, w)
        denom = base ** (1.0 - j / k) * top ** (j / k)
        if denom == 0.0:
            raise DegenerateInputError("top-order seminorm vanishes (constant input)")
        ratios.append(float(num / denom))
    return ratios


def gn_check(u: GridFunction, j: int, k: int, p: float, gamma: float) -> float:
    """Interpolation-inequality ratio [u]_j / (||u||^(1-j/k) [u]_k^(j/k)).

    Scale invariant for gamma = 0; raises on constants, where the top
    seminorm vanishes.
    """
    return gn_ratios(u, j, k, [(p, gamma)])[0]


def hardy_embedding_check(f: GridFunction, s: float, p: float, gamma: float) -> float:
    """Ratio ||f||_{L^p(w_{gamma - s p})} / ||f||_{H^{s,p}(w_gamma)} for s in (0,1)."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    target = PowerWeight(gamma - s * p)
    target.check_admissible(p)
    denom = hsp_norm(f, s, p, PowerWeight(gamma))
    if denom == 0.0:
        raise DegenerateInputError("vanishing input")
    return weighted_lp_norm(f, p, target) / denom


def critical_line_distance(s: float, p: float, gamma: float) -> float:
    """Distance from s to the nearest shifted trace-critical value k + (1+gamma)/p."""
    base = (1.0 + gamma) / p
    k = round(s - base)
    candidates = [abs(s - (kk + base)) for kk in (k - 1, k, k + 1) if kk >= 0]
    return min(candidates) if candidates else math.inf


@functools.lru_cache(maxsize=32)
def _bessel_values(grid: Grid, s: float) -> np.ndarray:
    """The order-s Bessel symbol on the frequencies of a full-line grid
    (read-only, cached per (grid, s))."""
    values, = _symbol_values([bessel_symbol(s)], grid)
    values.flags.writeable = False
    return values


def multiplier_norm_ratios(f: GridFunction, spg) -> list:
    """``multiplier_norm_ratio`` for each (s, p, gamma) of ``spg``.

    The Bessel symbol values come from ``_bessel_values``, f and 1_{x>=0} f
    are transformed once each for the whole sweep, and one array of fiber
    norms per s serves every (p, gamma).
    """
    mvals = [_bessel_values(f.grid, s) for s, _, _ in spg]
    den_mags = _fiber_norms(_multiplied(mvals, f))
    num_mags = _fiber_norms(_multiplied(mvals, indicator_multiply(f)))
    ratios = []
    for (_, p, gamma), den, num in zip(spg, den_mags, num_mags):
        w = PowerWeight(gamma)
        denom = _cell_weight_norm(den, f.grid, p, w)
        if denom == 0.0:
            raise DegenerateInputError("vanishing input")
        ratios.append(_cell_weight_norm(num, f.grid, p, w) / denom)
    return ratios


def multiplier_norm_ratio(f: GridFunction, s: float, p: float, gamma: float) -> float:
    """||1_{x>=0} f||_{H^{s,p}(w)} / ||f||_{H^{s,p}(w)}."""
    return multiplier_norm_ratios(f, [(s, p, gamma)])[0]
