"""Half-line structure: reflection extensions and their dual, zero extension
and restrictions, the half-space indicator, traces, coextension, zero-trace
projections, retraction operators, and the inequality probes attached to them.

The reflection extension uses scaling factors lambda_j = j (j = 1..2m+2).
With integer factors every reflected sample f(-lambda_j x) lands exactly on a
grid node, so the forward extension and the support projection are pure index
gathers with no interpolation error; interpolation only enters the dual
operator, which samples at -x/lambda_j.  Non-integer factors are rejected.
"""

from __future__ import annotations

import json
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
    boundary_decay_ok,
    plateau,
    warn_if_boundary_heavy,
    weighted_lp_norm,
)
from .fourier import hsp_norm, spectral_derivative, wkp_norm, wkp_seminorm


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

    def to_json(self) -> str:
        return json.dumps({"m": self.order,
                           "lambdas": list(self.lambdas),
                           "bs": list(self.bs)})

    @classmethod
    def from_json(cls, text: str) -> "ReflectionCoefficients":
        rec = json.loads(text)
        return cls(rec["m"], tuple(rec["lambdas"]), tuple(rec["bs"]))


def solve_reflection_coefficients(m: int) -> ReflectionCoefficients:
    """Coefficients for lambda_j = j, solved exactly in rational arithmetic.

    The matching system says that the weights b_j reproduce evaluation at 1
    from the nodes -1..-(2m+2) on polynomials of degree 2m+1; those are
    Lagrange extrapolation weights, computed here as exact products.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
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
    if f.grid.kind != HALF_LINE:
        raise ValueError("zero_extend needs a half-line input")
    full = f.grid.companion(FULL_LINE)
    out = np.zeros((full.n_points, f.fiber_dim), dtype=np.complex128)
    out[full.zero_index:, :] = f.values
    return GridFunction(full, out)


def restrict_plus(F: GridFunction) -> GridFunction:
    """Samples on x >= 0 as a half-line function."""
    if F.grid.kind != FULL_LINE:
        raise ValueError("restrict_plus needs a full-line input")
    half = F.grid.companion(HALF_LINE)
    return GridFunction(half, F.values[F.grid.zero_index:, :])


def restrict_minus(F: GridFunction) -> GridFunction:
    """Mirrored samples of the open left half, t -> F(-t), as a half-line function.

    The node x = 0 belongs to the plus side (matching the half-space
    indicator), so the t = 0 entry is zero.
    """
    if F.grid.kind != FULL_LINE:
        raise ValueError("restrict_minus needs a full-line input")
    half = F.grid.companion(HALF_LINE)
    out = np.zeros((half.n_points, F.fiber_dim), dtype=np.complex128)
    zero = F.grid.zero_index
    out[1:, :] = F.values[zero - 1:: -1, :][: half.n_points - 1]
    return GridFunction(half, out)


def _gathered_reflection(values: np.ndarray, coeffs: ReflectionCoefficients,
                         m_index: np.ndarray) -> np.ndarray:
    """sum_j b_j f(lambda_j * t_m) for integer lambda_j, values zero past the end."""
    n = values.shape[0]
    out = np.zeros((len(m_index), values.shape[1]), dtype=np.complex128)
    for lam, b in zip(coeffs.lambdas, coeffs.bs):
        src = m_index * int(lam)
        valid = src < n
        out[valid] += b * values[src[valid]]
    return out


def reflect_extend(f: GridFunction, coeffs: ReflectionCoefficients) -> GridFunction:
    """Extend a half-line function across 0 by scaled reflections.

    (E f)(x) = f(x) for x >= 0 and sum_j b_j f(-lambda_j x) for x < 0; values
    that would require f beyond L are taken as zero under the decay guard.
    """
    if f.grid.kind != HALF_LINE:
        raise ValueError("reflect_extend needs a half-line input")
    if not boundary_decay_ok(f):
        warn_if_boundary_heavy(f, "reflect_extend")
    full = f.grid.companion(FULL_LINE)
    zero = full.zero_index
    out = np.zeros((full.n_points, f.fiber_dim), dtype=np.complex128)
    out[zero:, :] = f.values
    m_index = np.arange(1, zero + 1)  # x = -m h
    out[zero - 1:: -1, :] = _gathered_reflection(f.values, coeffs, m_index)
    return GridFunction(full, out)


def _upsampled_values(F: GridFunction, factor: int) -> np.ndarray:
    """Trigonometric interpolant of F on the ``factor``-fold refined lattice."""
    n = F.grid.n_points
    spec = np.fft.fft(F.values, axis=0)
    nyq = n // 2
    padded = np.zeros((factor * n, F.fiber_dim), dtype=np.complex128)
    padded[:nyq] = spec[:nyq]
    padded[nyq] = 0.5 * spec[nyq]
    padded[factor * n - nyq] = 0.5 * spec[nyq]
    padded[factor * n - nyq + 1:] = spec[nyq + 1:]
    return np.fft.ifft(padded, axis=0) * factor


def reflect_extend_dual(g: GridFunction, coeffs: ReflectionCoefficients) -> GridFunction:
    """Adjoint-type operator: 1_{x>=0} (g + sum_j b_j lambda_j^{-1} g(-x/lambda_j)).

    Off-grid values of g come from its trigonometric interpolant: the points
    -x/lambda_j live on the lambda_j-fold refined lattice, where that
    interpolant is an exact FFT upsampling.
    """
    if g.grid.kind != FULL_LINE:
        raise ValueError("reflect_extend_dual needs a full-line input")
    grid = g.grid
    n = grid.n_points
    zero = grid.zero_index
    acc = g.values[zero:, :].copy()
    for lam, b in zip(coeffs.lambdas, coeffs.bs):
        j = int(lam)
        up = _upsampled_values(g, j) if j > 1 else g.values
        acc += (b / lam) * up[j * zero - np.arange(n - zero)]
    out = np.zeros_like(g.values)
    out[zero:, :] = acc
    return GridFunction(grid, out)


def indicator_multiply(F: GridFunction) -> GridFunction:
    """Multiply samples by the indicator of x >= 0 (the node 0 is kept)."""
    if F.grid.kind != FULL_LINE:
        raise ValueError("indicator_multiply needs a full-line input")
    out = F.values.copy()
    out[: F.grid.zero_index, :] = 0.0
    return GridFunction(F.grid, out)


@dataclass(frozen=True)
class TraceVector:
    """(f(0), f'(0), ..., f^(k)(0)), each entry a C^n vector."""

    order: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.atleast_2d(np.asarray(self.entries, dtype=np.complex128))
        if e.shape[0] != self.order + 1:
            raise ValueError(f"need {self.order + 1} entries, got {e.shape[0]}")
        if not np.all(np.isfinite(e)):
            raise ValueError("trace entries must be finite")
        object.__setattr__(self, "entries", e)


def trace(f: GridFunction, k: int) -> TraceVector:
    """Evaluate (f(0), ..., f^(k)(0)) by stencils of accuracy order k + 3.

    One-sided on half-line grids, centered on full-line grids.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
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
    entries = np.empty((k + 1, f.fiber_dim), dtype=np.complex128)
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
    vals = np.zeros((grid.n_points, t.entries.shape[1]), dtype=np.complex128)
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
    if F.grid.kind != FULL_LINE:
        raise ValueError("support_projection needs a full-line input")
    minus = restrict_minus(F)
    grid = F.grid
    zero = grid.zero_index
    out = F.values.copy()
    # left side: F(x) - (E_- minus)(x) = 0 exactly for x < 0
    out[:zero, :] = 0.0
    # right side: subtract sum_j b_j (restriction)(lambda_j x)
    m_index = np.arange(1, grid.n_points - zero)
    out[zero + 1:, :] -= _gathered_reflection(minus.values, coeffs, m_index)
    # node 0: the mirrored restriction vanishes there by convention
    return GridFunction(grid, out)


def factor_norm_upper(f: GridFunction, s: float, p: float, gamma: float,
                      coeffs: ReflectionCoefficients | None = None) -> float:
    """Upper bound for the restricted-space norm: the norm of the reflection
    extension (order max(1, ceil|s|) unless ``coeffs`` is given)."""
    if f.grid.kind != HALF_LINE:
        raise ValueError("factor_norm_upper needs a half-line input")
    if coeffs is None:
        coeffs = solve_reflection_coefficients(max(1, int(math.ceil(abs(s)))))
    return hsp_norm(reflect_extend(f, coeffs), s, p, PowerWeight(gamma))


def factor_norm_lower(f: GridFunction, p: float, gamma: float) -> float:
    """Trivial lower bound: the weighted L^p norm of f on the half line."""
    return weighted_lp_norm(f, p, PowerWeight(gamma))


def gn_check(u: GridFunction, j: int, k: int, p: float, gamma: float) -> float:
    """Interpolation-inequality ratio [u]_j / (||u||^(1-j/k) [u]_k^(j/k)).

    Scale invariant for gamma = 0; raises on constants, where the top
    seminorm vanishes.
    """
    if not 0 < j < k:
        raise ValueError(f"need 0 < j < k, got j={j}, k={k}")
    w = PowerWeight(gamma)
    num = wkp_seminorm(u, j, p, w)
    base = weighted_lp_norm(u, p, w)
    top = wkp_seminorm(u, k, p, w)
    denom = base ** (1.0 - j / k) * top ** (j / k)
    if denom == 0.0:
        raise DegenerateInputError("top-order seminorm vanishes (constant input)")
    return float(num / denom)


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


def multiplier_norm_ratio(f: GridFunction, s: float, p: float, gamma: float) -> float:
    """||1_{x>=0} f||_{H^{s,p}(w)} / ||f||_{H^{s,p}(w)}."""
    w = PowerWeight(gamma)
    denom = hsp_norm(f, s, p, w)
    if denom == 0.0:
        raise DegenerateInputError("vanishing input")
    return hsp_norm(indicator_multiply(f), s, p, w) / denom
