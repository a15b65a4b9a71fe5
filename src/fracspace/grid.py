"""Uniform grids, power weights, weighted integration and norms.

The continuum objects are functions on the line or the half line with values
in C^n, measured in L^p against the weight |x|^gamma.  Everything here is the
discrete stand-in: a uniform grid, samples on it (float64 for real data,
complex128 for complex data), and quadrature rules
whose weight factors are integrated in closed form over grid cells so that the
singularity of |x|^gamma at the origin never has to be sampled.
"""

from __future__ import annotations

import csv
import functools
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np


class AdmissibilityError(ValueError):
    """Raised when a (p, gamma) pair lies outside the admissible range."""


class GridMismatchError(ValueError):
    """Raised when two grid functions do not share grid and fiber dimension."""


class ResolutionError(ValueError):
    """Raised when an operation is asked to work below grid resolution."""


class DegenerateInputError(ValueError):
    """Raised when an input makes the requested quantity meaningless (e.g. 0/0)."""


FULL_LINE = "full-line"
HALF_LINE = "half-line"


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _integer(name: str, value, lower: int) -> int:
    """``value`` as an int >= ``lower`` (orders, scales, sizes, seeds); a
    boolean, a string or a non-integral number is rejected, not converted."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not integral or int(value) < lower:
        raise ValueError(f"{name} must be an integer >= {lower}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Grid:
    """Uniform sampling of [-L, L) (full line) or [0, L) (half line).

    The point 0 is a node in both kinds, and h * N equals the extent exactly.
    """

    half_width: float
    n_points: int
    kind: str = FULL_LINE

    def __post_init__(self):
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(f"half_width must be finite and positive, got {self.half_width}")
        if self.n_points < 16 or not _is_power_of_two(self.n_points):
            raise ValueError(
                f"n_points must be a power of two >= 16, got {self.n_points}"
            )
        if self.kind not in (FULL_LINE, HALF_LINE):
            raise ValueError(f"unknown grid kind {self.kind!r}")

    @property
    def extent(self) -> float:
        return 2.0 * self.half_width if self.kind == FULL_LINE else self.half_width

    @property
    def h(self) -> float:
        return self.extent / self.n_points

    @property
    def points(self) -> np.ndarray:
        if self.kind == FULL_LINE:
            return -self.half_width + self.h * np.arange(self.n_points)
        return self.h * np.arange(self.n_points)

    @property
    def zero_index(self) -> int:
        """Index of the node x = 0."""
        return self.n_points // 2 if self.kind == FULL_LINE else 0

    def frequencies(self) -> np.ndarray:
        """Angular frequencies xi_k = pi k / L of the discrete transform (full
        line); read-only, cached per grid."""
        if self.kind != FULL_LINE:
            raise ValueError("frequencies are defined for full-line grids")
        return _frequencies(self)

    def cell_weights(self, gamma: float = 0.0) -> np.ndarray:
        """Closed-form integrals of |x|^gamma over the cells [x_i - h/2, x_i + h/2].

        Every node owns its full centered cell (also the x = 0 node of a
        half-line grid, whose cell is symmetric about the origin); this makes
        extension by zero an exact isometry between the two grid kinds.
        Requires gamma > -1 so the weight is locally integrable.  The array
        is read-only and cached per (grid, gamma).
        """
        if gamma <= -1.0:
            raise AdmissibilityError(f"gamma must exceed -1, got {gamma}")
        return _cell_weights(self, float(gamma))

    def companion(self, kind: str) -> "Grid":
        """Grid of the other kind with the same spacing and half width."""
        if kind == self.kind:
            return self
        if kind == FULL_LINE:
            return Grid(self.half_width, 2 * self.n_points, FULL_LINE)
        return Grid(self.half_width, self.n_points // 2, HALF_LINE)


@functools.lru_cache(maxsize=32)
def _frequencies(grid: Grid) -> np.ndarray:
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.h)
    xi.flags.writeable = False
    return xi


@functools.lru_cache(maxsize=32)
def _cell_weights(grid: Grid, gamma: float) -> np.ndarray:
    x = grid.points
    if gamma == 0.0:
        cw = np.full_like(x, grid.h)
    else:
        g1 = gamma + 1.0
        anti = lambda t: np.sign(t) * np.abs(t) ** g1 / g1
        cw = anti(x + 0.5 * grid.h) - anti(x - 0.5 * grid.h)
    cw.flags.writeable = False
    return cw


def _check_exponent(p: float) -> None:
    if not p > 1.0:
        raise AdmissibilityError(f"p must exceed 1, got {p}")


@dataclass(frozen=True)
class PowerWeight:
    """The weight w_gamma(x) = |x|^gamma.

    Admissibility for the exponent p requires gamma in (-1, p-1); the dual
    weight has exponent gamma' = -gamma/(p-1) paired with p' = p/(p-1).
    """

    gamma: float = 0.0

    def check_integrable(self, p: float) -> None:
        """Weakest requirement for weighted norms: p > 1 and gamma > -1."""
        _check_exponent(p)
        if not self.gamma > -1.0:
            raise AdmissibilityError(
                f"gamma={self.gamma} makes |x|^gamma non-integrable at 0")

    def check_admissible(self, p: float) -> None:
        """Full Muckenhoupt window gamma in (-1, p-1), needed by duality and
        multiplier-based operations."""
        _check_exponent(p)
        if not (-1.0 < self.gamma < p - 1.0):
            raise AdmissibilityError(
                f"gamma={self.gamma} is not admissible for p={p}; "
                f"need gamma in (-1, {p - 1.0})"
            )

    def dual(self, p: float) -> "PowerWeight":
        self.check_admissible(p)
        return PowerWeight(-self.gamma / (p - 1.0))


def dual_exponent(p: float) -> float:
    _check_exponent(p)
    return p / (p - 1.0)


def _samples(values) -> np.ndarray:
    """``values`` as complex128 when complex, else as float64 (real, integer
    and boolean input), without a copy when it already is one of those."""
    v = np.asarray(values)
    return v.astype(np.complex128 if np.iscomplexobj(v) else np.float64, copy=False)


@dataclass(frozen=True)
class GridFunction:
    """C^n-valued samples on a grid, stored real when the data is real.

    ``values`` always has shape (N, n) and dtype float64 for real or integer
    input, complex128 for complex input (``_samples``); arithmetic with a
    complex scalar or complex samples gives a complex result.  Scalar data
    may be passed as a flat array and is reshaped.  All entries must be
    finite.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = _samples(self.values)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != self.grid.n_points:
            raise ValueError(
                f"values must have shape ({self.grid.n_points}, n), got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("values contain NaN or Inf")
        object.__setattr__(self, "values", v)

    @property
    def fiber_dim(self) -> int:
        return self.values.shape[1]

    def fiber_norms(self) -> np.ndarray:
        """Pointwise C^n norms, shape (N,)."""
        return _fiber_norms(self.values)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        check_compatible(self, other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        check_compatible(self, other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar: complex) -> "GridFunction":
        return GridFunction(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def to_csv(self, path) -> None:
        """Write ``x,re_0,im_0[,re_1,im_1,...]`` rows at full precision."""
        x = self.grid.points
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = ["x"]
            for c in range(self.fiber_dim):
                header += [f"re_{c}", f"im_{c}"]
            writer.writerow(header)
            for i in range(self.grid.n_points):
                row = [f"{x[i]:.17g}"]
                for c in range(self.fiber_dim):
                    row += [f"{self.values[i, c].real:.17g}",
                            f"{self.values[i, c].imag:.17g}"]
                writer.writerow(row)

    @classmethod
    def from_csv(cls, path) -> "GridFunction":
        """Read what ``to_csv`` writes; the samples are real (float64) when
        every imaginary column is zero."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = [[float(entry) for entry in row] for row in reader if row]
        if not header or header[0] != "x" or (len(header) - 1) % 2 != 0:
            raise ValueError(f"malformed grid-function CSV header: {header}")
        if len(rows) < 2:
            raise ValueError(f"grid-function CSV needs at least two rows, got {len(rows)}")
        data = np.asarray(rows)
        x = data[:, 0]
        n_points = len(x)
        if x[0] < 0:
            grid = Grid(float(-x[0]), n_points, FULL_LINE)
        else:
            grid = Grid(float((x[1] - x[0]) * n_points), n_points, HALF_LINE)
        if not np.allclose(x, grid.points, rtol=0, atol=1e-12 * (1 + abs(x[-1]))):
            raise ValueError(f"CSV nodes are not the uniform nodes of {grid}")
        n = (len(header) - 1) // 2
        values, imag = data[:, 1::2], data[:, 2::2]
        if values.shape != (n_points, n) or imag.shape != (n_points, n):
            raise ValueError("CSV data block has inconsistent shape")
        return cls(grid, values + 1j * imag if np.any(imag) else values)


def _require_kind(f: GridFunction, kind: str, who: str) -> None:
    """Raise ValueError unless ``f`` lives on a grid of ``kind``."""
    if f.grid.kind != kind:
        raise ValueError(f"{who} needs a {kind} input")


def check_compatible(f: GridFunction, g: GridFunction) -> None:
    if f.grid != g.grid:
        raise GridMismatchError(f"grids differ: {f.grid} vs {g.grid}")
    if f.fiber_dim != g.fiber_dim:
        raise GridMismatchError(
            f"fiber dimensions differ: {f.fiber_dim} vs {g.fiber_dim}"
        )


def _fiber_norms(values: np.ndarray) -> np.ndarray:
    """Pointwise C^n norms over the last axis: shape (N, n) -> (N,), and a
    stack (k, N, n) of samples -> (k, N)."""
    return np.sqrt(np.sum(np.abs(values) ** 2, axis=-1))


def weighted_lp_norm(f: GridFunction, p: float, w: PowerWeight) -> float:
    """(integral of ||f(x)||^p |x|^gamma dx)^(1/p) by the cell-weight rule.

    The quadrature multiplies each sampled fiber norm by the exact integral of
    the weight over that node's cell, so it is exact for functions that are
    constant on cells and second-order accurate for smooth ones.
    """
    return _cell_weight_norm(f.fiber_norms(), f.grid, p, w)


def _cell_weight_norm(mags: np.ndarray, grid: Grid, p: float, w: PowerWeight) -> float:
    """The cell-weight rule of ``weighted_lp_norm`` over fiber norms ``mags``
    sampled on ``grid``; a sweep over (p, gamma) reuses one ``mags``."""
    w.check_integrable(p)
    cw = grid.cell_weights(w.gamma)
    return float(np.sum(mags ** p * cw) ** (1.0 / p))


def dual_pairing(f: GridFunction, g: GridFunction) -> complex:
    """Trapezoid approximation of the unweighted pairing integral <f, conj g>."""
    check_compatible(f, g)
    prods = np.sum(f.values * np.conj(g.values), axis=1)
    h = f.grid.h
    if f.grid.kind == FULL_LINE:
        return complex(h * np.sum(prods))
    # half line: trapezoid gives the boundary node half weight
    return complex(h * (0.5 * prods[0] + np.sum(prods[1:])))


_PROFILE_SUPPORTS = {
    "bump": (-1.0, 1.0),
    "left": (-2.0, -1.0),
    "right": (1.0, 2.0),
}


def _bump_profile(u: np.ndarray) -> np.ndarray:
    """Unnormalized C^inf bump on (-1, 1)."""
    out = np.zeros_like(u, dtype=float)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def plateau(x: np.ndarray, center: float, inner: float, outer: float) -> np.ndarray:
    """C^inf window: 1 on |x-c| <= inner, 0 on |x-c| >= outer.

    The ramp is the standard transition a / (a + b) with a = e^{-1/(1-z)}
    and b = e^{-1/z}, z the relative position in the ramp: every derivative
    vanishes at both edges.  a and b never underflow together, so the
    quotient needs no guard.
    """
    z = (np.abs(x - center) - inner) / (outer - inner)
    out = np.ones_like(x, dtype=float)
    ramp = (z > 0.0) & (z < 1.0)
    zr = z[ramp]
    a = np.exp(-1.0 / (1.0 - zr))
    out[ramp] = a / (a + np.exp(-1.0 / zr))
    out[z >= 1.0] = 0.0
    return out


def mollifier_kernel(grid: Grid, scale: int, profile: str = "bump"):
    """Samples of phi_n(x) = n phi(n x) at integer grid offsets, discretely normalized.

    Normalizing against the discrete mass h * sum makes convolution against a
    constant reproduce the constant to machine precision.
    """
    scale = _integer("scale", scale, 1)
    try:
        lo, hi = _PROFILE_SUPPORTS[profile]
    except KeyError:
        raise ValueError(f"unknown mollifier profile {profile!r}") from None
    h = grid.h
    if (hi - lo) / scale < 8 * h:
        raise ResolutionError(
            f"mollifier at scale {scale} is supported on fewer than 8 grid cells"
        )
    m_max = int(math.ceil(hi / (scale * h))) + 1
    m_min = int(math.floor(lo / (scale * h))) - 1
    offsets = np.arange(m_min, m_max + 1)
    us = offsets * h * scale  # argument of phi, i.e. n*x with x on the grid
    if profile == "bump":
        raw = _bump_profile(us)
    elif profile == "left":
        raw = _bump_profile(2.0 * us + 3.0)
    else:  # right
        raw = _bump_profile(2.0 * us - 3.0)
    # normalize the discrete mass h * sum(kernel) to one
    return offsets, raw / (h * np.sum(raw))


def mollify(f: GridFunction, scale: int, profile: str = "bump") -> GridFunction:
    """Discrete convolution with phi_n(x) = n phi(n x), zero padded outside."""
    grid = f.grid
    offsets, kernel = mollifier_kernel(grid, scale, profile)
    n = grid.n_points
    out = np.zeros_like(f.values)
    # (phi_n * f)(x_i) = h * sum_m kernel[m] f_{i-m}; np.convolve places that
    # sum at index i - offsets[0] of the full convolution.
    shift = int(offsets[0])
    for c in range(f.fiber_dim):
        full = np.convolve(f.values[:, c], kernel) * grid.h
        j = np.arange(n) - shift
        valid = (j >= 0) & (j < len(full))
        out[valid, c] = full[j[valid]]
    return GridFunction(grid, out)


def boundary_decay_ok(f: GridFunction) -> bool:
    """True when the 4 outermost samples are below 1e-10 of the peak."""
    mags = f.fiber_norms()
    peak = float(np.max(mags))
    if peak == 0.0:
        return True
    if f.grid.kind == FULL_LINE:
        edge = max(float(np.max(mags[:4])), float(np.max(mags[-4:])))
    else:
        edge = float(np.max(mags[-4:]))
    return edge <= 1e-10 * peak


def warn_if_boundary_heavy(f: GridFunction, what: str) -> None:
    if not boundary_decay_ok(f):
        warnings.warn(
            f"{what}: input does not decay below 1e-10 of its peak at the grid "
            "boundary; periodization error may contaminate the result",
            RuntimeWarning,
            stacklevel=3,
        )
