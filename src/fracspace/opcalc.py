"""Realizations of +-d/dt on the weighted half line: explicit resolvents,
sectoriality probes, fractional powers by the real-axis (Balakrishnan)
integral, the causal fractional-derivative oracle, and the domain-norm
comparison behind the fractional-domain characterization.

Every discrete resolvent is a one-pole recursion over the grid, i.e. a
unit lower-bidiagonal system (I - E S) u = r with a two-tap right-hand side
r whose taps come from ``_taps``.  ``_resolvent_map`` is the one resolvent
map: it alone decides, per variant, the data reversal and the zero start,
forms r and solves the system with one LAPACK banded triangular solve, and
serves both variants and both adjoints (the adjoint solves with the
conjugate-transposed band).  The Balakrishnan quadrature is
a fixed sum of such recursions, hence one linear time-invariant filter on
the grid: ``fractional_power`` builds its impulse response once per
(variant, h, N, theta), keeps it in a small bounded cache of read-only
arrays, and applies it by FFT convolution (``_conv.full_convolve``).
Everything else evaluates per call.  ``riemann_liouville`` shares no code
with that kernel, so the two stay independent representations.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special
from scipy.linalg import lapack

from . import _fd
from ._conv import full_convolve
from .grid import (
    GridFunction,
    HALF_LINE,
    PowerWeight,
    weighted_lp_norm,
)
from .fourier import hsp_norm
from .halfline import (
    ReflectionCoefficients,
    factor_norm_upper,
    trace,
    zero_extend,
)

DIRICHLET = "dirichlet-derivative"
MINUS = "minus-derivative"


@dataclass(frozen=True)
class HalfLineOperator:
    """A = d/dt with zero boundary value (dirichlet) or A = -d/dt without."""

    variant: str
    p: float = 2.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.variant not in (DIRICHLET, MINUS):
            raise ValueError(f"unknown variant {self.variant!r}")
        PowerWeight(self.gamma).check_admissible(self.p)

    @property
    def weight(self) -> PowerWeight:
        return PowerWeight(self.gamma)

    def apply(self, f: GridFunction) -> GridFunction:
        """A f by boundary-safe 8th-order differentiation."""
        sign = 1.0 if self.variant == DIRICHLET else -1.0
        dv = _fd.derivative_array(f.values, f.grid.h, order=1, accuracy=8)
        return GridFunction(f.grid, sign * dv)


def _expm1c(z: complex) -> complex:
    """exp(z) - 1 without cancellation for small |z| (complex-safe)."""
    if abs(z) > 1e-4:
        return cmath.exp(z) - 1.0
    total, term = 0.0 + 0.0j, 1.0 + 0.0j
    for k in range(1, 10):
        term *= z / k
        total += term
    return total


def _taps(variant: str, lam: complex, h: float) -> tuple[complex, complex, complex]:
    """(E, b0, b1) of the one-cell Duhamel step, exact for linear data.

    Dirichlet: u(t+h) = E u(t) + alpha f(t) + beta f(t+h) solves u' + lam u = f
    when f is linear on the cell, and (b0, b1) = (beta, alpha).  Minus: the
    mirrored step u_i = E u_{i+1} + alpha' f_i + beta' f_{i+1} with
    alpha' = int e^{-lam tau}(1 - tau/h), beta' = int e^{-lam tau} tau/h, and
    (b0, b1) = (alpha', beta') on reversed data.  Grouped expm1 forms keep all
    regimes of |lam h| stable (E - 1 is never recovered from E by subtraction,
    which loses everything when |lam h| is tiny).
    """
    em1 = _expm1c(-lam * h)  # E - 1
    E = 1.0 + em1
    lam2h = lam * lam * h
    if variant == DIRICHLET:
        beta = (lam * h + em1) / lam2h
        return E, beta, -em1 / lam - beta
    beta_p = -(lam * h + em1 * (1.0 + lam * h)) / lam2h
    return E, -em1 / lam - beta_p, beta_p


def _resolvent_map(variant: str, lam: complex, values: np.ndarray, h: float,
                   adjoint: bool = False) -> np.ndarray:
    """Column-wise discrete (lam + A)^{-1}, or its conjugate transpose.

    Dirichlet: u(t) = integral_0^t e^{-lam (t-s)} f(s) ds with u(0) = 0.
    Minus: u(t) = integral_t^inf e^{-lam (s-t)} f(s) ds (zero data past the
    grid), the same recursion run on reversed data.  With L = I - E S,
    R = b0 I + b1 S and S the down-shift, the forward map is y = L^{-1} P R x,
    the one-pole recursion y_k = E y_{k-1} + b0 x_k + b1 x_{k-1} from
    y_{-1} = x_{-1} = 0; P zeroes row 0 for the Dirichlet variant, which makes
    y_0 = 0 exactly.  L is unit lower bidiagonal, solved by one LAPACK banded
    triangular solve; the adjoint R^H P L^{-H} x solves with L^H on the same
    band.
    """
    E, b0, b1 = _taps(variant, lam, h)
    zero_start = variant == DIRICHLET
    if not zero_start:
        values = values[::-1]
    n = values.shape[0]
    band = np.empty((2, n), dtype=np.complex128)
    band[0] = 1.0  # unit diagonal, not read (diag="U")
    band[1] = -E   # subdiagonal; the last entry lies outside the matrix
    if adjoint:
        z, _ = lapack.ztbtrs(band, values, uplo="L", trans="C", diag="U")
        if zero_start:
            z[0] = 0.0
        y = np.conj(b0) * z
        y[:-1] += np.conj(b1) * z[1:]
    else:
        # the right-hand side is built transposed so that LAPACK reads it in place
        r = np.empty((values.shape[1], n), dtype=np.complex128).T
        np.multiply(b0, values, out=r)
        r[1:] += b1 * values[:-1]
        if zero_start:
            r[0] = 0.0
        y, _ = lapack.ztbtrs(band, r, uplo="L", diag="U", overwrite_b=1)
    return y if zero_start else y[::-1]


def resolvent(op: HalfLineOperator, lam: complex, f: GridFunction) -> GridFunction:
    """(lam + A)^{-1} f by the cell-exact integrating-factor recursion.

    The Dirichlet branch returns u(t) = integral_0^t e^{-lam(t-s)} f(s) ds
    (so u(0) = 0 identically); the minus branch integrates from the right.
    """
    if f.grid.kind != HALF_LINE:
        raise ValueError("resolvent needs a half-line grid function")
    if lam.real <= 0:
        raise ValueError(f"need Re(lambda) > 0, got {lam}")
    return GridFunction(f.grid, _resolvent_map(op.variant, lam, f.values, f.grid.h))


@dataclass(frozen=True)
class SectorProbe:
    """Resolvent-norm estimates over the sector complementary to ``angle``.

    ``angle`` is the sectoriality type being probed: lambda ranges over the
    sector |arg lambda| <= pi - angle.  Entries whose lambda leaves the open
    right half plane (the actual resolvent set) are reported as infinite.
    Each entry also records ``iterations`` and ``converged``: for the
    singular-value method the power-iteration steps taken and whether its
    relative-change stop fired (False: the estimate is the one at the
    iteration cap); None for the methods without a stopping test.
    """

    variant: str
    p: float
    gamma: float
    angle: float
    entries: tuple = field(default_factory=tuple)

    @property
    def supremum(self) -> float:
        return max((e["norm_estimate"] for e in self.entries), default=0.0)

    def to_json(self) -> str:
        return json.dumps({
            "variant": self.variant, "p": self.p, "gamma": self.gamma,
            "angle": self.angle, "entries": list(self.entries)})


def _op_norm_singular_value(op: HalfLineOperator, lam: complex, grid,
                            tol: float = 1e-8,
                            max_iter: int = 400) -> tuple[float, int, bool]:
    """Largest singular value of lam (lam+A)^{-1} on L^2(w_gamma), as
    (estimate, iterations, converged).

    Power iteration on the weight-conjugated discrete map; conjugating by the
    square root of the cell weights makes the L^2(w) norm Euclidean, so the
    estimate is exact up to iteration tolerance.  ``converged`` is False when
    the relative change never fell below ``tol`` within ``max_iter`` steps.
    """
    h = grid.h
    cw = grid.cell_weights(op.gamma)
    sq = np.sqrt(cw)[:, None]

    def m_apply(x):
        return lam * (sq * _resolvent_map(op.variant, lam, x / sq, h))

    def mh_apply(x):
        return np.conj(lam) * (_resolvent_map(op.variant, lam, sq * x, h, adjoint=True) / sq)

    rng = np.random.default_rng(1234)
    v = rng.standard_normal((grid.n_points, 1)) + 1j * rng.standard_normal((grid.n_points, 1))
    v /= np.linalg.norm(v)
    est, prev = 0.0, -1.0
    for it in range(1, max_iter + 1):
        w_ = m_apply(v)
        est = float(np.linalg.norm(w_))
        v_new = mh_apply(w_)
        nrm = np.linalg.norm(v_new)
        if nrm == 0.0:
            return 0.0, it, True
        v = v_new / nrm
        if abs(est - prev) <= tol * max(est, 1e-300):
            return est, it, True
        prev = est
    return est, max_iter, False


def _op_norm_random_probe(op: HalfLineOperator, lam: complex, grid,
                          n_probes: int = 200, seed: int = 7) -> float:
    """Lower bound for the L^p(w) norm of lam (lam+A)^{-1} from random inputs."""
    rng = np.random.default_rng(seed)
    w = op.weight
    best = 0.0
    for _ in range(n_probes):
        raw = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
        f = GridFunction(grid, raw)
        denom = weighted_lp_norm(f, op.p, w)
        if denom == 0.0:
            continue
        u = resolvent(op, lam, f)
        best = max(best, abs(lam) * weighted_lp_norm(u, op.p, w) / denom)
    return best


def sectoriality_probe(op: HalfLineOperator, grid, angles, radii) -> list[SectorProbe]:
    """Estimate sup ||lam (lam+A)^{-1}|| over lam in the sector of each probed angle.

    For p = 2 the singular-value method is exact (weight-conjugated power
    iteration); otherwise 200 random probes give a labeled lower bound.
    """
    probes = []
    radii = np.asarray(list(radii), dtype=float)
    for a in angles:
        if not 0.0 < a < math.pi:
            raise ValueError(f"angle must lie in (0, pi), got {a}")
        phi_max = math.pi - a
        entries = []
        for phi in {0.0, 0.5 * phi_max, phi_max}:
            for r in radii:
                for sign in ((1.0,) if phi == 0.0 else (1.0, -1.0)):
                    lam = r * cmath.exp(1j * sign * phi)
                    iterations = converged = None
                    if lam.real <= 0.0:
                        est, method = math.inf, "outside-resolvent-set"
                    elif op.p == 2.0:
                        est, iterations, converged = _op_norm_singular_value(op, lam, grid)
                        method = "singular-value"
                    else:
                        est = _op_norm_random_probe(op, lam, grid)
                        method = "random-probe"
                    entries.append({"re_lambda": lam.real, "im_lambda": lam.imag,
                                    "norm_estimate": est, "method": method,
                                    "iterations": iterations, "converged": converged})
        probes.append(SectorProbe(op.variant, op.p, op.gamma, a, tuple(entries)))
    return probes


# log-lambda trapezoid of the Balakrishnan integral: lam = e^u, |u| <= _U_RANGE
_U_RANGE = 30.0
_U_STEP = 0.05
# e^{-lam h k} below e^-700 is dropped from the kernel (subnormal slow paths)
_DECAY_CUTOFF = 700.0
# elements of the exponential buffer the kernel build fills per chunk of lambdas
_CHUNK_ELEMENTS = 1 << 16


def _exponential_sums(first: np.ndarray, rate: np.ndarray, log_e: np.ndarray,
                      n: int) -> np.ndarray:
    """Rows out[r, k] = sum_i first[r, i] (k = 0), sum_i rate[r, i] E_i^(k-1) (k >= 1).

    E_i = exp(log_e[i]) with log_e non-increasing (lambdas ascending); each
    chunk of lambdas is cut where its slowest decay passes e^-_DECAY_CUTOFF.
    """
    out = np.zeros((first.shape[0], n))
    out[:, 0] = first.sum(axis=1)
    out[:, 1] = rate.sum(axis=1)  # E^0 = 1, also where E = 0
    powers = np.arange(1.0, n - 1)  # exponents of E for k = 2 .. n-1
    rows = max(1, _CHUNK_ELEMENTS // n)
    buf = np.empty((rows, n - 2))
    for start in range(0, log_e.size, rows):
        sl = slice(start, min(start + rows, log_e.size))
        slowest = -log_e[start]
        width = (n - 2 if slowest * (n - 2) <= _DECAY_CUTOFF
                 else int(_DECAY_CUTOFF / slowest))
        block = buf[:sl.stop - sl.start, :width]
        np.multiply(log_e[sl, None], powers[:width], out=block)
        block[block < -_DECAY_CUTOFF] = -np.inf
        np.exp(block, out=block)
        out[:, 2:2 + width] += rate[:, sl] @ block
    return out


@functools.lru_cache(maxsize=32)
def _balakrishnan_kernel(variant: str, h: float, n: int, theta: float) -> np.ndarray:
    """Impulse response of the log-lambda trapezoid sum of resolvents (read-only).

    With c_lam the trapezoid weight times lam^theta, row 0 is
    sum_lam c_lam g_lam, where g_lam is the impulse response of one
    recursion with the taps (E, b0, b1) of ``_taps``: g[0] = b0,
    g[k] = (E b0 + b1) E^(k-1), causal for the Dirichlet variant and applied
    to reversed data for the minus variant.  The Dirichlet variant adds row 1,
    sum_lam c_lam b0 E^k: the response to f_0 that the zero initial value
    removes.  The minus kernel has no such row.
    """
    us = np.arange(-_U_RANGE, _U_RANGE + 1e-12, _U_STEP)
    table = []
    for i, u in enumerate(us):
        lam = math.exp(u)
        c = (_U_STEP if 0 < i < len(us) - 1 else 0.5 * _U_STEP) * lam ** theta
        E, b0, b1 = _taps(variant, lam, h)
        row = (E, c * b0, c * (E * b0 + b1))
        table.append(row + (c * b0, c * b0 * E) if variant == DIRICHLET else row)
    table = np.array(table).real  # lam is real, so every coefficient is
    with np.errstate(divide="ignore"):  # E = 0 once lam h passes ~37
        log_e = np.log(table[:, 0])
    kernel = _exponential_sums(table[:, 1::2].T, table[:, 2::2].T, log_e, n)
    kernel.flags.writeable = False
    return kernel


def fractional_power(op: HalfLineOperator, theta: float, f: GridFunction) -> GridFunction:
    """A^theta f by the real-axis integral

        (sin(pi theta)/pi) * integral_0^inf lam^(theta-1) (lam+A)^{-1} A f dlam,

    computed on lam = e^u with trapezoid steps plus closed-form corrections for
    both truncated ends (from (lam+A)^{-1}Af = f - lam (lam+A)^{-1} f at the
    small end and = Af/lam - (lam+A)^{-1} A^2 f / lam at the large end).  The
    trapezoid sum of discrete resolvents is applied as one cached convolution
    kernel (see ``_balakrishnan_kernel``).
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    if f.grid.kind != HALF_LINE:
        raise ValueError("fractional_power needs a half-line grid function")
    if op.variant == DIRICHLET:
        tr = trace(f, 0)
        scale = float(np.max(np.abs(f.values))) or 1.0
        if float(np.max(np.abs(tr.entries))) > 1e-8 * scale:
            raise ValueError("input violates the zero boundary value of the domain")
    af = op.apply(f)
    n = f.grid.n_points
    kernel = _balakrishnan_kernel(op.variant, f.grid.h, n, theta)
    if op.variant == DIRICHLET:
        acc = full_convolve(kernel[0][:, None], af.values)[:n]
        acc -= kernel[1][:, None] * af.values[0][None, :]
    else:
        acc = full_convolve(kernel[0][:, None], af.values[::-1])[:n][::-1]
    eps_end = math.exp(-_U_RANGE)
    big_end = math.exp(_U_RANGE)
    acc += (eps_end ** theta / theta) * f.values
    acc += (big_end ** (theta - 1.0) / (1.0 - theta)) * af.values
    return GridFunction(f.grid, (math.sin(math.pi * theta) / math.pi) * acc)


def riemann_liouville(f: GridFunction, theta: float) -> GridFunction:
    """Causal fractional derivative of order theta in (0, 1) for f with f(0) = 0.

    Evaluated in the equivalent integrated form (valid exactly when f(0) = 0)

        (1/Gamma(1-theta)) * integral_0^t (t-s)^{-theta} f'(s) ds,

    with f' by 8th-order local differences and the weakly singular convolution
    by product integration that is exact for piecewise-linear f'.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    if f.grid.kind != HALF_LINE:
        raise ValueError("riemann_liouville needs a half-line grid function")
    grid = f.grid
    h = grid.h
    n = grid.n_points
    df = _fd.derivative_array(f.values, h, order=1, accuracy=8)
    g = np.arange(0, n, dtype=float)
    tb = g * h
    ta = np.maximum(g - 1.0, 0.0) * h
    one, two = 1.0 - theta, 2.0 - theta
    pow1 = tb ** one - ta ** one
    pow2 = tb ** two - ta ** two
    # cell [t_j, t_{j+1}] contributes A(g) f'_j + B(g) f'_{j+1}, g = i - j >= 1
    A = (pow2 / two - ta * pow1 / one) / h
    B = (tb * pow1 / one - pow2 / two) / h
    A[0] = 0.0
    B_shift = np.empty_like(B)
    B_shift[:-1] = B[1:]  # B(g'+1) aligned to the source index of f'_{j+1}
    B_shift[-1] = 0.0
    df_b = df.copy()
    df_b[0] = 0.0  # f'(0) feeds only the left endpoint of the first cell
    out = (full_convolve(A[:, None], df)[:n]
           + full_convolve(B_shift[:, None], df_b)[:n])
    return GridFunction(grid, out / special.gamma(one))


def domain_norm_ratio(op: HalfLineOperator, theta: float, f: GridFunction,
                      coeffs: ReflectionCoefficients | None = None) -> float:
    """(||f||_{L^p(w)} + ||A^theta f||_{L^p(w)}) / N(f).

    N(f) is the order-theta smoothness norm of the zero extension (Dirichlet
    branch; legitimate for compactly supported f with zero trace) or the
    reflection-extension upper bound of the restricted-space norm (minus
    branch).  theta = 1 is allowed and uses A f directly.
    """
    w = op.weight
    if theta == 1.0:
        a_part = op.apply(f)
    else:
        a_part = fractional_power(op, theta, f)
    numer = weighted_lp_norm(f, op.p, w) + weighted_lp_norm(a_part, op.p, w)
    if op.variant == DIRICHLET:
        denom = hsp_norm(zero_extend(f), theta, op.p, w)
    else:
        denom = factor_norm_upper(f, theta, op.p, op.gamma, coeffs)
    if denom == 0.0:
        raise ValueError("vanishing input")
    return numer / denom


def _endpoint_corrected_pairing(u: GridFunction, v: GridFunction) -> complex:
    """Half-line pairing with Euler-Maclaurin corrections at t = 0.

    integral g ~ h (g_0/2 + sum g_i) + h^2/12 g'(0) - h^4/720 g'''(0)
    + h^6/30240 g^(5)(0), with one-sided difference estimates of the
    derivatives; needed because the plain trapezoid carries an O(h^2)
    boundary error whenever g(0) != 0.
    """
    g = np.sum(u.values * np.conj(v.values), axis=1)
    h = u.grid.h
    base = h * (0.5 * g[0] + np.sum(g[1:]))
    d1 = _fd.derivative_at(g, h, 0, 1, accuracy=8, one_sided="right")
    d3 = _fd.derivative_at(g, h, 0, 3, accuracy=8, one_sided="right")
    d5 = _fd.derivative_at(g, h, 0, 5, accuracy=6, one_sided="right")
    return complex(base + h ** 2 / 12.0 * d1 - h ** 4 / 720.0 * d3
                   + h ** 6 / 30240.0 * d5)


def integration_by_parts_check(u: GridFunction, v: GridFunction) -> float:
    """Residual |<u', v> + u(0) conj(v(0)) + <u, v'>| on the half line.

    Derivatives are 8th-order local differences and the pairings carry
    endpoint corrections, so the residual reflects the identity rather than
    boundary quadrature error.
    """
    if u.grid != v.grid or u.fiber_dim != v.fiber_dim:
        raise ValueError("u and v must share grid and fiber dimension")
    du = GridFunction(u.grid, _fd.derivative_array(u.values, u.grid.h, 1, 8))
    dv = GridFunction(v.grid, _fd.derivative_array(v.values, v.grid.h, 1, 8))
    boundary = complex(np.sum(u.values[0] * np.conj(v.values[0])))
    total = (_endpoint_corrected_pairing(du, v) + boundary
             + _endpoint_corrected_pairing(u, dv))
    return abs(total)
