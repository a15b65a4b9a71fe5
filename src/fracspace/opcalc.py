"""Realizations of +-d/dt on the weighted half line: explicit resolvents,
sectoriality probes, fractional powers by the real-axis (Balakrishnan)
integral, the causal fractional-derivative oracle, and the domain-norm
comparison behind the fractional-domain characterization.

Every discrete resolvent is a one-pole recursion over the grid, i.e. a
unit lower-bidiagonal system (I - E S) u = r with a two-tap right-hand side
r whose taps come from ``_taps``; the taps do not depend on the variant.
``_resolvent_map`` is the one resolvent map: it alone decides, per variant,
the data reversal and the zero start, forms r and solves the system with
one LAPACK banded triangular solve, and serves both variants and both
adjoints (the adjoint solves with the conjugate-transposed band).  The
Balakrishnan quadrature is a fixed sum of such recursions, hence one linear
time-invariant filter on the grid, applied as ``_conv.convolve`` with a
kernel spectrum of size 2N (the linear convolution).  Every operand of that
filter that does not depend on the data is built once per key in a small
bounded cache of read-only arrays, bit for bit what a per-call build gives:

- ``_grid_tables`` per (h, N), shared by every theta: the trapezoid nodes,
  their taps and the powers E^k of each node as E^(qB) E^j with
  B ~ sqrt(N) (the table of E^j and the block starts E^(qB)); 4 entries,
  at most 3.3 MB each at N = 2^16;
- ``_balakrishnan_kernel`` per (h, N, theta), for both variants: the
  half spectrum of the impulse response and the Dirichlet zero-start row,
  from one two-row matrix product per block q; 16 entries of about 24 N
  bytes (1.6 MB at N = 2^16);
- ``_causal_weights`` per (h, N, theta), for ``riemann_liouville``: the
  half spectrum of its product-integration weights, the zero-start column
  and Gamma(1 - theta); 4 entries of about 24 N bytes.

So the kept operands take at most 13 + 25 + 6.3 MB at N = 2^16, and
3.3 + 1.6 + 0.4 MB at N = 2^12.  The log-lambda trapezoid carries its
step^2/12 end correction, so at theta in [0.25, 0.75] the quadrature error
is below the rounding of the sum.  The finite-difference stencils that
``HalfLineOperator.apply``, ``riemann_liouville`` and the endpoint-corrected
pairing apply are built once per grid spacing in ``_fd``; everything else
evaluates per call.  ``riemann_liouville`` shares no code with the
Balakrishnan kernel, so the two stay independent representations; both
differentiate through ``_fd`` and convolve through ``_conv``, which depend
only on the grid.
Likewise the p = 2 sector norms come from a tridiagonal pencil assembled
from the taps and the cell weights alone (``_pencil_norm``): bisection on
the inertia that one LDL^T factorization reveals finds its root, and two
more factorizations certify a bracket of relative half width 1e-6.  The
power iteration through ``_resolvent_map`` is their independent lower
bound.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special
from scipy.linalg import lapack

from . import _conv, _fd
from .grid import (
    GridFunction,
    HALF_LINE,
    PowerWeight,
    _require_kind,
    check_compatible,
    weighted_lp_norm,
)
from .fourier import hsp_norm
from .halfline import factor_norm_upper, zero_extend

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
        dv = _fd.derivative_array(f.values, f.grid.h)
        return GridFunction(f.grid, sign * dv)


# Taylor coefficients, k = 13 .. 0 and 15 .. 0 for Horner, of
# phi2(z) = (e^z - 1 - z)/z^2 = sum z^k/(k+2)! and
# psi(z) = (1 + e^z (z - 1))/z^2 = sum (k+1) z^k/(k+2)!
_PHI2_SERIES = tuple(1.0 / math.factorial(k + 2) for k in range(13, -1, -1))
_PSI_SERIES = tuple((k + 1.0) / math.factorial(k + 2) for k in range(15, -1, -1))


def _horner(coefficients, z):
    value = 0.0
    for c in coefficients:
        value = value * z + c
    return value


def _taps(lam, h: float):
    """(E, b0, b1) of the one-cell step u_k = E u_{k-1} + b0 f_k + b1 f_{k-1},
    which solves u' + lam u = f exactly for f linear on the cell.

    E = e^{-lam h}, b0 = integral_0^h e^{-lam tau} (1 - tau/h) dtau
    = h phi2(-lam h) and b1 = integral_0^h e^{-lam tau} tau/h dtau
    = h psi(-lam h).  phi2 and psi come from their Taylor series for
    |lam h| < 1/2, where the closed forms cancel, so b0 and b1 are accurate
    to a few ulps at every |lam h|.  ``lam`` is a scalar or an array (the
    taps are elementwise).
    """
    z = -lam * h
    small = abs(z) < 0.5
    zs = z * small  # the series argument: z where small, else 0
    em1 = np.expm1(z)  # E - 1
    # z * z + small keeps the discarded branches away from 0 / 0
    zz = z * z + small
    phi2 = np.where(small, _horner(_PHI2_SERIES, zs), (em1 - z) / zz)[()]
    psi = np.where(small, _horner(_PSI_SERIES, zs), (1.0 + np.exp(z) * (z - 1.0)) / zz)[()]
    return 1.0 + em1, h * phi2, h * psi


def _resolvent_map(variant: str, taps: tuple, values: np.ndarray,
                   adjoint: bool = False) -> np.ndarray:
    """Column-wise discrete (lam + A)^{-1}, or its conjugate transpose, given
    the taps (E, b0, b1) = ``_taps(lam, h)``.

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
    E, b0, b1 = taps
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
    _require_kind(f, HALF_LINE, "resolvent")
    if lam.real <= 0:
        raise ValueError(f"need Re(lambda) > 0, got {lam}")
    return GridFunction(f.grid, _resolvent_map(op.variant, _taps(lam, f.grid.h), f.values))


@dataclass(frozen=True)
class SectorProbe:
    """Resolvent-norm estimates over the sector complementary to ``angle``.

    ``angle`` is the sectoriality type being probed: lambda ranges over the
    sector |arg lambda| <= pi - angle.  Entries whose lambda leaves the open
    right half plane (the actual resolvent set) are reported as infinite.
    For p = 2 each entry also records the certificate of its value:
    ``bracket`` (lower and upper end of the norm, from two LDL^T
    factorizations of the shifted tridiagonal pencil), ``certified`` (both
    agree with the bracket), ``steps`` (the LDL^T factorizations of the
    bisection that found the value) and ``power_lower``, the independent
    matrix-free lower bound, which never exceeds the bracket's upper end.
    All four are None for the entries without that certificate.
    """

    variant: str
    p: float
    gamma: float
    angle: float
    entries: tuple = field(default_factory=tuple)


# power-iteration steps of the matrix-free lower bound
_POWER_STEPS = 20
# relative half width of the certified bracket on sigma^2
_PENCIL_DELTA = 1e-6
# cap on the LDL^T factorizations of the pencil root's search: 52 bisections
# within the root's binade after the doubling or halving that finds it, so
# 54-65 in all on the probed sector
_PENCIL_STEPS = 100


def _op_norm_singular_value(op: HalfLineOperator, lam: complex, grid) -> float:
    """Lower bound for the largest singular value of lam (lam+A)^{-1} on L^2(w_gamma).

    A fixed number of power-iteration steps on the weight-conjugated discrete
    map; conjugating by the square root of the cell weights makes the
    L^2(w) norm Euclidean.  Every iterate ||M v|| with ||v|| = 1 is a lower
    bound, so no convergence test is needed: this is the matrix-free side of
    the cross-check against ``_pencil_norm``.
    """
    taps = _taps(lam, grid.h)
    sq = np.sqrt(grid.cell_weights(op.gamma))[:, None]
    rng = np.random.default_rng(1234)
    v = rng.standard_normal((grid.n_points, 1)) + 1j * rng.standard_normal((grid.n_points, 1))
    v /= np.linalg.norm(v)
    for _ in range(_POWER_STEPS):
        w_ = lam * (sq * _resolvent_map(op.variant, taps, v / sq))
        est = float(np.linalg.norm(w_))
        v = np.conj(lam) * (_resolvent_map(op.variant, taps, sq * w_, adjoint=True) / sq)
        v /= np.linalg.norm(v)
    return est


def _negative_definite(d: np.ndarray, e: np.ndarray) -> bool:
    """Whether the real symmetric tridiagonal with diagonal d and off-diagonal
    e is negative definite: the LDL^T factorization of its negation (LAPACK
    ``dpttrf``) finds no pivot <= 0."""
    return lapack.dpttrf(-d, e)[2] == 0


def _pencil_norm(op: HalfLineOperator, lam: complex,
                 grid) -> tuple[float, tuple[float, float], bool, int]:
    """sigma_max(M)^2 for M = lam S^{1/2} L^{-1} P R S^{-1/2}, as
    (value, bracket, certified, steps).

    S = diag(cell weights) (reversed for the minus variant), and L, R, P are
    the factors of ``_resolvent_map``.  sigma_max(M)^2 is the largest
    eigenvalue of the Hermitian tridiagonal pencil (G, B) with
    G = |lam|^2 P R S^{-1} R^H P and B = L S^{-1} L^H (positive definite);
    both are taken here after the congruence by S^{1/2}, which keeps the
    eigenvalues and the inertia and puts B's diagonal near 1.  By
    Sylvester's law of inertia G - mu B is negative definite exactly when
    no pencil eigenvalue lies at or above mu, and one LDL^T factorization
    decides that (``_negative_definite``, on the real tridiagonal with the
    moduli of the off-diagonal, which has the same eigenvalues).  That test
    alone finds the root, by bisection on the inertia (Barth, Martin and
    Wilkinson, Numer. Math. 9, 1967): mu doubles from 1 until the test
    holds, halves until it fails, and then bisects until the end where it
    fails and the end where it holds are adjacent floats.  The value is the
    lower end.  Two more factorizations certify the bracket
    value (1 -+ _PENCIL_DELTA): one fails at the lower end, the other
    succeeds at the upper end.  The certificate is exact for the assembled
    entries.  ``steps`` counts the factorizations of the search, at most
    ``_PENCIL_STEPS``.  Measured at N = 65536, gamma = 0.5 (Dirichlet, the
    33 entries of the suite's sector): all certify, in 54-63 steps.
    """
    E, b0, b1 = _taps(lam, grid.h)
    cw = grid.cell_weights(op.gamma)
    if op.variant == MINUS:
        cw = cw[::-1]
    q = cw[1:] / cw[:-1]
    rq = np.sqrt(q)
    lam2 = abs(lam) ** 2
    g_diag = np.full(cw.size, lam2 * abs(b0) ** 2)
    g_diag[1:] += lam2 * abs(b1) ** 2 * q
    g_off = lam2 * b1 * np.conj(b0) * rq  # entries (k, k-1)
    if op.variant == DIRICHLET:
        g_diag[0] = 0.0
        g_off[0] = 0.0
    b_diag = np.ones(cw.size)
    b_diag[1:] += abs(E) ** 2 * q
    b_off = -E * rq

    def below(mu):
        return _negative_definite(g_diag - mu * b_diag, np.abs(g_off - mu * b_off))

    # the root lies in [lo, hi): the test fails at lo (G is not negative
    # definite, so it fails at 0) and holds at hi.  mu doubles until hi is
    # found, halves until lo is, then bisects
    lo, hi, mu, steps = 0.0, math.inf, 1.0, 0
    while steps < _PENCIL_STEPS and lo < mu < hi:
        steps += 1
        if below(mu):
            hi = mu
        else:
            lo = mu
        mu = 2.0 * lo if hi == math.inf else 0.5 * hi if lo == 0.0 else 0.5 * (lo + hi)
    bracket = (lo * (1.0 - _PENCIL_DELTA), lo * (1.0 + _PENCIL_DELTA))
    certified = not below(bracket[0]) and below(bracket[1])
    return lo, bracket, certified, steps


def _certified_entry(op: HalfLineOperator, lam: complex, grid) -> dict:
    """The p = 2 entry fields: the pencil value, its certificate and the power bound."""
    value, (lo, hi), certified, steps = _pencil_norm(op, lam, grid)
    return {"norm_estimate": math.sqrt(value), "method": "singular-value",
            "bracket": [math.sqrt(lo), math.sqrt(hi)], "steps": steps,
            "power_lower": _op_norm_singular_value(op, lam, grid),
            "certified": certified}


def sectoriality_probe(op: HalfLineOperator, grid, angles, radii) -> list[SectorProbe]:
    """Estimate sup ||lam (lam+A)^{-1}|| over lam in the sector of each probed angle.

    For p = 2 each value is the largest singular value of the
    weight-conjugated discrete map, the root of the tridiagonal pencil of
    ``_pencil_norm`` inside a certified bracket, with the power-iteration
    lower bound of ``_op_norm_singular_value`` recorded beside it.  Other p
    are rejected: no estimator here bounds their L^p norm from both sides.
    So are radii that are not finite and positive, and angles outside
    (0, pi).

    Only arguments 0 <= arg lam <= pi - angle are probed: A = +-d/dt and the
    cell weights are real, so the discrete map at conj(lam) is the complex
    conjugate of the map at lam and has the same norm; its pencil has the
    same diagonals and conjugate off-diagonals, whose moduli are all that
    the factorizations read, hence the same value, bracket and steps.
    """
    if op.p != 2.0:
        raise ValueError(f"sector probes need p = 2, got p = {op.p}")
    probes = []
    radii = np.asarray(list(radii), dtype=float)
    if not np.all(np.isfinite(radii) & (radii > 0.0)):
        raise ValueError(f"radii must be finite and positive, got {radii.tolist()}")
    no_certificate = dict.fromkeys(("bracket", "steps", "power_lower", "certified"))
    for a in angles:
        if not 0.0 < a < math.pi:
            raise ValueError(f"angle must lie in (0, pi), got {a}")
        phi_max = math.pi - a
        entries = []
        for phi in {0.0, 0.5 * phi_max, phi_max}:
            for r in radii:
                lam = r * cmath.exp(1j * phi)
                if lam.real <= 0.0:
                    fields = {"norm_estimate": math.inf,
                              "method": "outside-resolvent-set", **no_certificate}
                else:
                    fields = _certified_entry(op, lam, grid)
                entries.append({"re_lambda": lam.real, "im_lambda": lam.imag, **fields})
        probes.append(SectorProbe(op.variant, op.p, op.gamma, a, tuple(entries)))
    return probes


def _check_theta(theta: float) -> None:
    """Raise ValueError unless theta lies in (0, 1), the order range of A^theta."""
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")


def check_domain_theta(theta: float) -> None:
    """Raise ValueError unless 0 < theta <= 1, the orders ``domain_norm_ratio`` takes."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")


# log-lambda trapezoid of the Balakrishnan integral: lam = e^u, |u| <= _U_RANGE.
# The step sets the interior error, about e^{-pi^2/_U_STEP} since the integrand
# is analytic for |Im u| < pi/2: 5e-22 at 0.2.  The range sets the end error.
# The closed-form tails hold to e^{-_U_RANGE}, and ``fractional_power``
# subtracts the trapezoid's own end error (step^2/12) g'(u) at both cuts; what
# is left, (theta step)^4/(720 theta) e^{-theta _U_RANGE} of ||f|| at the small
# end and the same in 1 - theta and ||A f|| at the large end, is below 1e-16 for
# 0.25 <= theta <= 0.75 at range 80 (801 nodes).
_U_RANGE = 80.0
_U_STEP = 0.2
# e^{-lam h k} below e^-700 is dropped from the kernel (subnormal slow paths)
_DECAY_CUTOFF = 700.0


def _power_tables(log_e: np.ndarray, n: int) -> tuple[np.ndarray, tuple]:
    """(table, starts) of the powers E_i^k, k = 0 .. n-2, E_i = exp(log_e[i])
    with log_e non-increasing (lambdas ascending), in blocks of
    B = ceil(sqrt(n - 1)) from E^(qB + j) = E^(qB) E^j (read-only).

    table[i, j] = E_i^j for j < B; starts[q] = E_i^(qB) over the live prefix
    of nodes i, those with E_i^(qB) at or above e^-_DECAY_CUTOFF (all nodes for
    q = 0).  Table entries below the cutoff are 0; since log_e does not
    increase, the live nodes of a block are a prefix.
    """
    m = n - 1  # number of powers
    b = math.isqrt(m - 1) + 1
    table = np.empty((log_e.size, b))
    table[:, 0] = 1.0  # E^0 = 1, also where E = 0
    powers = table[:, 1:]
    np.multiply(log_e[:, None], np.arange(1.0, b), out=powers)
    powers[powers < -_DECAY_CUTOFF] = -np.inf
    np.exp(powers, out=powers)
    starts = [np.ones(log_e.size)]
    for start in range(b, m, b):
        log_start = start * log_e
        live = int(np.count_nonzero(log_start >= -_DECAY_CUTOFF))
        starts.append(np.exp(log_start[:live]))
    for array in (table, *starts):
        array.flags.writeable = False
    return table, tuple(starts)


def _exponential_sums(first: np.ndarray, rate: np.ndarray, tables: tuple,
                      n: int) -> np.ndarray:
    """Rows out[r, k] = sum_i first[r, i] (k = 0), sum_i rate[r, i] E_i^(k-1) (k >= 1),
    with the powers of E from ``_power_tables(log_e, n)``: per block q, one
    two-row product of the rates scaled by E^(qB) with the table.
    """
    table, starts = tables
    out = np.zeros((first.shape[0], n))
    out[:, 0] = first.sum(axis=1)
    m, b = n - 1, table.shape[1]
    for start, scale in zip(range(0, m, b), starts):
        live, width = scale.size, min(b, m - start)
        out[:, 1 + start:1 + start + width] = (rate[:, :live] * scale) @ table[:live, :width]
    return out


@functools.lru_cache(maxsize=4)
def _grid_tables(h: float, n: int) -> tuple:
    """(lam, (E, b0, b1), power tables) of the trapezoid nodes on a grid of
    spacing h and n nodes (read-only).

    Nothing here depends on theta, so every order on one grid shares it.  The
    power tables of ``_power_tables`` hold about (B + the live block starts)
    floats per node, at most 2 B, with B = ceil(sqrt(n - 1)): up to 3.3 MB at
    n = 2^16, 0.8 MB at 2^12, so the four kept grids take at most 13 MB.
    """
    us = np.arange(-_U_RANGE, _U_RANGE + 1e-12, _U_STEP)
    lam = np.exp(us)
    taps = _taps(lam, h)  # real, since lam is
    with np.errstate(divide="ignore"):  # E = 0 once lam h passes ~37
        log_e = np.log(taps[0])
    for array in (lam, *taps):
        array.flags.writeable = False
    return lam, taps, _power_tables(log_e, n)


@functools.lru_cache(maxsize=16)
def _balakrishnan_kernel(h: float, n: int, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """(spectrum of row 0, row 1) of the impulse responses of the log-lambda
    trapezoid sum of resolvents (read-only).

    With c_lam the trapezoid weight times lam^theta, row 0 is
    sum_lam c_lam g_lam, where g_lam is the impulse response of one
    recursion with the taps (E, b0, b1) of ``_taps``: g[0] = b0,
    g[k] = (E b0 + b1) E^(k-1).  Both variants apply it, the minus variant
    to reversed data, so it is kept as its ``_conv.spectrum`` at size 2n (a
    half spectrum of n + 1 rows).
    Row 1, sum_lam c_lam b0 E^k, kept as an (n, 1) column, is the response
    to f_0 that the zero initial value of the Dirichlet variant removes.  Both rows
    come from the taps and the trapezoid weights alone, summed by
    ``_exponential_sums`` over the shared ``_grid_tables`` of the grid, so a
    new theta on a known grid takes only the block products.  An entry takes
    about 24 n bytes (1.6 MB at n = 2^16).
    """
    lam, (E, b0, b1), tables = _grid_tables(h, n)
    c = np.full(lam.size, _U_STEP)
    c[[0, -1]] *= 0.5
    c *= lam ** theta
    first = c * b0
    rows = _exponential_sums(np.stack([first, first]),
                             np.stack([c * (E * b0 + b1), first * E]), tables, n)
    row1 = rows[1][:, None].copy()
    row1.flags.writeable = False
    return _conv.spectrum(rows[0][:, None], 2 * n), row1


def fractional_power(op: HalfLineOperator, theta: float, f: GridFunction) -> GridFunction:
    """A^theta f by the real-axis integral

        (sin(pi theta)/pi) * integral_0^inf lam^(theta-1) (lam+A)^{-1} A f dlam,

    computed on lam = e^u with trapezoid steps plus closed-form corrections for
    both truncated ends (from (lam+A)^{-1}Af = f - lam (lam+A)^{-1} f at the
    small end and = Af/lam - (lam+A)^{-1} A^2 f / lam at the large end).  The
    trapezoid sum of discrete resolvents is applied as one cached convolution
    kernel (see ``_balakrishnan_kernel``).  The trapezoid's end error,
    (step^2/12) (g'(range) - g'(-range)) for the integrand g(u), is taken out
    with g' from the same end forms: theta e^{theta u} f at the small end and
    (theta - 1) e^{(theta - 1) u} A f at the large end.
    """
    _check_theta(theta)
    _require_kind(f, HALF_LINE, "fractional_power")
    if op.variant == DIRICHLET:
        scale = float(np.max(np.abs(f.values))) or 1.0
        if float(np.max(np.abs(f.values[0]))) > 1e-8 * scale:
            raise ValueError("input violates the zero boundary value of the domain")
    af = op.apply(f)
    spectrum, row1 = _balakrishnan_kernel(f.grid.h, f.grid.n_points, theta)
    if op.variant == DIRICHLET:
        acc = _conv.convolve(spectrum, af.values)
        acc -= row1 * af.values[0][None, :]
    else:
        acc = _conv.convolve(spectrum, af.values[::-1])[::-1]
    eps_end = math.exp(-_U_RANGE)
    big_end = math.exp(_U_RANGE)
    end = _U_STEP ** 2 / 12.0
    acc += eps_end ** theta * (1.0 / theta + end * theta) * f.values
    acc += big_end ** (theta - 1.0) * (1.0 / (1.0 - theta) + end * (1.0 - theta)) * af.values
    return GridFunction(f.grid, (math.sin(math.pi * theta) / math.pi) * acc)


@functools.lru_cache(maxsize=4)
def _causal_weights(h: float, n: int, theta: float) -> tuple:
    """(spectrum of A + B_shift at size 2n, B_shift, Gamma(1 - theta)) of
    ``riemann_liouville`` on a grid of spacing h and n nodes (read-only; the
    weights as (n, 1) columns).

    Cell [t_j, t_{j+1}] contributes A(g) f'_j + B(g) f'_{j+1} to node i,
    g = i - j >= 1; B_shift[g'] = B(g' + 1) aligns B to the source index of
    f'_{j+1}.  An entry takes about 24 n bytes (1.6 MB at n = 2^16).
    """
    g = np.arange(0, n, dtype=float)
    tb = g * h
    ta = np.maximum(g - 1.0, 0.0) * h
    one, two = 1.0 - theta, 2.0 - theta
    pow1 = tb ** one - ta ** one
    pow2 = tb ** two - ta ** two
    A = (pow2 / two - ta * pow1 / one) / h
    B = (tb * pow1 / one - pow2 / two) / h
    A[0] = 0.0
    B_shift = np.empty_like(B)
    B_shift[:-1] = B[1:]
    B_shift[-1] = 0.0
    shift = B_shift[:, None]
    shift.flags.writeable = False
    return _conv.spectrum((A + B_shift)[:, None], 2 * n), shift, special.gamma(one)


def riemann_liouville(f: GridFunction, theta: float) -> GridFunction:
    """Causal fractional derivative of order theta in (0, 1) for f with f(0) = 0.

    Evaluated in the equivalent integrated form (valid exactly when f(0) = 0)

        (1/Gamma(1-theta)) * integral_0^t (t-s)^{-theta} f'(s) ds,

    with f' by 8th-order local differences and the weakly singular convolution
    by product integration that is exact for piecewise-linear f', whose
    weights ``_causal_weights`` keeps per (h, N, theta).
    """
    _check_theta(theta)
    _require_kind(f, HALF_LINE, "riemann_liouville")
    weights, shift, gamma = _causal_weights(f.grid.h, f.grid.n_points, theta)
    df = _fd.derivative_array(f.values, f.grid.h)
    # f'(0) feeds only the left endpoint of the first cell, so its B_shift
    # term (the one zero-start correction) is taken back out
    out = _conv.convolve(weights, df) - shift * df[0][None, :]
    return GridFunction(f.grid, out / gamma)


def domain_norm_ratio(op: HalfLineOperator, theta: float, f: GridFunction) -> float:
    """(||f||_{L^p(w)} + ||A^theta f||_{L^p(w)}) / N(f).

    N(f) is the order-theta smoothness norm of the zero extension (Dirichlet
    branch; legitimate for compactly supported f with zero trace) or the
    reflection-extension upper bound of the restricted-space norm (minus
    branch).  theta = 1 is allowed and uses A f directly.
    """
    check_domain_theta(theta)
    w = op.weight
    if theta == 1.0:
        a_part = op.apply(f)
    else:
        a_part = fractional_power(op, theta, f)
    numer = weighted_lp_norm(f, op.p, w) + weighted_lp_norm(a_part, op.p, w)
    if op.variant == DIRICHLET:
        denom = hsp_norm(zero_extend(f), theta, op.p, w)
    else:
        denom = factor_norm_upper(f, theta, op.p, op.gamma)
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
    check_compatible(u, v)
    du = GridFunction(u.grid, _fd.derivative_array(u.values, u.grid.h))
    dv = GridFunction(v.grid, _fd.derivative_array(v.values, v.grid.h))
    boundary = complex(np.sum(u.values[0] * np.conj(v.values[0])))
    total = (_endpoint_corrected_pairing(du, v) + boundary
             + _endpoint_corrected_pairing(u, dv))
    return abs(total)
