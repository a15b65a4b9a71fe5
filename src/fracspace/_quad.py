"""Fixed-order quadrature rules for the package's constants: the cosine
transforms behind c_sigma and the Bessel-kernel check, the power integrals of
the Schur test, and integrals over logarithmic ranges (kernel shells and
masses).

Every rule takes Gauss nodes from ``scipy.special`` (the Golub-Welsch
construction) and evaluates its integrand once, on the array of all its
nodes; none adapts, so each costs a fixed number of evaluations.  The rules
know nothing of the integrands they are given, so a closed form checked
against one of them stays an independent side.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

# Gauss-Legendre order of every panel
_NODES, _WEIGHTS = special.roots_legendre(24)
# Gauss-Jacobi order: its error on 1/(1 + z) is below 1e-18; higher orders
# lose digits to the computed nodes near the singular end
_JACOBI_ORDER = 12
# half-periods of the cosine whose integrals the Levin u-transform sums
_HALF_PERIODS = 24
# each half-period integral must be below this fraction of the one before
_SHRINK = 1.0 - 1e-12
# the last two accelerated estimates must agree to this fraction of the sum
# of the half-period integrals' magnitudes
_CERTIFICATE = 1e-13


def _legendre(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rule on each panel
    [edges[i], edges[i + 1]], one row per panel."""
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    return lo + half * (1.0 + _NODES), half * _WEIGHTS


def _levin_u(terms: np.ndarray) -> float:
    """Levin's u-transform (beta = 1) of the series sum_j terms[j], of the
    highest order that ``terms`` supports (Levin, Int. J. Comput. Math. B 3,
    1973): the partial sums weighted against the remainder estimates
    (j + 1) terms[j]."""
    k = len(terms) - 1
    j = np.arange(k + 1)
    weights = ((-1.0) ** j * special.comb(k, j) * ((1.0 + j) / (1.0 + k)) ** (k - 1)
               / ((1.0 + j) * terms))
    return float(weights @ np.cumsum(terms) / np.sum(weights))


def cos_transform(g, a: float, x: float) -> float:
    """integral_a^inf g(t) cos(x t) dt for x > 0, a >= 0 and g positive and
    strictly decreasing to 0 on [a, inf); g maps an array of points to values.

    The range splits at the zeros of cos(x t).  The first panel, from a to
    the first zero past it, is cut at a 2^k (at 1, 2, 4, ... when a = 0), so
    no piece is longer than max(1, its left end); each piece and
    each of the next ``_HALF_PERIODS`` half-periods take one Gauss-Legendre
    rule.  The half-period integrals alternate in sign and shrink; Levin's
    u-transform sums them.  Certificate: the integrals must alternate and
    shrink (a g that does not decrease would make them repeat), and the last
    two accelerated estimates (all half-periods, and all but the last) must
    agree to ``_CERTIFICATE`` of the sum of their magnitudes.  Otherwise the
    rule raises ArithmeticError rather than return an unconverged value.
    """
    if not (a >= 0.0 and x > 0.0):
        raise ValueError(f"need a >= 0 and x > 0, got a={a}, x={x}")
    period = math.pi / x
    first_zero = (math.ceil(a / period - 0.5) + 0.5) * period
    edges = [a]
    while edges[-1] < first_zero:
        edges.append(min(first_zero, 2.0 * edges[-1] if edges[-1] > 0.0 else 1.0))
    head_t, head_w = _legendre(np.asarray(edges))
    tail_t, tail_w = _legendre(first_zero + period * np.arange(_HALF_PERIODS + 1.0))
    t = np.concatenate((head_t.ravel(), tail_t.ravel()))
    values = g(t) * np.cos(x * t)
    head = float(np.sum(values[:head_t.size] * head_w.ravel()))
    terms = np.sum(values[head_t.size:].reshape(tail_t.shape) * tail_w, axis=1)
    size = np.abs(terms)
    if not (np.all(terms[1:] * terms[:-1] < 0.0) and np.all(size[1:] < _SHRINK * size[:-1])):
        raise ArithmeticError("the half-period integrals do not alternate and shrink: "
                              "g is not decreasing to 0")
    coarse, fine = _levin_u(terms[:-1]), _levin_u(terms)
    if not abs(fine - coarse) <= _CERTIFICATE * float(np.sum(size)):
        raise ArithmeticError(f"the accelerated tail did not converge: estimates "
                              f"{coarse!r} and {fine!r}")
    return head + fine


def power_weighted(f, e: float) -> float:
    """integral_0^1 z^e f(z) dz for e > -1 and f analytic near [0, 1], by
    Gauss-Jacobi with weight z^e (the endpoint power integrated exactly);
    f maps an array of points to values."""
    nodes, weights = special.roots_jacobi(_JACOBI_ORDER, 0.0, e)
    return 2.0 ** (-1.0 - e) * float(weights @ f(0.5 * (1.0 + nodes)))


def log_panels(f, edges: np.ndarray) -> np.ndarray:
    """integral of f over each panel [edges[i], edges[i + 1]] (0 < edges,
    increasing), each by Gauss-Legendre in u = log x, i.e. of f(e^u) e^u du;
    f maps an array of points to values and is evaluated once."""
    u, weights = _legendre(np.log(edges))
    x = np.exp(u)
    return np.sum(f(x) * x * weights, axis=1)
