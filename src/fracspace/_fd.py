"""Finite-difference weights on arbitrary nodes (Fornberg's recursion), a
derivative of any order at one node (traces, endpoint corrections), and the
order-8 first derivative at every node (boundary-safe differentiation).

Every stencil sits on consecutive grid nodes, so its weights depend only on
(h, first offset, node count, order).  ``_stencil`` builds each such row once
in a small bounded cache of read-only arrays; the nodes are the same floats
as a per-call build, so the derivatives are bit-identical to one.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def fd_weights(nodes: np.ndarray, max_order: int) -> np.ndarray:
    """Weights w[k, j] with sum_j w[k, j] f(nodes[j]) ~ f^(k)(0), k = 0..max_order."""
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    if max_order >= n:
        raise ValueError("need more nodes than the requested derivative order")
    c = np.zeros((max_order + 1, n))
    c1 = 1.0
    c4 = nodes[0]
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, max_order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i]
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[k, i] = c1 * (k * c[k - 1, i - 1] - c5 * c[k, i - 1]) / c2
                c[0, i] = -c1 * c5 * c[0, i - 1] / c2
            for k in range(mn, 0, -1):
                c[k, j] = (c4 * c[k, j] - k * c[k - 1, j]) / c3
            c[0, j] = c4 * c[0, j] / c3
        c1 = c2
    return c


@lru_cache(maxsize=128)
def _stencil(h: float, first: int, count: int, order: int) -> np.ndarray:
    """Read-only weights of f^(order)(0) on the nodes (first + j) h, j < count."""
    w = fd_weights((np.arange(count) + first) * h, order)[order]
    w.flags.writeable = False
    return w


def derivative_at(values: np.ndarray, h: float, index: int, order: int,
                  accuracy: int, one_sided: str | None = None) -> np.ndarray:
    """f^(order) at node ``index`` from samples, to the given accuracy order.

    values has shape (N,) or (N, n), the result is a scalar or has shape
    (n,); one_sided='right' forces a stencil entirely to the right of the
    node and raises ValueError when that stencil runs past the end.  A
    centered stencil (one_sided=None) is shifted inward near the ends; any
    other one_sided raises ValueError.
    """
    if one_sided not in (None, "right"):
        raise ValueError(f"one_sided must be None or 'right', got {one_sided!r}")
    n_pts = order + accuracy
    n = values.shape[0]
    if n < n_pts:
        raise ValueError(f"the stencil needs {n_pts} nodes, got {n}")
    if one_sided == "right":
        lo = index
    else:
        lo = max(0, min(index - n_pts // 2, n - n_pts))
    if lo < 0 or lo + n_pts > n:
        raise ValueError(f"the {one_sided}-sided stencil of {n_pts} nodes at "
                         f"index {index} does not fit in {n} samples")
    w = _stencil(h, lo - index, n_pts, order)
    return w @ values[lo: lo + n_pts]


def derivative_array(values: np.ndarray, h: float) -> np.ndarray:
    """First derivative of values of shape (N, n) at every node, to order 8,
    by 9-node stencils: centered, shifted one-sided at the 4 nodes nearest
    each end.  Local and therefore safe for functions that have not decayed
    at the grid boundary, unlike spectral differentiation on a periodized domain.
    """
    n_pts, half = 9, 4
    n = values.shape[0]
    out = np.empty_like(np.asarray(values, dtype=complex))
    # interior: one centered stencil, applied by correlation
    w = _stencil(h, -half, n_pts, 1)
    interior = np.zeros((n - 2 * half, values.shape[1]), dtype=complex)
    for j, wj in enumerate(w):
        if wj != 0.0:
            interior += wj * values[j: j + n - 2 * half]
    out[half: n - half] = interior
    # ends: shifted stencils of the same length
    for i in range(half):
        out[i] = _stencil(h, -i, n_pts, 1) @ values[:n_pts]
        out[n - 1 - i] = _stencil(h, i + 1 - n_pts, n_pts, 1) @ values[n - n_pts:]
    return out
