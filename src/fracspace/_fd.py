"""Finite-difference weights on arbitrary nodes (Fornberg's recursion), a
derivative of any order at one node (traces, endpoint corrections), and the
order-8 first derivative at every node (boundary-safe differentiation).
"""

from __future__ import annotations

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


def derivative_at(values: np.ndarray, h: float, index: int, order: int,
                  accuracy: int, one_sided: str | None = None) -> np.ndarray:
    """f^(order) at node ``index`` from samples, to the given accuracy order.

    values has shape (N,) or (N, n); one_sided forces a stencil entirely to the
    'right' or 'left' of the node and raises ValueError when that stencil
    runs past the ends.  A centered stencil is shifted inward near the ends.
    """
    n_pts = order + accuracy
    n = values.shape[0]
    if n < n_pts:
        raise ValueError(f"the stencil needs {n_pts} nodes, got {n}")
    if one_sided == "right":
        lo = index
    elif one_sided == "left":
        lo = index - n_pts + 1
    else:
        lo = max(0, min(index - n_pts // 2, n - n_pts))
    if lo < 0 or lo + n_pts > n:
        raise ValueError(f"the {one_sided}-sided stencil of {n_pts} nodes at "
                         f"index {index} does not fit in {n} samples")
    offsets = np.arange(lo, lo + n_pts)
    w = fd_weights((offsets - index) * h, order)[order]
    return np.tensordot(w, values[offsets], axes=(0, 0))


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
    w = fd_weights(np.arange(-half, half + 1) * h, 1)[1]
    interior = np.zeros((n - 2 * half, values.shape[1]), dtype=complex)
    for j, wj in enumerate(w):
        if wj != 0.0:
            interior += wj * values[j: j + n - 2 * half]
    out[half: n - half] = interior
    # ends: shifted stencils of the same length
    for i in range(half):
        wl = fd_weights((np.arange(n_pts) - i) * h, 1)[1]
        out[i] = np.tensordot(wl, values[:n_pts], axes=(0, 0))
        wr = fd_weights((np.arange(n - n_pts, n) - (n - 1 - i)) * h, 1)[1]
        out[n - 1 - i] = np.tensordot(wr, values[n - n_pts:], axes=(0, 0))
    return out
