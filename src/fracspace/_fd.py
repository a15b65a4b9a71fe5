"""Finite-difference weights on arbitrary nodes (Fornberg's recursion) and
derivative stencils used by trace evaluation and boundary-safe differentiation.
"""

from __future__ import annotations

import numpy as np


def fd_weights(z: float, nodes: np.ndarray, max_order: int) -> np.ndarray:
    """Weights w[k, j] with sum_j w[k, j] f(nodes[j]) ~ f^(k)(z), k = 0..max_order."""
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    if max_order >= n:
        raise ValueError("need more nodes than the requested derivative order")
    c = np.zeros((max_order + 1, n))
    c1 = 1.0
    c4 = nodes[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, max_order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - z
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
    'right' or 'left' of the node.
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
        lo = index - n_pts // 2
    lo = max(0, min(lo, n - n_pts))
    offsets = np.arange(lo, lo + n_pts)
    w = fd_weights(0.0, (offsets - index) * h, order)[order]
    return np.tensordot(w, values[offsets], axes=(0, 0))


def derivative_array(values: np.ndarray, h: float, order: int = 1,
                     accuracy: int = 8) -> np.ndarray:
    """Derivative at every node by centered stencils, one-sided near the ends.

    Local and therefore safe for functions that have not decayed at the grid
    boundary, unlike spectral differentiation on a periodized domain.
    """
    n_pts = order + accuracy
    if n_pts % 2 == 0:
        n_pts += 1
    half = n_pts // 2
    n = values.shape[0]
    out = np.empty_like(np.asarray(values, dtype=complex))
    # interior: one centered stencil, applied by correlation
    w = fd_weights(0.0, np.arange(-half, half + 1) * h, order)[order]
    flat = values if values.ndim > 1 else values[:, None]
    interior = np.zeros((n - 2 * half, flat.shape[1]), dtype=complex)
    for j, wj in enumerate(w):
        if wj != 0.0:
            interior += wj * flat[j: j + n - 2 * half]
    out_flat = out if out.ndim > 1 else out[:, None]
    out_flat[half: n - half] = interior
    # ends: shifted stencils of the same length
    for i in range(half):
        wl = fd_weights(0.0, (np.arange(n_pts) - i) * h, order)[order]
        out_flat[i] = np.tensordot(wl, flat[:n_pts], axes=(0, 0))
        wr = fd_weights(0.0, (np.arange(n - n_pts, n) - (n - 1 - i)) * h, order)[order]
        out_flat[n - 1 - i] = np.tensordot(wr, flat[n - n_pts:], axes=(0, 0))
    return out if values.ndim > 1 else out_flat[:, 0]
