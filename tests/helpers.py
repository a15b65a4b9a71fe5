"""Shared fixtures for the test modules: the package plateau window, default
grids, and the hypothesis strategies of the grid-level property tests."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from fracspace.grid import FULL_LINE, HALF_LINE, Grid, GridFunction, plateau

# property-test inputs: half width, grid size N (a power of two from 16 to
# 4096), weight exponent gamma in (-1, 2), fiber dimension, and data seed
half_widths = st.floats(0.5, 500.0)
grid_sizes = st.sampled_from([2 ** k for k in range(4, 13)])
gammas = st.floats(-1.0, 2.0, exclude_min=True, exclude_max=True)
fiber_dims = st.integers(1, 3)
seeds = st.integers(0, 2 ** 32 - 1)


def desk_grid(n: int = 4096, kind: str = FULL_LINE, half_width: float = 40.0) -> Grid:
    return Grid(half_width, n, kind)


def windowed(grid: Grid, func, center: float = 0.0, inner: float = 8.0,
             outer: float = 16.0) -> GridFunction:
    x = grid.points
    return GridFunction(grid, func(x) * plateau(x, center, inner, outer))


def random_function(grid: Grid, fiber_dim: int, seed: int) -> GridFunction:
    """Unstructured complex samples: exact identities must hold for any data."""
    rng = np.random.default_rng(seed)
    shape = (grid.n_points, fiber_dim)
    return GridFunction(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
