"""Shared fixtures for the test modules: the package plateau window and default grids."""

from __future__ import annotations

from fracspace.grid import FULL_LINE, HALF_LINE, Grid, GridFunction, plateau


def desk_grid(n: int = 4096, kind: str = FULL_LINE, half_width: float = 40.0) -> Grid:
    return Grid(half_width, n, kind)


def windowed(grid: Grid, func, center: float = 0.0, inner: float = 8.0,
             outer: float = 16.0) -> GridFunction:
    x = grid.points
    return GridFunction(grid, func(x) * plateau(x, center, inner, outer))
