"""Coulomb potential of a radial density by Newton's theorem.

A spherical shell acts like a point charge from outside; 3D fields go
through the grid Poisson solve in `poisson`.
"""

from __future__ import annotations

import numpy as np

from .grids import GridError, RadialGrid


def radial_hartree_potential(grid: RadialGrid, f: np.ndarray) -> np.ndarray:
    """(f * |x|^-1)(r) for a spherically symmetric f on grid, by Newton's theorem."""
    if not isinstance(grid, RadialGrid):
        raise GridError("radial grid expected")
    r = grid.nodes
    contrib = grid.weights * f  # per-node charge
    inner = np.cumsum(contrib)  # charge within r (inclusive)
    # potential from shells outside r: sum of charge/shell-radius
    outer = np.cumsum((contrib / r)[::-1])[::-1] - contrib / r
    return inner / r + outer
