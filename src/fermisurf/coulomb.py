"""Coulomb potential of a radial density by Newton's theorem.

A spherical shell acts like a point charge from outside; 3D fields go
through the grid Poisson solve in `poisson`.
"""

from __future__ import annotations

import numpy as np

from .grids import GridError, RadialGrid, ScalarField


def radial_hartree_potential(field: ScalarField) -> np.ndarray:
    """(f * |x|^-1)(r) for a spherically symmetric f, by Newton's theorem."""
    grid = field.grid
    if not isinstance(grid, RadialGrid):
        raise GridError("radial field expected")
    r = grid.nodes
    contrib = grid.weights * field.values  # per-node charge
    inner = np.cumsum(contrib)  # charge within r (inclusive)
    # potential from shells outside r: sum of charge/shell-radius
    outer = np.cumsum((contrib / r)[::-1])[::-1] - contrib / r
    return inner / r + outer
