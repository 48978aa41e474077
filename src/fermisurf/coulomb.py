"""Coulomb energies D(f, g) = 1/2 iint f(x) g(y) / |x - y|.

3D fields go through the grid Poisson solve; radial fields use Newton's
theorem (a spherical shell acts like a point charge from outside).
"""

from __future__ import annotations

import numpy as np

from .grids import GridError, RadialGrid, ScalarField
from .poisson import poisson_solve


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


def coulomb_energy(f: ScalarField, g: ScalarField) -> float:
    """D(f, g) in Hartree. Fields must share a grid."""
    if not f.same_grid(g):
        raise GridError("coulomb_energy needs both fields on the same grid")
    grid = f.grid
    if isinstance(grid, RadialGrid):
        u = radial_hartree_potential(g)
        return 0.5 * grid.integrate(f.values * u)
    u = poisson_solve(ScalarField(grid=grid, values=g.values))
    return 0.5 * grid.integrate(f.values * u.values)
