"""Poisson solves on the 3D box: -Laplace(u) = 4 pi * source.

The 7-point stencil system with Dirichlet boundary data is solved directly
by diagonalizing the stencil with the orthonormal type-I discrete sine
transform (`sine_transform`, also the eigensolver's preconditioner); the
solution is the exact stencil solution (residual at rounding level), so no
iteration control is needed. Boundary values come from the monopole +
dipole expansion of the source evaluated on the box faces.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grids import Grid3D, GridError, ScalarField

CHECK_TOL = 1e-6  # stencil residual bound, relative to max(1, max |4 pi source|)


class PoissonError(RuntimeError):
    """Linear solve failed to reach the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (final residual {residual:.3e})")
        self.residual = residual


def multipole_boundary(grid: Grid3D, source: np.ndarray):
    """Monopole + dipole potential of the source on the box faces.

    Returns (q, center, boundary) where boundary is a full grid array that
    is only meaningful on the faces.
    """
    vol = grid.cell_volume
    q = float(source.sum()) * vol
    xs, ys, zs = grid.axes()
    if abs(q) > 1e-300:
        cx = float((source.sum(axis=(1, 2)) * xs).sum()) * vol / q
        cy = float((source.sum(axis=(0, 2)) * ys).sum()) * vol / q
        cz = float((source.sum(axis=(0, 1)) * zs).sum()) * vol / q
        center = np.array([cx, cy, cz])
    else:
        center = 0.5 * (grid.origin + grid.upper_corner())
    # dipole about `center`
    dx = (source.sum(axis=(1, 2)) * (xs - center[0])).sum() * vol
    dy = (source.sum(axis=(0, 2)) * (ys - center[1])).sum() * vol
    dz = (source.sum(axis=(0, 1)) * (zs - center[2])).sum() * vol
    dip = np.array([dx, dy, dz])

    bound = np.zeros(grid.shape)
    X, Y, Z = np.ix_(*grid.axes())

    def fill(mask_slices):
        x = X[mask_slices] - center[0]
        y = Y[mask_slices] - center[1]
        z = Z[mask_slices] - center[2]
        r = np.sqrt(x * x + y * y + z * z)
        r = np.maximum(r, 1e-12)
        bound[mask_slices] = q / r + (dip[0] * x + dip[1] * y + dip[2] * z) / r**3

    for axis in range(3):
        for side in (0, -1):
            sl = [slice(None)] * 3
            sl[axis] = side
            fill(tuple(sl))
    return q, center, bound


@lru_cache(maxsize=None)
def _sine_matrix(n: int) -> np.ndarray:
    """Read-only S_n[j, k] = sqrt(2/(n+1)) sin(pi j k/(n+1)), j, k = 1..n."""
    k = np.arange(1, n + 1)
    # reduce j k mod 2(n+1) in integers so sin sees an argument below 2 pi
    m = np.outer(k, k) % (2 * (n + 1))
    s = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * m / (n + 1))
    s.flags.writeable = False
    return s


def sine_transform(a: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along the last three axes of an (..., nx, ny, nz) array.

    Three matrix products with the symmetric orthogonal S_n, so the
    transform is its own inverse. Dense products beat an FFT here because
    a length-n DST-I is an FFT of length 2(n+1), which on these boxes has
    large prime factors. The cost grows as n^4 against n^3 log n for the
    FFT; the products were measured faster at every interior length from
    28 to 143 (the paper workloads stay below about 110), and nothing past
    143 was measured.
    """
    *lead, nx, ny, nz = a.shape
    out = a @ _sine_matrix(nz)
    out = _sine_matrix(ny) @ out
    out = _sine_matrix(nx) @ out.reshape(*lead, nx, ny * nz)
    return out.reshape(a.shape)


def _dst_eigenvalues(n: int, h: float) -> np.ndarray:
    k = np.arange(1, n + 1)
    return (2.0 - 2.0 * np.cos(np.pi * k / (n + 1))) / h**2


def solve_dirichlet(grid: Grid3D, rhs: np.ndarray, boundary: np.ndarray) -> np.ndarray:
    """Solve -Lap_h u = rhs with u = boundary on the box faces."""
    nx, ny, nz = grid.shape
    h = grid.h
    f = rhs[1:-1, 1:-1, 1:-1].copy()
    # boundary nodes feed the adjacent interior rows
    f[0, :, :] += boundary[0, 1:-1, 1:-1] / h**2
    f[-1, :, :] += boundary[-1, 1:-1, 1:-1] / h**2
    f[:, 0, :] += boundary[1:-1, 0, 1:-1] / h**2
    f[:, -1, :] += boundary[1:-1, -1, 1:-1] / h**2
    f[:, :, 0] += boundary[1:-1, 1:-1, 0] / h**2
    f[:, :, -1] += boundary[1:-1, 1:-1, -1] / h**2

    lx = _dst_eigenvalues(nx - 2, h)
    ly = _dst_eigenvalues(ny - 2, h)
    lz = _dst_eigenvalues(nz - 2, h)
    denom = lx[:, None, None] + ly[None, :, None] + lz[None, None, :]
    u_in = sine_transform(sine_transform(f) / denom)

    u = boundary.copy()
    u[1:-1, 1:-1, 1:-1] = u_in
    return u


def stencil_residual(grid: Grid3D, u: np.ndarray, rhs: np.ndarray) -> float:
    """Max-norm interior residual of -Lap_h u - rhs."""
    h2 = grid.h**2
    lap = (
        u[:-2, 1:-1, 1:-1]
        + u[2:, 1:-1, 1:-1]
        + u[1:-1, :-2, 1:-1]
        + u[1:-1, 2:, 1:-1]
        + u[1:-1, 1:-1, :-2]
        + u[1:-1, 1:-1, 2:]
        - 6.0 * u[1:-1, 1:-1, 1:-1]
    ) / h2
    return float(np.max(np.abs(-lap - rhs[1:-1, 1:-1, 1:-1])))


def poisson_solve(source: ScalarField) -> ScalarField:
    """Potential u with -Lap u = 4 pi source and multipole boundary values."""
    grid = source.grid
    if not isinstance(grid, Grid3D):
        raise GridError("poisson_solve expects a 3D field")
    rhs = 4.0 * np.pi * source.values
    _, _, boundary = multipole_boundary(grid, source.values)
    u = solve_dirichlet(grid, rhs, boundary)
    res = stencil_residual(grid, u, rhs)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    if res > CHECK_TOL * scale:
        raise PoissonError("direct stencil solve residual above tolerance", res)
    return ScalarField(grid=grid, values=u, kind="potential")
