"""Poisson solves on the 3D box: -Laplace(u) = 4 pi * source.

The 7-point stencil system with Dirichlet boundary data is solved directly
by diagonalizing the stencil with the orthonormal type-I discrete sine
transform (`sine_transform`, also the eigensolver's preconditioner, which
runs it in float32; every Poisson solve runs it in float64); the
solution is the exact stencil solution (residual at rounding level), so no
iteration control is needed. Boundary values come from the monopole +
dipole expansion of the source, written on the box faces of a fresh array
whose interior the solve then fills. `poisson_solve(grid, source)` takes
the source as a plain array of the grid's shape and returns the potential
as one.

Memory per solve: the output plus two interior-sized arrays. The right-hand
side 4 pi source is formed on the interior nodes only, both sine transforms
run as matrix products that ping-pong between those two arrays, the
division by the stencil eigenvalues is done in place, and the residual
check is formed in one of them. Beyond these, only face-sized arrays are
made; the source is never written, and no grid-sized array is kept between
solves.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grids import Grid3D, GridError, SolverError

CHECK_TOL = 1e-6  # stencil residual bound, relative to max(1, max |4 pi source|)


class PoissonError(SolverError):
    """Linear solve failed to reach the requested residual."""


def multipole_boundary(grid: Grid3D, source: np.ndarray):
    """Monopole + dipole potential of the source on the box faces.

    Returns (q, center, dipole, u). The moments come from two reductions
    of the source (over z, and over x and y). u is a fresh grid array that
    holds the potential on the six faces only: its interior is left unset
    for `solve_dirichlet` to fill.
    """
    vol = grid.cell_volume
    xs, ys, zs = grid.axes()
    s_xy = source.sum(axis=2)
    s_z = source.sum(axis=(0, 1))
    s_x, s_y = s_xy.sum(axis=1), s_xy.sum(axis=0)
    q = float(s_x.sum()) * vol
    if abs(q) > 1e-300:
        center = np.array([s_x @ xs, s_y @ ys, s_z @ zs]) * vol / q
    else:
        center = 0.5 * (grid.origin + grid.upper_corner())
    # dipole about `center`
    dip = np.array([
        s_x @ (xs - center[0]), s_y @ (ys - center[1]), s_z @ (zs - center[2])
    ]) * vol

    u = np.empty(grid.shape)
    X, Y, Z = np.ix_(xs - center[0], ys - center[1], zs - center[2])
    for axis in range(3):
        for side in (0, -1):
            face = tuple(side if a == axis else slice(None) for a in range(3))
            x, y, z = X[face], Y[face], Z[face]
            r = np.maximum(np.sqrt(x * x + y * y + z * z), 1e-12)
            u[face] = q / r + (dip[0] * x + dip[1] * y + dip[2] * z) / r**3
    return q, center, dip, u


@lru_cache(maxsize=None)
def _sine_matrix(n: int, dtype: np.dtype) -> np.ndarray:
    """Read-only S_n[j, k] = sqrt(2/(n+1)) sin(pi j k/(n+1)), j, k = 1..n.

    Formed in float64 and rounded once to dtype.
    """
    k = np.arange(1, n + 1)
    # reduce j k mod 2(n+1) in integers so sin sees an argument below 2 pi
    m = np.outer(k, k) % (2 * (n + 1))
    s = (np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * m / (n + 1))).astype(dtype, copy=False)
    s.flags.writeable = False
    return s


def sine_transform(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal DST-I along the last three axes of an (..., nx, ny, nz) array.

    Three matrix products with the symmetric orthogonal S_n, so the
    transform is its own inverse. Dense products beat an FFT here because
    a length-n DST-I is an FFT of length 2(n+1), which on these boxes has
    large prime factors. The cost grows as n^4 against n^3 log n for the
    FFT; the products were measured faster at every interior length from
    28 to 143 (the paper workloads stay below about 110), and nothing past
    143 was measured.

    The products run in a's floating dtype (an integer a promotes to
    float64): float64 for every Poisson solve, float32 in the eigensolver's
    preconditioner.

    Without `out` a is left alone and the transform is a fresh array. With
    `out`, the products ping-pong between out and a, which must both be
    C-contiguous and of one shape and dtype: the transform lands in out, a
    is overwritten, and no array is allocated.
    """
    *lead, nx, ny, nz = a.shape
    dt = np.promote_types(a.dtype, np.float32)
    b = np.matmul(a, _sine_matrix(nz, dt), out=out)
    c = np.matmul(_sine_matrix(ny, dt), b, out=None if out is None else a)
    np.matmul(_sine_matrix(nx, dt), c.reshape(*lead, nx, ny * nz),
              out=b.reshape(*lead, nx, ny * nz))
    return b


def _dst_eigenvalues(n: int, h: float) -> np.ndarray:
    k = np.arange(1, n + 1)
    return (2.0 - 2.0 * np.cos(np.pi * k / (n + 1))) / h**2


def solve_dirichlet(
    grid: Grid3D, rhs: np.ndarray, u: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """Solve -Lap_h u = rhs in the interior of u, whose faces hold the data.

    rhs holds the right-hand side on the interior nodes only, and work is
    a second array of that shape; both are C-contiguous, and the solve
    overwrites both and allocates no other interior-sized array. The
    interior of u is written in place; u is returned.
    """
    h2 = grid.h**2
    # boundary nodes feed the adjacent interior rows
    rhs[0, :, :] += u[0, 1:-1, 1:-1] / h2
    rhs[-1, :, :] += u[-1, 1:-1, 1:-1] / h2
    rhs[:, 0, :] += u[1:-1, 0, 1:-1] / h2
    rhs[:, -1, :] += u[1:-1, -1, 1:-1] / h2
    rhs[:, :, 0] += u[1:-1, 1:-1, 0] / h2
    rhs[:, :, -1] += u[1:-1, 1:-1, -1] / h2

    t = sine_transform(rhs, out=work)
    lx, ly, lz = (_dst_eigenvalues(m, grid.h) for m in t.shape)
    # one x-slab of the stencil eigenvalues at a time: no n^3 denominator
    for i, li in enumerate(lx):
        t[i] /= (li + ly[:, None]) + lz
    u[1:-1, 1:-1, 1:-1] = sine_transform(t, out=rhs)
    return u


def stencil_residual(
    grid: Grid3D, u: np.ndarray, rhs: np.ndarray, out: np.ndarray | None = None
) -> float:
    """Max-norm interior residual of -Lap_h u - rhs, rhs given on the interior.

    The residual field is formed in `out`, an interior-shaped array, or in
    a fresh one when out is None.
    """
    lap = np.multiply(u[1:-1, 1:-1, 1:-1], -6.0, out=out)
    lap += u[:-2, 1:-1, 1:-1]
    lap += u[2:, 1:-1, 1:-1]
    lap += u[1:-1, :-2, 1:-1]
    lap += u[1:-1, 2:, 1:-1]
    lap += u[1:-1, 1:-1, :-2]
    lap += u[1:-1, 1:-1, 2:]
    lap /= grid.h**2
    lap += rhs  # -(-Lap_h u - rhs)
    return max(float(lap.max()), -float(lap.min()))


def poisson_solve(grid: Grid3D, source: np.ndarray) -> np.ndarray:
    """Potential u with -Lap u = 4 pi source and multipole boundary values.

    source is one value per node of grid and is not written; u is a fresh
    array of the grid's shape. A residual above CHECK_TOL times
    max(1, max |4 pi source|), or a NaN in it, raises PoissonError.
    """
    if not isinstance(grid, Grid3D):
        raise GridError("poisson_solve expects a 3D grid")
    _, _, _, u = multipole_boundary(grid, source)
    inner = source[1:-1, 1:-1, 1:-1]
    rhs, work = (np.empty(inner.shape) for _ in range(2))
    solve_dirichlet(grid, np.multiply(inner, 4.0 * np.pi, out=rhs), u, work)
    # the solve overwrote rhs; form it again for the check
    res = stencil_residual(grid, u, np.multiply(inner, 4.0 * np.pi, out=rhs), out=work)
    del rhs, work  # only the output outlives the check
    # 4 pi times the source's extremes: the extremes of the full-grid rhs
    scale = max(1.0, 4.0 * np.pi * float(source.max()), -4.0 * np.pi * float(source.min()))
    if not res <= CHECK_TOL * scale:  # NaN fails too
        raise PoissonError(
            f"direct stencil solve residual above tolerance "
            f"(final residual {res:.3e})",
            [res],
        )
    return u
