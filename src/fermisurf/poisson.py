"""Poisson solves on the 3D box: -Laplace(u) = 4 pi * source.

The 7-point stencil system with Dirichlet boundary data is solved directly
by diagonalizing the stencil with the orthonormal type-I discrete sine
transform (`sine_transform`, whose products the eigensolver's
preconditioner also makes, in float32; every Poisson solve runs them in
float64); the solution is the exact stencil solution (residual at
rounding level), so no iteration control is needed. Boundary values come from the monopole +
dipole expansion of the source about the box centre, a point fixed by the
grid, written on the box faces of a fresh array whose interior the solve
then fills. So the boundary data, and with them the whole solve, are
linear in the source: P(a) + P(b) = P(a + b) up to rounding, which the
exterior TF problems rely on (`tf_molecule.exterior_tf`). An expansion
about each source's own charge centre is not linear, and missed that
identity by 1.5e-5 Ha on a box whose second nucleus is off a node.
`poisson_solve(grid, source, mirror)` takes the source as a plain array
of the grid's shape and returns the potential as one.

Mirror-symmetric sources. Sine mode k of a length-n axis keeps its sign
under j <-> n + 1 - j when k is odd and flips it when k is even, so the
DST-I of a vector with that mirror symmetry has no even modes. A source
symmetric about a box-centre plane has symmetric boundary data too (the
multipole's centre is the box centre), so the whole right-hand side is
symmetric and that axis can be solved on its (n + 1) // 2 odd modes
alone: with C = S_n[:, 0::2] the forward transform along it is C^T, the
inverse C, and the division takes the odd eigenvalues. The forward
transform takes the mirrored axes first and the inverse takes them last,
so the products in between run on the halved lengths. The caller states
the symmetry (`tf_molecule` tests it once per TF solve, and
`ks_molecule` once per SCF, with `mirror_axes`); a source that breaks it
is solved as if symmetrized, and the residual check, which reads the
full source, raises once the part the odd modes dropped passes
CHECK_TOL.

Memory per solve: the output plus two interior-sized arrays. The right-hand
side 4 pi source is formed on the interior nodes only, both sine transforms
run as matrix products that ping-pong between those two arrays (a mirrored
axis' smaller products in views of their leading elements), the
division by the stencil eigenvalues is done in place, one x-slab at a
time through one reused (ny, nz) denominator, and the residual check is
formed in one of them. Beyond these, only face-sized arrays are made; the
source is never written, and no grid-sized array is kept between solves.
The sine matrices, the odd columns and the stencil eigenvalues are cached
read-only per length (and spacing).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .grids import Grid3D, GridError, SolverError

CHECK_TOL = 1e-6  # stencil residual bound, relative to max(1, max |4 pi source|)
MIRROR_TOL = 1e-12  # mirror asymmetry bound, relative to max |a| (about 4500 eps)


class PoissonError(SolverError):
    """Linear solve failed to reach the requested residual."""


def multipole_boundary(grid: Grid3D, source: np.ndarray):
    """Monopole + dipole potential of the source on the box faces.

    Both moments are taken about the box centre c = (origin + upper
    corner) / 2, a property of the grid, so q and the dipole p, and with
    them the face values, are linear in the source. Returns (q, p, u); c
    is the grid's and is not returned. The moments come from one pass
    over the source: a BLAS product of its (nx ny, nz) rows with the
    columns 1 and z - c_z gives each row's sum and z moment. u is a fresh
    grid array that holds q/r + p.x/r^3 (x measured from c) on the six
    faces only, formed from 1/r as (q + p.x/r^2)/r: its interior is left
    unset for `solve_dirichlet` to fill. A quadrupole about the same c
    would keep the expansion linear.
    """
    nx, ny, nz = grid.shape
    vol = grid.cell_volume
    c = 0.5 * (grid.origin + grid.upper_corner())
    xs, ys, zs = (a - ca for a, ca in zip(grid.axes(), c))
    cols = np.stack([np.ones(nz), zs], axis=1)
    rows = (source.reshape(nx * ny, nz) @ cols).reshape(nx, ny, 2)
    s_xy = rows[:, :, 0]
    q = float(s_xy.sum()) * vol
    dip = np.array([
        s_xy.sum(axis=1) @ xs, s_xy.sum(axis=0) @ ys, rows[:, :, 1].sum()
    ]) * vol

    u = np.empty(grid.shape)
    X, Y, Z = np.ix_(xs, ys, zs)
    for axis in range(3):
        for side in (0, -1):
            face = tuple(side if a == axis else slice(None) for a in range(3))
            x, y, z = X[face], Y[face], Z[face]
            # 1/r once, then q/r + (p.x)/r^3 as (q + (p.x)/r^2)/r; the box
            # centre lies inside the box, so r > 0 on every face
            inv_r = x * x + y * y + z * z
            np.sqrt(inv_r, out=inv_r)
            np.divide(1.0, inv_r, out=inv_r)
            val = dip[0] * x + dip[1] * y + dip[2] * z
            val *= inv_r
            val *= inv_r
            val += q
            val *= inv_r
            u[face] = val
    return q, dip, u


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
    float64): float64 for every Poisson solve; the eigensolver's
    preconditioner makes the same products in float32 (`_sine_columns`).

    Without `out` a is left alone and the transform is a fresh array. With
    `out`, the products ping-pong between out and a, which must both be
    C-contiguous and of one shape and dtype: the transform lands in out, a
    is overwritten, and no array is allocated.
    """
    dt = np.promote_types(a.dtype, np.float32)
    sx, sy, sz = (_sine_matrix(n, dt) for n in a.shape[-3:])
    steps = [(2, (sz, sz)), (1, (sy, sy)), (0, (sx, sx))]
    if out is None:
        return _axis_products(a, steps, np.empty(a.shape, dt), None)
    return _axis_products(a, steps, out, a)


def _axis_products(a, steps, ping, pong):
    """Matrix products along the last three axes of a, one axis per step.

    Each step is (axis, (L, L^T)) with axis 0, 1 or 2 of the last three:
    along it a becomes L a, which takes its length from L.shape[1] to
    L.shape[0]. Along axis 2 this is the product a L^T, so L^T must be
    C-contiguous too. The products land in ping, pong and ping again, each
    in a C-contiguous view of the leading elements of that buffer; a pong
    of None makes the second product a fresh array. Every product must fit
    in the buffer it lands in, and each reads only the other buffer, so a
    may itself be pong.
    """
    for i, (axis, (left, right)) in enumerate(steps):
        *lead, nx, ny, nz = a.shape
        buf = pong if i == 1 else ping
        if axis == 2:
            a = np.matmul(a, right, out=_leading(buf, (*lead, nx, ny, right.shape[1])))
        elif axis == 1:
            a = np.matmul(left, a, out=_leading(buf, (*lead, nx, left.shape[0], nz)))
        else:
            a = np.matmul(left, a.reshape(*lead, nx, ny * nz),
                          out=_leading(buf, (*lead, left.shape[0], ny * nz)))
            a = a.reshape(*lead, left.shape[0], ny, nz)
    return a


def _leading(buf: np.ndarray | None, shape: tuple) -> np.ndarray | None:
    """The first prod(shape) elements of the C-contiguous buf, in that shape."""
    if buf is None:
        return None
    return buf.reshape(-1)[: math.prod(shape)].reshape(shape)


@lru_cache(maxsize=None)
def _sine_columns(n: int, odd: bool, folded: bool = False,
                  dtype: np.dtype = np.dtype(np.float64)) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (C, C^T): the forward transform is C^T, its inverse C.

    C = S_n, or for odd its (n + 1) // 2 odd-mode columns S_n[:, 0::2]:
    C^T a is then the DST-I of a vector a symmetric under j <-> n + 1 - j,
    whose even modes vanish. folded (with odd, n odd) keeps only the rows
    from the centre row (n - 1) // 2 on, those past it times sqrt 2: a
    square orthogonal C whose columns are the odd modes of an even vector
    as the eigensolver's sectors fold it (`eig`). Formed in float64 and
    rounded once to dtype. Both are stored C-contiguous: a transposed view
    as the last product's left factor took twice as long.
    """
    if not odd:
        s = _sine_matrix(n, np.dtype(dtype))
        return s, s
    c = _sine_matrix(n, np.dtype(np.float64))[:, 0::2]
    if folded:
        c = c[n // 2 :] * np.sqrt([1.0] + [2.0] * (n // 2))[:, None]
    c = np.ascontiguousarray(c, dtype=dtype)
    ct = np.ascontiguousarray(c.T)
    c.flags.writeable = False
    ct.flags.writeable = False
    return c, ct


@lru_cache(maxsize=None)
def _dst_eigenvalues(n: int, h: float) -> np.ndarray:
    """Read-only eigenvalues (2 - 2 cos(pi k/(n+1)))/h^2, k = 1..n, of -d^2/dx^2_h."""
    k = np.arange(1, n + 1)
    lam = (2.0 - 2.0 * np.cos(np.pi * k / (n + 1))) / h**2
    lam.flags.writeable = False
    return lam


def mirror_axes(*arrays: np.ndarray) -> tuple[bool, bool, bool]:
    """For each axis, whether every array is mirror-symmetric about the box centre.

    An axis counts when max |a - a reversed along it| <= MIRROR_TOL max |a|
    for each array a: a grid array is then symmetric under i <-> n - 1 - i
    up to rounding, and so is its interior under j <-> n + 1 - j. Only
    half of each axis is compared, and one difference array is formed at
    a time.
    """
    def gap(a, axis):
        b = np.moveaxis(a, axis, 0)
        k = b.shape[0] // 2
        d = np.subtract(b[:k], b[: -k - 1 : -1])  # first k rows - last k reversed
        return float(np.abs(d, out=d).max(initial=0.0))

    tols = [MIRROR_TOL * max(float(a.max()), -float(a.min())) for a in arrays]
    # a NaN gap or tolerance compares False: no mirrored axis
    return tuple(all(gap(a, axis) <= tol for a, tol in zip(arrays, tols))
                 for axis in range(3))


def solve_dirichlet(
    grid: Grid3D,
    rhs: np.ndarray,
    u: np.ndarray,
    work: np.ndarray,
    mirror: tuple[bool, bool, bool] = (False, False, False),
) -> np.ndarray:
    """Solve -Lap_h u = rhs in the interior of u, whose faces hold the data.

    rhs holds the right-hand side on the interior nodes only, and work is
    a second array of that shape; both are C-contiguous, and the solve
    overwrites both and allocates no other interior-sized array. The
    interior of u is written in place; u is returned.

    mirror[i] True says that rhs, once the boundary rows are added, is
    symmetric under j <-> n + 1 - j along axis i. That axis is then
    transformed on its (n + 1) // 2 odd sine modes only (`_sine_columns`),
    which is the solve of the symmetrized right-hand side; its even modes
    are taken as 0 without being formed. An axis that is not mirrored uses
    the full S_n, and the all-False solve makes `sine_transform`'s products
    in its z, y, x order. Every intermediate is a view into rhs or work.
    """
    h2 = grid.h**2
    # boundary nodes feed the adjacent interior rows
    rhs[0, :, :] += u[0, 1:-1, 1:-1] / h2
    rhs[-1, :, :] += u[-1, 1:-1, 1:-1] / h2
    rhs[:, 0, :] += u[1:-1, 0, 1:-1] / h2
    rhs[:, -1, :] += u[1:-1, -1, 1:-1] / h2
    rhs[:, :, 0] += u[1:-1, 1:-1, 0] / h2
    rhs[:, :, -1] += u[1:-1, 1:-1, -1] / h2

    cols = [_sine_columns(n, odd) for n, odd in zip(rhs.shape, mirror)]
    # the forward transform C^T (its step takes (C, C^T) reversed) shrinks
    # the mirrored axes, so it takes them first, and its inverse C expands
    # them, so it takes them last; with no mirrored axis both run z, y, x
    forward = sorted((2, 1, 0), key=lambda axis: not mirror[axis])
    inverse = sorted((2, 1, 0), key=lambda axis: mirror[axis])
    t = _axis_products(rhs, [(axis, cols[axis][::-1]) for axis in forward], work, rhs)
    lx, ly, lz = (_dst_eigenvalues(n, grid.h)[:: 2 if odd else 1]
                  for n, odd in zip(rhs.shape, mirror))
    # one x-slab of the stencil eigenvalues at a time, in one reused (ny, nz)
    # denominator: no n^3 denominator
    lyz = ly[:, None] + lz
    den = np.empty_like(lyz)
    for ti, li in zip(t, lx.tolist()):
        ti /= np.add(lyz, li, out=den)
    u[1:-1, 1:-1, 1:-1] = _axis_products(
        t, [(axis, cols[axis]) for axis in inverse], rhs, work)
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


def poisson_solve(
    grid: Grid3D,
    source: np.ndarray,
    mirror: tuple[bool, bool, bool] = (False, False, False),
) -> np.ndarray:
    """Potential u with -Lap u = 4 pi source and multipole boundary values.

    source is one value per node of grid and is not written; u is a fresh
    array of the grid's shape. A residual above CHECK_TOL times
    max(1, max |4 pi source|), or a NaN in it, raises PoissonError.

    mirror says, per axis, that the source is mirror-symmetric about the
    box centre (`mirror_axes`), and the solve runs on that axis' odd sine
    modes (`solve_dirichlet`). It is not tested here; a source that breaks
    it fails the residual check once the dropped part passes CHECK_TOL.
    """
    if not isinstance(grid, Grid3D):
        raise GridError("poisson_solve expects a 3D grid")
    _, _, u = multipole_boundary(grid, source)
    inner = source[1:-1, 1:-1, 1:-1]
    rhs, work = (np.empty(inner.shape) for _ in range(2))
    solve_dirichlet(grid, np.multiply(inner, 4.0 * np.pi, out=rhs), u, work, mirror)
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
