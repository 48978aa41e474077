"""Poisson solves on the 3D box: -Laplace(u) = 4 pi * source.

The 7-point stencil system with Dirichlet boundary data is solved directly
by diagonalizing the stencil with the orthonormal type-I discrete sine
transform (`sine_transform`, whose products the eigensolver's
preconditioner also makes, in float32; every Poisson solve runs them in
float64), so the solution is exact up to rounding. Boundary values come
from the monopole + dipole expansion of the source about the box centre, a
point fixed by the grid, so the whole solve is linear in its source:
P(a) + P(b) = P(a + b) up to rounding, which the exterior TF problems rely
on (`tf_molecule.exterior_tf`).

The fold. `poisson_solve(grid, source, mirror)` takes and returns the
plain values of fields symmetric about the box-centre plane of each axis
`mirror` marks, on the fold of grid along those axes (`grids.FoldedGrid`;
the grid itself with none). Its moments weigh each node by
`grids.fold_weights`, a mirrored axis has no dipole and only its outer
face and is transformed on its odd sine modes (`_fold_products`), and the
residual check reflects the stencil at the centre plane, so it checks
every node of the symmetric field. The solve reads only the fold, so the
symmetry is the caller's: a caller holding a grid array picks the axes
with `mirror_axes`, passes the slice a[FoldedGrid(grid, mirror).index]
and `unfold`s the result; the TF fixed points and the KS SCF keep their
iterates on the fold throughout.

Memory per solve: the output plus two arrays of the fold's interior, in
which the right-hand side, both sine transforms and the residual check
run; beyond these only face-sized arrays are made. The sine matrices and
stencil eigenvalues are cached read-only per length (and spacing).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grids import FoldedGrid, Grid3D, GridError, SolverError, fold_weights

CHECK_TOL = 1e-6  # stencil residual bound, relative to max(1, max |4 pi source|)
MIRROR_TOL = 1e-12  # mirror asymmetry bound, relative to max |a| (about 4500 eps)


class PoissonError(SolverError):
    """Linear solve failed to reach the requested residual."""


def multipole_boundary(grid: Grid3D, source: np.ndarray,
                       mirror: tuple[bool, bool, bool] = (False, False, False)):
    """Monopole + dipole potential of the source on the faces of the fold.

    source is given on the fold of grid along mirror (`FoldedGrid`). Both
    moments are taken with the fold's weights about the box centre c, a
    property of the grid, so q, the dipole p (0 along a mirrored axis) and
    the face values are linear in the source. Returns (q, p, u). The
    moments come from one BLAS product of the source's rows with the
    columns w_z and w_z (z - c_z). u is a fresh fold array that holds
    q/r + p.x/r^3 (x measured from c) on the fold's faces only, formed as
    (q + p.x/r^2)/r; its interior is left for `solve_dirichlet` to fill.
    """
    fg = FoldedGrid(grid, mirror)
    nx, ny, nz = fg.shape
    vol = grid.cell_volume
    c = 0.5 * (grid.origin + grid.upper_corner())
    xs, ys, zs = (a - ca for a, ca in zip(fg.axes(), c))
    wx, wy, wz = fg.weights
    cols = np.stack([wz, wz * zs], axis=1)
    rows = (source.reshape(nx * ny, nz) @ cols).reshape(nx, ny, 2)
    rows *= (wx[:, None] * wy)[:, :, None]  # each row's x and y weights
    s_xy = rows[:, :, 0]
    q = float(s_xy.sum()) * vol
    dip = np.array([
        s_xy.sum(axis=1) @ xs, s_xy.sum(axis=0) @ ys, rows[:, :, 1].sum()
    ]) * vol
    dip[list(fg.mirror)] = 0.0

    u = np.empty(fg.shape)
    X, Y, Z = np.ix_(xs, ys, zs)
    for axis in range(3):
        for side in (-1,) if fg.mirror[axis] else (0, -1):
            face = tuple(side if a == axis else slice(None) for a in range(3))
            x, y, z = X[face], Y[face], Z[face]
            # 1/r once; the box centre is inside the box, so r > 0 on every face
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
    large prime factors (CHANGES.md lists the lengths measured).

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
    """Square matrix products along the last three axes of a, one axis per step.

    Each step is (axis, (L, L^T)) with axis 0, 1 or 2 of the last three:
    along it a becomes L a. Along axis 2 this is the product a L^T, so L^T
    must be C-contiguous too. The products land in ping, pong and ping
    again, C-contiguous arrays of a's shape; a pong of None makes the
    second product a fresh array. Each product reads only the other
    buffer, so a may itself be pong.
    """
    for i, (axis, (left, right)) in enumerate(steps):
        buf = pong if i == 1 else ping
        if axis == 2:
            a = np.matmul(a, right, out=buf)
        elif axis == 1:
            a = np.matmul(left, a, out=buf)
        else:
            *lead, nx, ny, nz = a.shape
            flat = None if buf is None else buf.reshape(*lead, nx, ny * nz)
            a = np.matmul(left, a.reshape(*lead, nx, ny * nz), out=flat).reshape(a.shape)
    return a


def _frozen_pair(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only C-contiguous copies of m and m^T."""
    m = np.ascontiguousarray(m)
    mt = np.ascontiguousarray(m.T)
    m.flags.writeable = mt.flags.writeable = False
    return m, mt


@lru_cache(maxsize=None)
def _sine_columns(n: int, folded: bool,
                  dtype: np.dtype = np.dtype(np.float64)) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (C, C^T): the forward transform is C^T, its inverse C.

    C = S_n, or for folded the (n + 1) // 2 odd-mode columns S_n[:, 0::2]
    on the rows from n // 2 on, each row times the square root of its
    `fold_weights`: a square orthogonal C, the odd modes folded as the
    eigensolver's sectors fold their vectors (`eig`). Formed in float64
    and rounded once to dtype; both are stored C-contiguous.
    """
    if not folded:
        s = _sine_matrix(n, np.dtype(dtype))
        return s, s
    c = _sine_matrix(n, np.dtype(np.float64))[n // 2 :, 0::2]
    return _frozen_pair((c * np.sqrt(fold_weights(n))[:, None]).astype(dtype))


@lru_cache(maxsize=None)
def _fold_products(n: int) -> tuple[tuple, tuple]:
    """Read-only ((F, F^T), (B, B^T)) of a mirrored interior axis of length n.

    F maps the plain values on rows n // 2 on of a vector symmetric under
    j <-> n + 1 - j to its odd-mode coefficients, and B maps them back:
    F = C^T diag(sqrt w) and B = diag(1 / sqrt w) C, C the folded columns
    of `_sine_columns` and w the `fold_weights`.
    """
    c = _sine_columns(n, True)[0]
    root = np.sqrt(fold_weights(n))[:, None]
    return _frozen_pair((c * root).T), _frozen_pair(c / root)


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


def _interior(mirror) -> tuple:
    """A fold array's interior: all but the faces, the outer one only on a mirrored axis."""
    return tuple(slice(0 if m else 1, -1) for m in mirror)


def _lines(u: np.ndarray, mirror, axis: int) -> np.ndarray:
    """u along axis, whole and moved first, on the interior of the other axes."""
    inner = _interior(mirror)
    return np.moveaxis(u[tuple(slice(None) if a == axis else s for a, s in enumerate(inner))],
                       axis, 0)


def _boundary_rows(grid: Grid3D, rhs: np.ndarray, u: np.ndarray, mirror) -> None:
    """Add to rhs, on the fold's interior, u's face data over h^2 in the rows they feed."""
    for axis, m in enumerate(mirror):
        lines, r = _lines(u, mirror, axis), np.moveaxis(rhs, axis, 0)
        if not m:
            r[0] += lines[0] / grid.h**2
        r[-1] += lines[-1] / grid.h**2


def solve_dirichlet(
    grid: Grid3D,
    rhs: np.ndarray,
    u: np.ndarray,
    work: np.ndarray,
    mirror: tuple[bool, bool, bool] = (False, False, False),
) -> np.ndarray:
    """Solve -Lap_h u = rhs in the interior of u, whose faces hold the data.

    u is an array on the fold of grid along mirror (`FoldedGrid`). rhs
    holds the right-hand side on u's interior nodes (`_interior`) and work
    is a second C-contiguous array of that shape; the solve overwrites
    both, allocates no other interior-sized array and writes u's interior.

    A mirrored axis is transformed on its odd sine modes (`_fold_products`)
    and any other axis by the full S_n, each transform z, then y, then x.
    """
    _boundary_rows(grid, rhs, u, mirror)
    pairs = [_fold_products(n - 2) if m else (_sine_columns(n - 2, False),) * 2
             for n, m in zip(grid.shape, mirror)]
    t = _axis_products(rhs, [(axis, pairs[axis][0]) for axis in (2, 1, 0)], work, rhs)
    lx, ly, lz = (_dst_eigenvalues(n - 2, grid.h)[:: 2 if m else 1]
                  for n, m in zip(grid.shape, mirror))
    # one x-slab of the stencil eigenvalues at a time, in one reused (ny, nz)
    # denominator: no n^3 denominator
    lyz = ly[:, None] + lz
    den = np.empty_like(lyz)
    for ti, li in zip(t, lx.tolist()):
        ti /= np.add(lyz, li, out=den)
    u[_interior(mirror)] = _axis_products(
        t, [(axis, pairs[axis][1]) for axis in (2, 1, 0)], rhs, work)
    return u


def stencil_residual(
    grid: Grid3D,
    u: np.ndarray,
    rhs: np.ndarray,
    out: np.ndarray | None = None,
    mirror: tuple[bool, bool, bool] = (False, False, False),
) -> float:
    """h^2 times the max-norm interior residual of -Lap_h u - f.

    u is an array on the fold of grid along mirror, and rhs holds h^2 f on
    its interior nodes, so no division by h^2 is made: -6 u, the six
    neighbours and rhs are accumulated in out, an interior-shaped array
    that does not overlap rhs (fresh when None). A mirrored axis reflects
    the stencil at its centre plane, the neighbour below the fold's first
    row being its mirror image, so the check covers every node of the
    symmetric field and gives the full field's residual.
    """
    r = np.multiply(u[_interior(mirror)], -6.0, out=out)
    for axis, m in enumerate(mirror):
        lines, ra = _lines(u, mirror, axis), np.moveaxis(r, axis, 0)
        ra += lines[2 - m :]  # the neighbour above
        ra[m:] += lines[:-2]  # the neighbour below
        if m:  # reflected at the centre plane
            ra[0] += lines[grid.shape[axis] % 2]
    r += rhs
    return max(float(r.max()), -float(r.min()))


def poisson_solve(
    grid: Grid3D,
    source: np.ndarray,
    mirror: tuple[bool, bool, bool] = (False, False, False),
) -> np.ndarray:
    """Potential u with -Lap u = 4 pi source and multipole boundary values.

    source holds the plain values on the fold of grid along mirror
    (`FoldedGrid`) of a source symmetric about the mirrored centre planes,
    and is not written; u is a fresh array of that shape. A residual above
    CHECK_TOL max(1, max |4 pi source|), or a NaN in it, raises
    PoissonError; the check compares h^2 times both (`stencil_residual`).
    """
    if not isinstance(grid, Grid3D):
        raise GridError("poisson_solve expects a 3D grid")
    if np.shape(source) != FoldedGrid(grid, mirror).shape:
        raise GridError("source must hold one value per node of the fold")
    _, _, u = multipole_boundary(grid, source, mirror)
    inner = source[_interior(mirror)]
    rhs, work = (np.empty(inner.shape) for _ in range(2))
    solve_dirichlet(grid, np.multiply(inner, 4.0 * np.pi, out=rhs), u, work, mirror)
    h2 = grid.h**2
    # the solve overwrote both arrays; the check forms h^2 4 pi source in one
    res = stencil_residual(grid, u, np.multiply(inner, 4.0 * np.pi * h2, out=rhs),
                           work, mirror) / h2
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


def unfold(grid: Grid3D, a: np.ndarray, mirror) -> np.ndarray:
    """The grid array, symmetric about each mirrored axis' centre plane, whose fold is a.

    Each mirror image is an exact copy of its node. With no mirrored axis a
    itself is returned.
    """
    if not any(mirror):
        return a
    out = np.empty(grid.shape)
    index = list(FoldedGrid(grid, mirror).index)
    out[tuple(index)] = a
    for axis, n in enumerate(grid.shape):
        if mirror[axis]:
            index[axis] = slice(None)
            b = np.moveaxis(out[tuple(index)], axis, 0)
            # a ufunc: an assignment copies a source whose bounds overlap out's
            np.positive(b[: (n - 1) // 2 : -1], out=b[: n // 2])
    return out
