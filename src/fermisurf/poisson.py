"""Poisson solves on the 3D box: -Laplace(u) = 4 pi * source.

The 7-point stencil system with Dirichlet boundary data is solved directly
by diagonalizing the stencil with the orthonormal type-I discrete sine
transform, so the solution is exact up to rounding. Each solve runs the
transform in float64 as matrix products along the axes (`_axis_products`)
with its plan's sine columns (`_sine_columns`, and `_fold_products` along
a mirrored axis); the eigensolver's preconditioner makes the same products
in float32. `sine_transform` is the tests' reference transform. Boundary
values come from the monopole + dipole expansion of the source about the
box centre, a point fixed by the grid, so the whole solve is linear in its
source: P(a) + P(b) = P(a + b) up to rounding, which the exterior TF
problems rely on (`tf_molecule.exterior_tf`).

The fold. `poisson_solve(grid, source, mirror)` takes and returns the
plain values of fields symmetric about the box-centre plane of each axis
`mirror` marks, on the fold of grid along those axes (`grids.FoldedGrid`;
the grid itself with none). Its moments weigh each node by
`grids.fold_weights`, a mirrored axis has no dipole and only its outer
face and is transformed on its odd sine modes (`_fold_products`), and the
residual check reflects the stencil at the centre plane, so it checks
every node of the symmetric field. The solve reads only the fold, so the
symmetry is the caller's (`tf_molecule.nuclear_mirror_axes`); `unfold`
returns a fold array to the box.

The plan. Everything a solve on one fold reads besides its source, the
fold's shape and weights, the moment columns, each face node's offsets
from the box centre and 1/r, the interior and neighbour index tuples, the
sine-transform pairs and the stencil-eigenvalue sums, is built once per
(dims, h, mirror) by `_plan`, read-only, and kept in a small LRU cache.
Offsets from the centre are h (k - (n - 1)/2), so the plan does not
depend on the origin: a molecule's box and its matched atomic grids share
one, and a translated box gives the same solve to the bit. The three
stages, `multipole_boundary`, `solve_dirichlet` and `stencil_residual`,
are called through this module's namespace, once each per solve.

Memory per solve: the output plus two arrays of the fold's interior, in
which the right-hand side, both sine transforms and the residual check
run; beyond these only face-sized arrays and block buffers of at most
BLOCK values are made. Between solves the cache holds the plans, whose
arrays are face-sized (the largest, each face node's offsets, 1/r and
index, five values per face node), and the sine matrices and stencil
eigenvalues, cached read-only per length (and spacing).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grids import FoldedGrid, Grid3D, GridError, SolverError, fold_weights

CHECK_TOL = 1e-6  # stencil residual bound, relative to max(1, max |4 pi source|)


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
    (q + p.x/r^2)/r on all face nodes at once; its interior is left for
    `solve_dirichlet` to fill.
    """
    plan = _plan(grid.dims, grid.h, _key(mirror))
    nx, ny, nz = plan.shape
    vol = grid.cell_volume
    rows = (source.reshape(nx * ny, nz) @ plan.cols).reshape(nx, ny, 2)
    rows *= plan.wxy  # each row's x and y weights
    s_xy = rows[:, :, 0]
    q = float(s_xy.sum()) * vol
    dip = np.array([
        s_xy.sum(axis=1) @ plan.xs, s_xy.sum(axis=0) @ plan.ys, rows[:, :, 1].sum()
    ]) * vol
    dip[list(plan.mirror)] = 0.0

    u = np.empty(plan.shape)
    index, x, y, z, inv_r = plan.faces
    val = dip[0] * x + dip[1] * y + dip[2] * z
    val *= inv_r
    val *= inv_r
    val += q
    val *= inv_r
    u.reshape(-1)[index] = val
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


def sine_transform(a: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along the last three axes of an (..., nx, ny, nz) array.

    The tests' reference transform: no solve calls it. It is checked
    against scipy's `dstn`, and the eigensolver's in-place float32
    preconditioner is checked against it bit for bit.

    Three matrix products with the symmetric orthogonal S_n, so the
    transform is its own inverse. Dense products beat an FFT here because
    a length-n DST-I is an FFT of length 2(n+1), which on these boxes has
    large prime factors (CHANGES.md lists the lengths measured). The
    products run in a's floating dtype (an integer a promotes to float64).
    a is left alone and the transform is a fresh array.
    """
    dt = np.promote_types(a.dtype, np.float32)
    sx, sy, sz = (_sine_matrix(n, dt) for n in a.shape[-3:])
    steps = [(2, (sz, sz)), (1, (sy, sy)), (0, (sx, sx))]
    return _axis_products(a, steps, np.empty(a.shape, dt), None)


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


def _key(mirror) -> tuple[bool, bool, bool]:
    return tuple(bool(m) for m in mirror)


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class _Plan:
    """Everything a solve on one fold reads but does not compute from its source.

    A fold array has `shape`; its interior (`interior`, the nodes the
    stencil solves for) has `inner_shape`, all but the faces, the outer
    one only on a mirrored axis. Offsets from the box centre are
    h (k - (n - 1)/2) along each grid axis of n nodes, so the plan depends
    on the grid's dims and h only.

    - multipole_boundary: `cols`, the moment columns (w_z, w_z (z - c_z));
      `wxy`, the x times y row weights; `xs` and `ys`, the x and y offsets;
      `faces`, the flat index of every face node of the fold and its
      x, y, z offsets and 1/r.
    - solve_dirichlet: `rows`, per face the (rhs index, u index) of the
      rows it feeds; `forward` and `inverse`, the `_axis_products` steps;
      `lx` (a column, one row per interior x-slab) and `lyz`, the stencil
      eigenvalues along x and the sums ly + lz; `slabs`, the x-slabs divided at a time.
    - stencil_residual: `ox`, u's first interior x-plane; `planes`, the
      x-planes accumulated at a time; `neighbours`, per axis the flat
      shift of u's neighbour above and, on a mirrored axis, the centre
      plane, the index of the plane reflected onto it and whether the
      shift below wraps onto it.
    """

    shape: tuple
    mirror: tuple
    interior: tuple
    inner_shape: tuple
    cols: np.ndarray
    wxy: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    faces: tuple
    rows: tuple
    forward: tuple
    inverse: tuple
    lx: np.ndarray
    lyz: np.ndarray
    slabs: int
    ox: int
    planes: int
    neighbours: tuple


BLOCK = 8192  # values in a block buffer of the solve or the check (at least one x-plane)


@lru_cache(maxsize=8)
def _plan(dims: tuple, h: float, mirror: tuple) -> _Plan:
    """The read-only `_Plan` of the fold of a (dims, h) grid along mirror."""
    folded = [n - n // 2 if m else n for n, m in zip(dims, mirror)]
    interior = tuple(slice(0 if m else 1, -1) for m in mirror)
    inner_shape = tuple(f - 1 if m else f - 2 for f, m in zip(folded, mirror))
    xs, ys, zs = (h * (np.arange(n) - (n - 1) / 2)[n - f :] for n, f in zip(dims, folded))
    wx, wy, wz = (fold_weights(n) if m else np.ones(n) for n, m in zip(dims, mirror))
    cols = np.stack([wz, wz * zs], axis=1)
    wxy = (wx[:, None] * wy)[:, :, None]

    on_face, rows = np.zeros(folded, dtype=bool), []
    for axis, m in enumerate(mirror):
        for side in (-1,) if m else (0, -1):
            at = (slice(None),) * axis + (side,)
            on_face[at] = True
            rows.append((at, tuple(side if a == axis else s for a, s in enumerate(interior))))
    index = np.flatnonzero(on_face)
    i, j, k = np.unravel_index(index, folded)
    x, y, z = xs[i], ys[j], zs[k]
    # 1/r once; the box centre is inside the box, so r > 0 on every face
    inv_r = x * x + y * y + z * z
    np.sqrt(inv_r, out=inv_r)
    np.divide(1.0, inv_r, out=inv_r)

    pairs = [_fold_products(n - 2) if m else (_sine_columns(n - 2, False),) * 2
             for n, m in zip(dims, mirror)]
    lx, ly, lz = (_dst_eigenvalues(n - 2, h)[:: 2 if m else 1] for n, m in zip(dims, mirror))
    lyz = ly[:, None] + lz

    nx, ny, nz = folded
    neighbours = []
    for axis, (m, d) in enumerate(zip(mirror, (ny * nz, nz, 1))):
        # a mirrored axis' centre plane and u's plane n % 2 (n the grid's
        # length), its neighbour below: along y and z the flat shift wraps
        # onto the centre plane, along x it stops short of it (u's first plane)
        centre = (slice(None),) * axis + (0,)
        image = (slice(None),) * axis + (dims[axis] % 2,)
        neighbours.append((d, centre, image, axis > 0) if m else (d, None, None, False))

    _frozen(cols, wxy, xs, ys, lyz)
    return _Plan(
        shape=tuple(folded), mirror=mirror, interior=interior, inner_shape=inner_shape,
        cols=cols, wxy=wxy, xs=xs, ys=ys, faces=_frozen(index, x, y, z, inv_r),
        rows=tuple(rows),
        forward=tuple((axis, pairs[axis][0]) for axis in (2, 1, 0)),
        inverse=tuple((axis, pairs[axis][1]) for axis in (2, 1, 0)),
        lx=lx[:, None, None], lyz=lyz,
        slabs=max(1, min(len(lx), BLOCK // max(1, lyz.size))),
        ox=0 if mirror[0] else 1, planes=max(1, min(len(lx), BLOCK // (ny * nz))),
        neighbours=tuple(neighbours),
    )


def solve_dirichlet(
    grid: Grid3D,
    rhs: np.ndarray,
    u: np.ndarray,
    work: np.ndarray,
    mirror: tuple[bool, bool, bool] = (False, False, False),
) -> np.ndarray:
    """Solve -Lap_h u = rhs in the interior of u, whose faces hold the data.

    u is an array on the fold of grid along mirror (`FoldedGrid`). rhs
    holds the right-hand side on u's interior nodes and work is a second
    C-contiguous array of that shape; the solve overwrites both, allocates
    no other interior-sized array and writes u's interior.

    A mirrored axis is transformed on its odd sine modes (`_fold_products`)
    and any other axis by the full S_n, each transform z, then y, then x.
    The stencil eigenvalue sums divide a block of x-slabs at a time,
    formed in one buffer of at most BLOCK values (or one slab).
    """
    plan = _plan(grid.dims, grid.h, _key(mirror))
    h2 = grid.h**2
    for at, face in plan.rows:  # the face data over h^2, in the rows they feed
        rhs[at] += u[face] / h2
    t = _axis_products(rhs, plan.forward, work, rhs)
    den = np.empty((plan.slabs, *plan.lyz.shape))
    for i in range(0, len(t), plan.slabs):
        ti, d = t[i : i + plan.slabs], den[: len(t) - i]
        # ly + lz, then + lx: one broadcast operand, so at most one ufunc buffer
        np.copyto(d, plan.lyz)
        ti /= np.add(d, plan.lx[i : i + plan.slabs], out=d)
    u[plan.interior] = _axis_products(t, plan.inverse, rhs, work)
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
    neighbours and rhs are accumulated, in that order, and the residual
    lands in out, an interior-shaped C-contiguous array that does not
    overlap rhs (fresh when None).

    The stencil runs on u's own layout, a block of whole interior x-planes
    at a time in one buffer of at most BLOCK values (or one plane): each
    neighbour is one contiguous flat shift of u (+-1, +-n_z, +-n_y n_z),
    and only the block's face nodes, which are not copied out, read a
    wrapped value. A mirrored axis reflects the stencil at its centre
    plane, the neighbour below the fold's first row being its mirror
    image: the value a shift wraps onto that plane is put back and the
    reflected plane added instead, so the check covers every node of the
    symmetric field and gives the full field's residual.
    """
    plan = _plan(grid.dims, grid.h, _key(mirror))
    flat = np.ascontiguousarray(u).reshape(-1)
    u3 = flat.reshape(plan.shape)
    out = np.empty(plan.inner_shape) if out is None else out
    _, ny, nz = plan.shape
    yz = (slice(None), *plan.interior[1:])
    buf = np.empty(plan.planes * ny * nz)
    for p0 in range(0, len(out), plan.planes):
        p1 = min(p0 + plan.planes, len(out))
        lo, hi = (plan.ox + p0) * ny * nz, (plan.ox + p1) * ny * nz
        r = np.multiply(flat[lo:hi], -6.0, out=buf[: hi - lo])
        r3, block = r.reshape(-1, ny, nz), u3[plan.ox + p0 : plan.ox + p1]
        for d, centre, image, wraps in plan.neighbours:
            r += flat[lo + d : hi + d]  # the neighbour above
            keep = r3[centre].copy() if wraps else None
            first = max(0, d - lo)  # along x, u's first plane has none below
            r[first:] += flat[lo + first - d : hi - d]  # the neighbour below
            if wraps:  # a mirrored y or z: the wrapped values out, the image in
                r3[centre] = keep
                r3[centre] += block[image]
            elif image is not None and p0 == 0:  # a mirrored x: the first block's plane 0
                r3[centre] += u3[image]
        np.copyto(out[p0:p1], r3[yz])
        out[p0:p1] += rhs[p0:p1]
    return max(float(out.max()), -float(out.min()))


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
    plan = _plan(grid.dims, grid.h, _key(mirror))
    if np.shape(source) != plan.shape:
        raise GridError("source must hold one value per node of the fold")
    _, _, u = multipole_boundary(grid, source, mirror)
    inner = source[plan.interior]
    rhs, work = (np.empty(plan.inner_shape) for _ in range(2))
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

    Each mirror image is an exact copy of its node, negated along an axis
    whose flag is -1: an `eig` sector unfolds its orbitals, which a holds
    as 0 on such an axis' centre plane. The result is a fresh grid array,
    a copy of a when no axis is mirrored.
    """
    out = np.empty(grid.shape)
    index = list(FoldedGrid(grid, mirror).index)
    out[tuple(index)] = a
    for axis, n in enumerate(grid.shape):
        if mirror[axis]:
            index[axis] = slice(None)
            b = np.moveaxis(out[tuple(index)], axis, 0)
            # a ufunc: an assignment copies a source whose bounds overlap out's
            (np.negative if mirror[axis] < 0 else np.positive)(b[: (n - 1) // 2 : -1],
                                                                out=b[: n // 2])
    return out
