"""Lowest eigenpairs of -1/2 Lap + V on the 3D box (Dirichlet walls).

`lobpcg` is Knyazev's locally optimal block preconditioned conjugate
gradient method (SIAM J. Sci. Comput. 23:517, 2001) on (k, n_points) row
blocks, preconditioned by the exact sine-transform inverse of
-1/2 Lap_h + c. Each iteration takes the Rayleigh-Ritz pairs of H on the
span of [X, P, W] from the Gram pair of that basis; a search direction the
rest of the basis already spans is dropped, as Duersch et al. (SIAM J.
Sci. Comput. 40:C655, 2018) do, so a block close to the size of the grid
still iterates. Converged columns stay in X but get no new directions
(soft locking).

`lowest_eigenpairs` converges only the wanted states. A guard vector, the
same routine with the wanted orbitals as constraints, is converged loosely
in their orthogonal complement (`guard_eigenpair`); its Ritz value and
residual tell `occupied_eigenpairs` whether the Fermi-level shell closes
inside the wanted states, and the block grows until it does. The SCF keeps
that block size from step to step and runs the guard only on its first and
its converged step. Small boxes can be checked against dense
diagonalization.

Mirror-parity sectors. When v is symmetric about the box-centre plane of
an axis with an odd number of nodes, H commutes with that reflection, so
its eigenvectors can be taken even or odd under it. A sector is one parity
per mirrored axis, up to 8 (Kronik et al., Phys. Status Solidi B 243:1063,
2006, reduce real-space grids by point-group symmetry the same way). The
potential, the warm-start rows and the orbitals travel as plain values on
the fold of the box (`grids.FoldedGrid`), each row with its sector; an
orbital odd along an axis is 0 on that axis' centre plane. LOBPCG runs per sector on the
sector's folded grid, the fold less the centre plane of each odd axis,
with off-plane values stored times sqrt 2 (`_rows`), so plain dot products
and norms of its rows are those of the full vectors and LOBPCG runs
unchanged on each folded operator. An odd axis is then an ordinary
Dirichlet half box for `apply_hamiltonian` and the preconditioner (sine
modes S_m of the half length m); an even axis adds a sqrt 2 coupling
between the centre plane and its neighbour, and its preconditioner takes
the odd sine modes of S_n, folded the same way. H is block-diagonal over
the sectors, so the lowest state outside the block is the lowest of the
sectors' own: the guard runs once per sector, constrained by that
sector's orbitals. A problem with no mirrored axis has one sector, the
box, FULL, which takes the same path as any other sector.

The preconditioner runs in float32: LOBPCG uses it only to choose search
directions, which the Rayleigh-Ritz step then weighs in float64, so its
rounding at about 1e-7 relative moves no converged pair beyond the
residual tolerance. Residuals, Ritz steps and H psi stay float64.

Each solve sets its own preconditioner shift c. The wanted states, bound
a few Ha deep, take c = 1 + 0.1 max(0, -min V); the guard, which settles
near 0 Ha on box-continuum states above a neutral system's occupied
levels, takes GUARD_SHIFT, with which it settles in a fraction of the
iterations the wanted states' shift needs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .grids import FoldedGrid, Grid3D, GridError, SolverError
from .ks_common import FERMI_DEGENERACY_TOL, aufbau_occupations
from .poisson import _axis_products, _dst_eigenvalues, _sine_columns

EIG_SEED = 7  # random start vectors beyond the warm-start rows
EIG_MAXITER = 500  # LOBPCG iterations allowed for the wanted states
GUARD_TOL = 1e-3  # residual norm (relative above 1 Ha) of a settled guard
GUARD_MAXITER = 200  # LOBPCG iterations allowed for the guard
GUARD_SHIFT = 0.1  # preconditioner shift (Ha) of the guard, which settles near 0
# Gram eigenvalue, relative to the largest, below which a search direction
# counts as dependent. It bounds the update coefficients by about 1e3, so
# H X, updated by the same products as X, stays consistent with it; at 1e-8
# a degenerate p shell stalled near a residual of 3e-8.
DROP_TOL = 1e-6
# Ritz values this close (relative above 1 Ha) form one degenerate cluster
DEGENERATE_TOL = 1e-12
RITZ_SCRATCH = 2**14  # elements of the scratch the in-place Ritz update goes through
FULL = (0, 0, 0)  # the one sector of a problem with no mirrored axis
SQRT_HALF, SQRT_TWO = math.sqrt(0.5), math.sqrt(2.0)


class EigenError(SolverError):
    """Eigensolver failure; carries its history.

    The history holds the per-iteration maximum residual norm of the block
    when the residual tolerance was missed, and the guard margins
    theta - rho - eps_F tried when a Fermi shell could not be closed.
    """


def _sectors(mirror) -> list:
    """Every sector of the mirrored axes, the all-even one first.

    A sector holds one parity per axis: +1 (even) or -1 (odd) under the
    reflection about the box-centre plane of a mirrored axis, 0 for an
    axis that is not mirrored. With no mirrored axis the one sector is FULL.
    """
    return list(itertools.product(*((1, -1) if m else (0,) for m in mirror)))


def _folded_shape(shape: tuple, sector: tuple) -> tuple:
    """The sector's folded grid: (n + 1) // 2 nodes along an even axis, (n - 1) // 2 along an odd one."""
    return tuple((n + p) // 2 if p else n for n, p in zip(shape, sector))


def _nodes(sector: tuple) -> tuple:
    """Index of the sector's folded grid in the fold of a (..., fold) array.

    An odd axis leaves out its centre plane, where the sector's vectors are 0.
    """
    return (..., *(slice(1, None) if p < 0 else slice(None) for p in sector))


def _scale(a: np.ndarray, sector: tuple, factor: float) -> np.ndarray:
    """a, on the sector's folded grid, times factor per mirrored axis a node is off the plane of.

    In place; a may have leading axes.
    """
    for axis, p in enumerate(sector):
        if p:
            np.moveaxis(a, axis - 3, 0)[int(p > 0):] *= factor
    return a


def _rows(a: np.ndarray, sector: tuple) -> np.ndarray:
    """The sector's LOBPCG rows of the fold arrays a, a fresh array.

    Off-plane values are stored times sqrt 2, so plain dot products and
    norms of the rows are those of the full vectors.
    """
    return _scale(a[_nodes(sector)].copy(), sector, SQRT_TWO)


def _plain(x: np.ndarray, sector: tuple, out: np.ndarray) -> None:
    """Write into the fold arrays out the vectors whose sector's rows are x (`_rows`)."""
    out.fill(0.0)  # an odd axis' centre plane
    view = out[_nodes(sector)]
    np.copyto(view, x.reshape(view.shape))
    _scale(view, sector, SQRT_HALF)


def apply_hamiltonian(grid: Grid3D, v: np.ndarray, psi: np.ndarray,
                      out: np.ndarray | None = None, sector: tuple = FULL) -> np.ndarray:
    """(-1/2 Lap_h + V) psi with psi = 0 outside the box.

    psi is one array or a (k, ...) block of them on the sector's folded
    grid (`_rows`), and v the potential there; the FULL sector's grid is
    the box. The result is written into `out`, an array of psi's shape
    that stores each vector contiguously and does not overlap psi, when
    one is given, and returned.

    An odd axis of the sector is an ordinary Dirichlet half box: its
    centre plane, where the vector is 0, lies just outside the fold. An
    even axis keeps the centre plane as its node 0, whose mirror image of
    node 1 is node 1 itself; with the fold's sqrt 2 scaling this makes the
    coupling of nodes 0 and 1 sqrt 2 instead of 1, and the operator stays
    symmetric.

    The neighbours are added in the order +x, -x, +y, -y, +z, -z, each as
    one shift of the flat vectors: a y or z shift also adds across the
    face it wraps onto, and that face is put back, so every sum is the one
    a shift of the 3D array would make. The potential term is added one
    vector at a time through one grid-sized scratch; beyond it and out,
    only face-sized arrays are made.
    """
    h2 = grid.h**2
    if out is None:
        out = np.empty(np.shape(psi))
    shape = _folded_shape(grid.shape, sector)
    n = math.prod(shape)
    o, p = out.reshape(-1, n), np.reshape(psi, (-1, n))
    if not np.may_share_memory(o, out):
        raise ValueError("out must store each vector contiguously")
    plane, row = n // shape[0], shape[2]
    # a ufunc, not an assignment: numpy copies the whole source of an
    # assignment whose bounds overlap out's, as LOBPCG's interleaved rows do
    np.positive(p[:, plane:], out=o[:, :-plane])
    o[:, -plane:] = 0.0
    o[:, plane:] += p[:, :-plane]
    for step, face in ((row, np.s_[..., -1, :]), (-row, np.s_[..., 0, :]),
                       (1, np.s_[..., -1]), (-1, np.s_[..., 0])):
        keep = out[face].copy()
        if step > 0:
            o[:, :-step] += p[:, step:]
        else:
            o[:, -step:] += p[:, :step]
        out[face] = keep
    for axis in (axis for axis, parity in enumerate(sector) if parity > 0):
        o3, p3 = o.reshape(-1, *shape), p.reshape(-1, *shape)
        centre, near = ((slice(None),) * (axis + 1) + (j,) for j in (0, 1))
        o3[centre] += (math.sqrt(2.0) - 1.0) * p3[near]
        o3[near] += (math.sqrt(2.0) - 1.0) * p3[centre]
    out *= -0.5 / h2
    # (v + 3/h^2) psi one vector at a time, through one grid-sized scratch
    scratch, vf = np.empty(n), np.reshape(v, n)
    for oj, pj in zip(o, p):
        np.add(vf, 3.0 / h2, out=scratch)
        scratch *= pj
        oj += scratch
    return out


def _preconditioner(grid: Grid3D, c_shift: float, sector: tuple = FULL):
    """Inverse of -1/2 Lap_h + c_shift via float32 sine transforms, on (a, n) rows.

    It kills the stiff Laplacian part of the error in one apply. The shift
    weights the smooth part: LOBPCG converges fastest when -1/2 Lap_h +
    c_shift is close to H - sigma, sigma a little below the Ritz values
    sought. `lowest_eigenpairs` passes 1 + 0.1 max(0, -min V), a few Ha,
    for bound states (the guard's 0.1 Ha there broke the C, N and O
    atoms); the guard, near 0 Ha on box-continuum states, gets GUARD_SHIFT.

    The rows live on the sector's folded grid, on which -1/2 Lap_h is
    diagonal in a product basis too: an unmirrored axis of length n takes
    the sine modes S_n, an odd axis, a Dirichlet half box of length m,
    takes S_m, and an even axis takes the odd modes of S_n folded as the
    sector folds its vectors (`_sine_columns`), with the odd-mode
    eigenvalues.

    apply(r, work) overwrites the C-contiguous float64 rows r with their
    preconditioned images. work, a C-contiguous float64 array of r's shape
    that it overwrites too, is viewed as two float32 blocks of r's shape:
    r is rounded into the first, both transforms ping-pong between them,
    and the image is copied back into r, so an apply allocates no
    grid-sized array; the float32 rounding only perturbs the search
    directions. The grid of inverse eigenvalues is made once per solve,
    in float32 from float32 axis terms (CHANGES.md has the timings).
    """
    f32 = np.dtype(np.float32)
    shape = _folded_shape(grid.shape, sector)
    cols, lams = [], []
    for n, m, p in zip(grid.shape, shape, sector):
        if p > 0:
            cols.append(_sine_columns(n, True, f32))
            lams.append(0.5 * _dst_eigenvalues(n, grid.h)[0::2])
        else:
            cols.append(_sine_columns(m, False, f32))
            lams.append(0.5 * _dst_eigenvalues(m, grid.h))
    lx, ly, lz = lams
    inv = (lx + c_shift).astype(f32)[:, None, None] + ly.astype(f32)[:, None] + lz.astype(f32)
    np.reciprocal(inv, out=inv)
    # the forward transform is C^T along each axis, the inverse C, both z, y, x
    forward = [(axis, cols[axis][::-1]) for axis in (2, 1, 0)]
    inverse = [(axis, cols[axis]) for axis in (2, 1, 0)]

    def apply(r, work):
        rows = (len(r), *shape)
        lo, hi = work.reshape(-1).view(f32).reshape(2, *rows)
        np.copyto(lo, r.reshape(rows))
        t = _axis_products(lo, forward, hi, lo)
        t *= inv
        np.copyto(r.reshape(rows), _axis_products(t, inverse, lo, t))
        return r

    return apply


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T for rows much longer than they are many.

    Summed over column chunks that stay in cache: BLAS runs one product
    with an inner dimension of a whole grid about three times slower.
    """
    step = max(512, 2**15 // len(a))
    g = a[:, :step] @ b[:, :step].T
    for i in range(step, a.shape[1], step):
        g += a[:, i : i + step] @ b[:, i : i + step].T
    return g


def _update_rows(coef: np.ndarray, rows: np.ndarray, scratch: np.ndarray) -> None:
    """rows[:q] = coef.T @ rows[:m] in place, coef of shape (m, q).

    One column chunk at a time through scratch, a (q, chunk) array: each
    output column reads only its own input column, and is the same
    m-term product a single matmul forms, so the rows come out equal to
    the bit.
    """
    m, q = coef.shape
    step = scratch.shape[1]
    for i in range(0, rows.shape[1], step):
        block = rows[:m, i : i + step]
        out = np.matmul(coef.T, block, out=scratch[:, : block.shape[1]])
        rows[:q, i : i + step] = out


def _project_out(w: np.ndarray, y: np.ndarray, work: np.ndarray, vol: float) -> None:
    """w -= vol (w @ y.T) @ y in place, for rows y orthonormal under vol times the dot.

    The product goes in work.
    """
    c = w @ y.T
    c *= vol
    w -= np.matmul(c, y, out=work[: len(w)])


def _ritz(b: np.ndarray, a: np.ndarray, k: int):
    """Lowest k pairs of the pencil (a, b) on the well-conditioned part of b.

    b is scaled to unit diagonal and diagonalized; directions whose
    eigenvalue falls below DROP_TOL times the largest are dependent on the
    rest of the basis and are dropped, as Duersch et al. do. The Ritz
    vectors of a degenerate cluster are fixed only up to a rotation; the
    one closest to the current X (the first k basis rows) is taken, so a
    converged warm start comes back as it went in rather than with its
    residuals mixed. Returns the Ritz values and the coefficient columns,
    b-orthonormal.
    """
    s = 1.0 / np.sqrt(np.maximum(np.diag(b), np.finfo(float).tiny))
    d, u = np.linalg.eigh(b * s[:, None] * s)
    keep = d > DROP_TOL * d[-1]
    if np.count_nonzero(keep) < k:
        raise ValueError("start vectors are linearly dependent")
    t = s[:, None] * (u[:, keep] / np.sqrt(d[keep]))
    vals, c = np.linalg.eigh(t.T @ (0.5 * (a + a.T)) @ t)
    vals, c = vals[:k], t @ c[:, :k]
    gaps = np.diff(vals) > DEGENERATE_TOL * np.maximum(1.0, np.abs(vals[1:]))
    for j in np.split(np.arange(k), np.flatnonzero(gaps) + 1):
        if len(j) > 1:
            # the rotation Q maximizing trace(X_j^T V_j Q), V_j the cluster's vectors
            u, _, wt = np.linalg.svd(b[j] @ c[:, j])
            c[:, j] = c[:, j] @ (u @ wt).T
    return vals, c


def lobpcg(grid: Grid3D, v: np.ndarray, x: np.ndarray, c_shift: float, tol: float,
           maxiter: int, constraints: np.ndarray | None = None, sector: tuple = FULL):
    """Lowest Ritz pairs of H = -1/2 Lap_h + V from the k start rows x.

    x, v and the returned rows live on the sector's folded grid (`_rows`;
    `apply_hamiltonian`), and "grid array" below means an array of that
    grid; the FULL sector's grid is the box.

    Each iteration replaces X by the k lowest Ritz vectors of H on the
    span of [X, P, W]: W holds the preconditioned residuals of the columns
    whose residual norm exceeds tol, P the last update of those columns
    (converged columns stay in X but get neither). The Gram pair of the
    basis comes from one block product. It stops when no column exceeds
    tol, or after maxiter iterations. The rows of `constraints`, orthonormal
    under the grid inner product (h^3 sum) as the orbitals are, are read in
    place and projected out of x and of every W, and H acts as Q H Q, Q the
    projector onto their complement. c_shift is the shift of the
    preconditioner (see _preconditioner). x is read, not written.

    A solve holds at most 8k + 1.5 grid arrays beside x: the rows of
    [X, P, W] beside their images under H (6k), the residual rows (k) and
    their work rows (k), the preconditioner's float32 inverse eigenvalues
    and apply_hamiltonian's scratch. The Ritz update overwrites the basis
    in place (_update_rows), and the Ritz vectors are returned in the
    residual rows.

    Returns (vals, x, resids, history): ascending Ritz values, orthonormal
    Ritz rows, the residual norms |H x - val x| taken from the final H x,
    and the largest residual norm before each iteration.
    """
    shape, (k, n) = _folded_shape(grid.shape, sector), x.shape
    y, vol = constraints, grid.cell_volume
    precond = _preconditioner(grid, c_shift, sector)
    # each basis row holds a vector and its image: X, then P, then W
    basis = np.empty((3 * k, 2, n))
    scratch = np.empty((2 * k, min(max(1, RITZ_SCRATCH // (2 * k)), 2 * n)))
    r, work = np.empty((k, n)), np.empty((k, n))

    def fill(rows, w):
        rows[:, 0] = w
        if y is not None:
            _project_out(rows[:, 0], y, work, vol)
        apply_hamiltonian(grid, v, rows[:, 0].reshape(-1, *shape),
                          out=rows[:, 1].reshape(-1, *shape), sector=sector)
        if y is not None:
            _project_out(rows[:, 1], y, work, vol)

    fill(basis[:k], x)
    m = k
    history = []
    for it in range(maxiter + 1):
        g = _gram(basis[:m, 0], basis[:m].reshape(2 * m, n))
        vals, c = _ritz(g[:, 0::2], g[:, 1::2], k)
        coef = np.zeros((m, 2 * k))
        coef[:, :k] = c
        coef[k:, k:] = c[k:]  # P: the part of the update outside X
        _update_rows(coef, basis.reshape(3 * k, 2 * n), scratch)
        np.multiply(basis[:k, 0], vals[:, None], out=r)
        r -= basis[:k, 1]
        resids = np.sqrt(np.einsum("ij,ij->i", r, r))
        history.append(float(resids.max()))
        active = resids > tol
        a = int(np.count_nonzero(active))
        if it == maxiter or not a:
            break
        p = a if it else 0
        # gather the active rows of P and of r to the front, in order
        for i, j in enumerate(np.flatnonzero(active)):
            if i != j:
                if it:
                    basis[k + i] = basis[k + j]
                r[i] = r[j]
        fill(basis[k + p : k + p + a], precond(r[:a], work[:a]))
        m = k + p + a
    # the Ritz vectors go into the residual rows, so returning them allocates nothing
    del work, scratch, precond
    np.copyto(r, basis[:k, 0])
    return vals, r, resids, history


def lowest_eigenpairs(
    grid: Grid3D,
    v: np.ndarray,
    count: int,
    tol: float = 1e-7,
    maxiter: int = EIG_MAXITER,
    initial=None,
    mirror: tuple = (False, False, False),
):
    """Lowest `count` eigenpairs of -1/2 Lap_h + v on grid to `tol`.

    mirror says, per axis, that v is symmetric about the box-centre plane;
    a mirrored axis must have an odd number of nodes, so that the plane
    holds one. v is given on the fold of those axes (`grids.FoldedGrid`),
    which with no mirrored axis is the box. Each sector, one parity per
    mirrored axis (`_sectors`), is solved on its own folded grid; with no
    mirrored axis the one sector is the box.

    LOBPCG iterates only the `count` wanted vectors until every residual
    norm is at most tol / 10; EigenError is raised if the final residuals
    miss tol * max(1, max |eps|). `initial` warm-starts the first of them:
    a pair (rows, sectors) of fold arrays (flat or of the fold's shape),
    one per row, each with its sector, as this function returns them; a
    row's values off its sector's folded grid are not read. The rows so set
    how many states each sector solves; those `initial` does not cover
    start random in the all-even sector. Each sector copies its rows into
    its own start block. A row that does not hold one value per node of
    the fold, or a sector that is not one of `_sectors(mirror)`, raises
    GridError.

    Returns (eps, orbitals, residuals, sectors). eps holds the eigenvalues,
    nondecreasing. orbitals is one (count, ...) block of them on the fold,
    orthonormal under the fold's integral (h^3 sum on the box), and sectors
    holds each one's sector; with no mirrored axis the fold is the box and
    every sector is FULL. residuals holds the norm |H psi - eps psi| h^(3/2)
    of each pair, the numbers the residual check compared with
    tol * max(1, max |eps|).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not isinstance(grid, Grid3D):
        raise GridError("lowest_eigenpairs expects a 3D grid")
    if any(m and d % 2 == 0 for m, d in zip(mirror, grid.shape)):
        raise GridError("a mirrored axis must have an odd number of nodes")
    folded = FoldedGrid(grid, mirror)
    if np.shape(v) != folded.shape:
        raise GridError("the potential must be given on the fold of the mirrored axes")
    if not np.all(np.isfinite(v)):
        raise GridError("potential must be finite at all nodes")
    if count > grid.n_points:
        raise ValueError("count must not exceed the number of grid points")

    sectors = _sectors(mirror)
    rows, tags = ((), ()) if initial is None else initial
    k = min(len(rows), count)
    warm = {s: [] for s in sectors}
    for j in range(k):
        a, s = rows[j], tags[j]
        if np.size(a) != math.prod(folded.shape):
            raise GridError("a start row must hold one value per node of the fold")
        if s not in warm:
            raise GridError(f"start sector {s} is not a sector of the mirrored axes")
        warm[s].append(a)
    counts = {s: len(warm[s]) for s in sectors}
    counts[sectors[0]] += count - k

    # unit rows x are orbitals times h^(3/2), so |H x - eps x| is the
    # reported |H psi - eps psi| h^(3/2)
    c_shift = 1.0 + max(0.0, -float(v.min())) * 0.1
    parts = []  # (sector, vals, rows, residuals, history) per solved sector
    for s in (s for s in sectors if counts[s]):
        shape = _folded_shape(grid.shape, s)
        if counts[s] > math.prod(shape):
            raise ValueError(f"count must not exceed the number of grid points "
                             f"of sector {s}")
        start = np.empty((counts[s], math.prod(shape)))
        m = len(warm[s])
        for row, a in zip(start, warm[s]):
            np.copyto(row.reshape(shape), np.reshape(a, folded.shape)[_nodes(s)])
        _scale(start[:m].reshape(m, *shape), s, SQRT_TWO)
        np.random.default_rng(EIG_SEED).standard_normal(out=start[m:])
        warm[s] = None
        vals, x, residuals, history = lobpcg(grid, np.ascontiguousarray(v[_nodes(s)]), start,
                                             c_shift, 0.1 * tol, maxiter, sector=s)
        del start
        x /= math.sqrt(grid.cell_volume)
        parts.append((s, vals, x, residuals, history))

    eps = np.concatenate([part[1] for part in parts])
    residuals = np.concatenate([part[3] for part in parts])
    bound = tol * max(1.0, float(np.max(np.abs(eps))))
    best = float(np.max(residuals))
    if not best <= bound:  # NaN fails too
        history = next(part[4] for part in parts if not float(np.max(part[3])) <= bound)
        raise EigenError(
            f"eigensolver did not reach residual tolerance (best residual "
            f"{best:.3e} after {len(history) - 1} iterations)",
            history,
        )
    order = np.argsort(eps, kind="stable")
    found = [(s, row) for s, _, x, _, _ in parts for row in x]
    orbitals = np.empty((count, *folded.shape))
    for out, j in zip(orbitals, order):
        _plain(found[j][1], found[j][0], out)
    return eps[order], orbitals, residuals[order], tuple(found[j][0] for j in order)


def guard_eigenpair(grid: Grid3D, v: np.ndarray, orbitals: np.ndarray,
                    start: np.ndarray | None = None, sector: tuple = FULL):
    """Loosely converged lowest state of H compressed to the complement of orbitals.

    v, the orbital rows and the guard live on the sector's folded grid
    (`_rows`), the box for FULL. LOBPCG improves one guard vector on
    Q H Q, Q the projector onto the orthogonal complement of the orbitals,
    which it reads in place, until its residual norm reaches GUARD_TOL / 2;
    the compression keeps the orbitals' own residuals (up to their
    tolerance) from putting a floor under the guard's. With no orbitals,
    H is not compressed. LOBPCG minimizes the Rayleigh quotient, so a
    guard started with weight on every state settles on the lowest one it
    is free to take: the default start is random, and `start` (a flat
    vector) replaces it. A guard that does not settle raises EigenError
    with its residual history.

    Returns (theta, rho, vector): the guard's Ritz value and residual norm
    on Q H Q, which has an eigenvalue within rho of theta, and the flat
    vector, normalized and orthogonal to the orbitals.
    """
    n, k = math.prod(_folded_shape(grid.shape, sector)), len(orbitals)
    if k + 1 > n:
        raise ValueError("orbitals must leave a grid state for the guard")
    if start is None:
        x = np.random.default_rng(EIG_SEED).standard_normal((1, n))
    else:
        x = np.reshape(start, (1, n))
    vals, x, rho, history = lobpcg(grid, v, x, GUARD_SHIFT, 0.5 * GUARD_TOL, GUARD_MAXITER,
                                   np.reshape(orbitals, (k, n)) if k else None, sector)
    theta, rho = float(vals[0]), float(rho[0])
    if not rho <= GUARD_TOL * max(1.0, abs(theta)):
        raise EigenError(
            f"guard vector did not settle (residual {rho:.3e} at Ritz value "
            f"{theta:.8g} after {len(history) - 1} iterations)",
            history,
        )
    return theta, rho, x[0] / math.sqrt(grid.cell_volume)


def occupied_eigenpairs(
    grid: Grid3D,
    v: np.ndarray,
    n: float,
    q: float,
    tol: float,
    solved,
    guards: dict | None = None,
    mirror: tuple = (False, False, False),
):
    """Eigenpairs and aufbau occupations of the states that hold n electrons.

    Starts from `solved`, the (eps, orbitals, residuals, sectors) of a
    lowest_eigenpairs result on this potential, given on the fold of the
    mirrored axes `mirror`. The Fermi-level shell must close inside the
    block: the lower estimate theta - rho of the next eigenvalue must exceed
    eps_F + FERMI_DEGENERACY_TOL. H is block-diagonal over the sectors, so
    a guard runs in each sector, constrained by that sector's orbitals
    only, and the smallest theta - rho of them is the estimate; a sector
    its orbitals fill has nothing to guard. While the shell does not close,
    the block grows by one state in the sector of that guard, warm-started
    from the orbitals and that guard vector, and is solved again. `guards`
    maps sectors to the guard vectors that warm-start their next runs; the
    other guards start random. When the block cannot grow (the grown block
    and its guard would not fit in the grid), EigenError is raised with the
    margins theta - rho - eps_F tried; a guard that does not settle raises
    from guard_eigenpair.

    The SCF keeps the returned block size and runs this check on its first
    step and on the step it converges at, not on the steps between.

    Returns (solved, occupations, guards, margin): the lowest_eigenpairs
    result of the accepted block, its aufbau occupations, each sector's
    settled guard vector and the accepted theta - rho - eps_F.
    """
    guards = dict(guards or {})
    margins = []
    while True:
        eps, orbitals, _, sectors = solved
        count = len(eps)
        occ = aufbau_occupations(eps, np.full(count, float(q)), n)
        eps_f = float(np.max(eps[occ > 0.0]))
        lowest = (math.inf,)  # (theta - rho, theta, rho, sector) of the lowest guard
        for s in _sectors(mirror):
            own = [j for j, t in enumerate(sectors) if t == s]
            if len(own) < math.prod(_folded_shape(grid.shape, s)):  # else they fill the sector
                rows = _rows(orbitals[own], s)
                theta, rho, guards[s] = guard_eigenpair(grid, np.ascontiguousarray(v[_nodes(s)]),
                                                        rows, guards.get(s), s)
                lowest = min(lowest, (theta - rho, theta, rho, s))
        margins.append(lowest[0] - eps_f)
        if margins[-1] > FERMI_DEGENERACY_TOL:
            return solved, occ, guards, margins[-1]
        _, theta, rho, s = lowest
        if count + 2 > grid.n_points:
            raise EigenError(
                f"Fermi shell at {eps_f:.8g} Ha does not close inside {count} "
                f"states: guard {theta:.8g} Ha with residual {rho:.3e}",
                margins,
            )
        state = np.empty(orbitals.shape[1:])
        _plain(guards.pop(s), s, state)
        solved = lowest_eigenpairs(grid, v, count + 1, tol=tol,
                                   initial=([*orbitals, state], (*sectors, s)), mirror=mirror)


def residual_norms(grid: Grid3D, v: np.ndarray, eps, orbitals, sectors) -> list:
    """|H psi - eps psi| h^(3/2) of each pair, v and the orbitals on the fold.

    Each orbital is applied as its sector's rows, on which the fold is an
    isometry (`_rows`).
    """
    norms = []
    for e, orb, s in zip(eps, orbitals, sectors):
        x = _rows(orb, s)
        hx = apply_hamiltonian(grid, np.ascontiguousarray(v[_nodes(s)]), x, sector=s)
        hx -= x * e
        norms.append(float(np.linalg.norm(hx)) * math.sqrt(grid.cell_volume))
    return norms
