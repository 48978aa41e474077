"""Lowest eigenpairs of -1/2 Lap + V on the 3D box (Dirichlet walls).

A block preconditioned solver (scipy's LOBPCG, preconditioned by the exact
sine-transform inverse of -1/2 Lap_h + c) computes the few lowest states;
small boxes can be checked against dense diagonalization.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import LinearOperator, lobpcg

from .grids import Grid3D, GridError, ScalarField
from .poisson import _dst_eigenvalues, sine_transform

EIG_SEED = 7  # random start vectors beyond the warm-start columns


class EigenError(RuntimeError):
    """Krylov stagnation: residual tolerance not reached."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(f"{message} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


def apply_hamiltonian(grid: Grid3D, v: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """(-1/2 Lap_h + V) psi with psi = 0 outside the box.

    psi is one (nx, ny, nz) array or a (k, nx, ny, nz) block of them.
    """
    h2 = grid.h**2
    out = (6.0 * psi) / (2.0 * h2) + v * psi
    out[..., :-1, :, :] -= psi[..., 1:, :, :] / (2.0 * h2)
    out[..., 1:, :, :] -= psi[..., :-1, :, :] / (2.0 * h2)
    out[..., :, :-1, :] -= psi[..., :, 1:, :] / (2.0 * h2)
    out[..., :, 1:, :] -= psi[..., :, :-1, :] / (2.0 * h2)
    out[..., :, :, :-1] -= psi[..., :, :, 1:] / (2.0 * h2)
    out[..., :, :, 1:] -= psi[..., :, :, :-1] / (2.0 * h2)
    return out


def _block_operator(shape: tuple, apply_block) -> LinearOperator:
    """LinearOperator on (n, k) columns from a map of (k, *shape) grid blocks."""
    n = int(np.prod(shape))

    def matmat(x):
        k = x.shape[1]
        return apply_block(x.T.reshape(k, *shape)).reshape(k, n).T

    return LinearOperator(
        (n, n), matvec=lambda x: matmat(x.reshape(n, 1)), matmat=matmat, dtype=float
    )


def hamiltonian_operator(grid: Grid3D, v: np.ndarray) -> LinearOperator:
    return _block_operator(grid.shape, lambda psi: apply_hamiltonian(grid, v, psi))


def dense_hamiltonian(grid: Grid3D, v: np.ndarray) -> np.ndarray:
    """Dense matrix of the same operator; oracle for small boxes only."""
    n = grid.n_points
    if n > 4096:
        raise GridError("dense oracle limited to 16^3 boxes")
    H = np.zeros((n, n))
    eye = np.eye(n)
    for j in range(n):
        H[:, j] = apply_hamiltonian(grid, v, eye[:, j].reshape(grid.shape)).ravel()
    return 0.5 * (H + H.T)


def lowest_eigenpairs(
    potential: ScalarField,
    count: int,
    degeneracy_budget: int = 2,
    tol: float = 1e-7,
    maxiter: int = 300,
    initial: np.ndarray | None = None,
):
    """Lowest `count` eigenpairs, solving for count + degeneracy_budget states.

    Returns (eigenvalues, orbitals) with eigenvalues nondecreasing and
    orbitals orthonormal under the grid inner product (h^3 sum).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    grid = potential.grid
    if not isinstance(grid, Grid3D):
        raise GridError("lowest_eigenpairs expects a 3D potential")
    v = potential.values
    if not np.all(np.isfinite(v)):
        raise GridError("potential must be finite at all nodes")

    nev = count + max(0, degeneracy_budget)
    n = grid.n_points
    nev = min(nev, max(1, n - 1))
    A = hamiltonian_operator(grid, v)

    # spectral preconditioner: exact inverse of -1/2 Lap_h + c via sine
    # transforms; kills the stiff Laplacian part of the error in one apply
    shape = grid.shape
    c_shift = 1.0 + max(0.0, -float(v.min())) * 0.1
    lx, ly, lz = (0.5 * _dst_eigenvalues(m, grid.h) for m in shape)
    denom = lx[:, None, None] + ly[None, :, None] + lz[None, None, :] + c_shift
    M = _block_operator(shape, lambda b: sine_transform(sine_transform(b) / denom))

    rng = np.random.default_rng(EIG_SEED)
    if initial is not None and initial.shape == (n, nev):
        X = initial.copy()
    else:
        X = rng.standard_normal((n, nev))
        if initial is not None:
            k = min(initial.shape[1], nev)
            X[:, :k] = initial[:, :k]

    import warnings

    with np.errstate(all="ignore"), warnings.catch_warnings():
        # our own residual check below is the authority, not lobpcg's
        warnings.simplefilter("ignore", UserWarning)
        vals, vecs = lobpcg(A, X, M=M, tol=tol * 0.1, maxiter=maxiter, largest=False)
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]

    # orthonormalize under the h^3 inner product
    w = np.sqrt(grid.cell_volume)
    q, _ = np.linalg.qr(vecs * w)
    vecs = q / w

    # Rayleigh-Ritz in the orthonormal basis to restore eigen structure
    Av = A.matmat(vecs)
    small = (vecs * grid.cell_volume).T @ Av
    small = 0.5 * (small + small.T)
    s_vals, s_vecs = np.linalg.eigh(small)
    vecs = vecs @ s_vecs
    vals = s_vals

    # residual check on the reported pairs; A (V S) = (A V) S
    vecs = vecs[:, :count]
    r = Av @ s_vecs[:, :count] - vals[:count] * vecs
    best = float(np.sqrt(np.max(np.sum(r * r, axis=0)) * grid.cell_volume))
    pairs = [
        (float(vals[j]), ScalarField(grid=grid, values=vecs[:, j].reshape(grid.shape)))
        for j in range(count)
    ]
    if best > tol * max(1.0, float(np.max(np.abs(vals[:count])))):
        raise EigenError("eigensolver did not reach residual tolerance", best)
    return pairs
