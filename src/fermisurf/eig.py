"""Lowest eigenpairs of -1/2 Lap + V on the 3D box (Dirichlet walls).

A block preconditioned solver (scipy's LOBPCG, preconditioned by the exact
sine-transform inverse of -1/2 Lap_h + c) converges only the wanted
states. One guard vector in their orthogonal complement is converged
loosely; its Ritz value and residual tell `occupied_eigenpairs` whether
the Fermi-level shell closes inside the occupied states, and the block
grows until it does. Small boxes can be checked against dense
diagonalization.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.sparse.linalg import LinearOperator, lobpcg

from .grids import Grid3D, GridError, ScalarField
from .ks_common import FERMI_DEGENERACY_TOL, aufbau_occupations
from .poisson import _dst_eigenvalues, sine_transform

EIG_SEED = 7  # random start vectors beyond the warm-start columns
EIG_MAXITER = 500  # LOBPCG iterations allowed for the wanted states
EIG_ATTEMPTS = 2  # LOBPCG runs on the wanted states before giving up
GUARD_TOL = 1e-3  # residual norm (relative above 1 Ha) of a settled guard
GUARD_MAXITER = 200  # LOBPCG iterations allowed for the guard
GUARD_ROOM = 5  # grid states scipy's LOBPCG needs to iterate one guard vector


class EigenError(RuntimeError):
    """Eigensolver failure; carries its history.

    The history holds the per-iteration maximum residual norm of the block
    when the residual tolerance was missed, and the guard margins
    theta - rho - eps_F tried when a Fermi shell could not be closed.
    """

    def __init__(self, message: str, history):
        super().__init__(message)
        self.history = [float(v) for v in history]


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
    tol: float = 1e-7,
    maxiter: int = EIG_MAXITER,
    initial: np.ndarray | None = None,
):
    """Lowest `count` eigenpairs to `tol`, plus a loosely converged guard.

    LOBPCG iterates only the `count` wanted vectors. A second LOBPCG run
    then improves one guard vector on the Hamiltonian compressed to their
    orthogonal complement until its residual norm reaches GUARD_TOL.
    EigenError is raised if either run misses its tolerance. `initial`
    holds warm-start columns: the first `count` start the wanted block
    and a further one starts the guard.

    Returns (pairs, guard). pairs is a list of (eigenvalue, ScalarField)
    with eigenvalues nondecreasing and orbitals orthonormal under the grid
    inner product (h^3 sum). guard is (theta, rho, vector): the guard's
    Ritz value and residual norm on the compressed Hamiltonian, which has
    an eigenvalue within rho of theta, and the flat vector, normalized
    and orthogonal to the pairs.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    grid = potential.grid
    if not isinstance(grid, Grid3D):
        raise GridError("lowest_eigenpairs expects a 3D potential")
    v = potential.values
    if not np.all(np.isfinite(v)):
        raise GridError("potential must be finite at all nodes")
    n = grid.n_points
    if count > n - GUARD_ROOM:
        raise ValueError(f"count must leave {GUARD_ROOM} grid states for the guard")
    A = hamiltonian_operator(grid, v)

    # spectral preconditioner: exact inverse of -1/2 Lap_h + c via sine
    # transforms; kills the stiff Laplacian part of the error in one apply
    shape = grid.shape
    c_shift = 1.0 + max(0.0, -float(v.min())) * 0.1
    lx, ly, lz = (0.5 * _dst_eigenvalues(m, grid.h) for m in shape)
    denom = lx[:, None, None] + ly[None, :, None] + lz[None, None, :] + c_shift
    M = _block_operator(shape, lambda b: sine_transform(sine_transform(b) / denom))

    X = np.random.default_rng(EIG_SEED).standard_normal((n, count + 1))
    if initial is not None:
        k = min(initial.shape[1], count + 1)
        X[:, :k] = initial[:, :k]

    vol = grid.cell_volume
    w = np.sqrt(vol)
    start = X[:, :count]
    history = []
    for _ in range(EIG_ATTEMPTS):
        with np.errstate(all="ignore"), warnings.catch_warnings():
            # our own residual checks below are the authority, not lobpcg's
            warnings.simplefilter("ignore", UserWarning)
            vals, vecs, *rnorms = lobpcg(
                A, start, M=M, tol=tol * 0.1, maxiter=maxiter, largest=False,
                retResidualNormsHistory=True,
            )
        # scipy solves tiny problems densely and then keeps no history
        history += [float(np.max(r)) for r in next(iter(rnorms), [])]

        # orthonormalize under the h^3 inner product
        q, _ = np.linalg.qr(vecs * w)
        vecs = q / w

        # Rayleigh-Ritz in the orthonormal basis to restore eigen structure
        Av = A.matmat(vecs)
        small = (vecs * vol).T @ Av
        small = 0.5 * (small + small.T)
        vals, s_vecs = np.linalg.eigh(small)
        vecs = vecs @ s_vecs

        # residual check on the reported pairs; A (V S) = (A V) S
        r = Av @ s_vecs - vals * vecs
        best = float(np.sqrt(np.max(np.sum(r * r, axis=0)) * vol))
        if best <= tol * max(1.0, float(np.max(np.abs(vals)))):
            break
        # scipy also stops early when its search basis degenerates, which a
        # restart from the Ritz vectors it reached clears
        start = vecs
    else:
        raise EigenError(
            f"eigensolver did not reach residual tolerance (best residual "
            f"{best:.3e} after {len(history)} iterations)",
            history,
        )

    # the guard iterates on A compressed to the complement of the wanted
    # states, so their residuals (up to tol) do not put a floor under its own
    def project_out(x):
        return x - vecs @ ((vecs * vol).T @ x)

    def compressed(x):
        return project_out(A.matmat(project_out(x)))

    Ac = LinearOperator((n, n), matvec=lambda x: compressed(x.reshape(n, 1)),
                        matmat=compressed, dtype=float)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        _, y, rnorms = lobpcg(
            Ac, X[:, count:], M=M, Y=vecs, tol=0.5 * GUARD_TOL,
            maxiter=GUARD_MAXITER, largest=False, retResidualNormsHistory=True,
        )
    y = project_out(y)
    y /= np.sqrt(vol * np.sum(y * y))
    hy = compressed(y)
    theta = float(vol * np.sum(y * hy))
    rho = float(np.sqrt(vol * np.sum((hy - theta * y) ** 2)))
    y = y[:, 0]
    if rho > GUARD_TOL * max(1.0, abs(theta)):
        raise EigenError(
            f"guard vector did not settle (residual {rho:.3e} at Ritz value "
            f"{theta:.8g} after {len(rnorms)} iterations)",
            [float(np.max(r)) for r in rnorms],
        )

    pairs = [
        (float(vals[j]), ScalarField(grid=grid, values=vecs[:, j].reshape(grid.shape)))
        for j in range(count)
    ]
    return pairs, (theta, rho, y)


def occupied_eigenpairs(
    potential: ScalarField,
    n: float,
    q: float,
    tol: float,
    initial: np.ndarray | None = None,
):
    """Eigenpairs and aufbau occupations of the states that hold n electrons.

    Converges the ceil(n / q) lowest states and checks that the Fermi-level
    shell closes inside them: the guard's lower estimate theta - rho of
    the next eigenvalue must exceed eps_F + FERMI_DEGENERACY_TOL. While it
    does not, the block grows by one state and is solved again. LOBPCG
    minimizes the Rayleigh quotient, so a guard started with weight on
    every state settles on the lowest one it is free to take. When the
    block cannot grow (it would leave fewer than GUARD_ROOM grid states),
    EigenError is raised with the margins theta - rho - eps_F tried; a
    guard that does not settle raises from lowest_eigenpairs.

    Returns (pairs, occupations, block); block holds the orbitals and the
    guard as columns, the warm start of the next call.
    """
    count = int(math.ceil(n / q))
    margins = []
    while True:
        pairs, (theta, rho, guard) = lowest_eigenpairs(
            potential, count, tol=tol, initial=initial
        )
        eig = np.array([p[0] for p in pairs])
        occ = aufbau_occupations(eig, np.full(count, float(q)), n)
        eps_f = float(np.max(eig[occ > 0.0]))
        margins.append(theta - rho - eps_f)
        initial = np.column_stack([*(p[1].values.ravel() for p in pairs), guard])
        if margins[-1] > FERMI_DEGENERACY_TOL:
            return pairs, occ, initial
        if count + 1 > potential.grid.n_points - GUARD_ROOM:
            raise EigenError(
                f"Fermi shell at {eps_f:.8g} Ha does not close inside {count} "
                f"states: guard {theta:.8g} Ha with residual {rho:.3e}",
                margins,
            )
        count += 1
