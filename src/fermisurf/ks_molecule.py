"""Kohn-Sham LDA self-consistent field on a 3D box.

Orbitals come from the sparse eigensolver applied to the effective
Hamiltonian -1/2 Laplacian + v_eff with v_eff = -V_R + rho * |x|^-1
- g'(rho); only the occupied states are converged. A guard vector checks
that the Fermi-level shell closes inside them on the first step, which
fixes the block size the later steps solve, and again on the step that
converges. The density is Anderson-mixed between sweeps. A problem
symmetric about box-centre planes keeps its SCF on the fold of the box
and solves its eigenproblem in mirror-parity sectors (`scf_molecule`).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .eig import EIG_SEED, apply_hamiltonian, lowest_eigenpairs, occupied_eigenpairs
from .grids import FoldedGrid, Grid3D, ScalarField
from .ks_common import (AndersonMixer, KSState, SCFError, aufbau_occupations,
                        density_change, ks_energy)
from .poisson import poisson_solve, unfold
from .tf_molecule import (
    NuclearConfiguration,
    atomic_superposition,
    check_grid_margin,
    external_potential,
    nuclear_mirror_axes,
)
from .xc import XCFunctional

SCF_MAX_ITER = 120
EIG_TOL = 1e-7  # floor of the per-step eigensolver tolerance


def _density_start(grid: Grid3D, rho: np.ndarray, count: int) -> np.ndarray:
    """Start rows of the first eigensolve, sqrt(rho) p_j normalized.

    The monomials p_j = 1, x, y, z, x^2, xy, ... are taken about the
    charge centre. A tenth of a unit random vector is added to each, so
    every start has weight on the states the monomials miss. Returns
    (count, n_points) rows; each row's noise is drawn straight into it,
    and one grid array holds the monomial term.
    """
    total = rho.sum()
    axes = [a - np.sum(a * rho) / total for a in np.ix_(*grid.axes())]
    monomials = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(3), d) for d in itertools.count()
    )
    rng = np.random.default_rng(EIG_SEED)
    root = np.sqrt(rho)
    rows = np.empty((count, grid.n_points))
    col = np.empty(grid.shape)
    for row, powers in zip(rows, monomials):
        term = root
        for k in powers:
            term = np.multiply(term, axes[k], out=col)
        np.divide(term, np.linalg.norm(term), out=col)
        noise = rng.standard_normal(out=row)
        noise *= 0.1 / np.linalg.norm(noise)
        noise += col.ravel()
    return rows


def _density(folded: FoldedGrid, orbitals: np.ndarray, occ) -> np.ndarray:
    """sum_j occ_j psi_j^2 on the fold, over the (k, nx, ny, nz) orbital block.

    Only the fold's nodes of each unfolded orbital are squared; each
    orbital is exactly even or odd, so this is the fold of a density
    symmetric to the bit.
    """
    rho = np.zeros(folded.shape)
    term = np.empty(folded.shape)
    for lam, orb in zip(occ, orbitals):
        if lam > 0.0:
            rho += np.multiply(np.square(orb[folded.index], out=term), lam, out=term)
    return rho


def _effective_potential(folded: FoldedGrid, rho: np.ndarray, v_ext: np.ndarray,
                         xc: XCFunctional) -> np.ndarray:
    """v_eff = -v_ext + u - g'(rho) on the fold, u the Hartree potential of rho.

    u is dropped once it is added, before the xc term is formed.
    """
    u = poisson_solve(folded.grid, rho, folded.mirror)
    v = np.negative(v_ext)
    v += u
    del u
    v -= xc.derivative(rho)
    return v


def scf_molecule(
    config: NuclearConfiguration,
    N: float,
    xc: XCFunctional,
    grid: Grid3D,
    q: float = 2.0,
    tol: float = 1e-6,
    rho: np.ndarray | None = None,
) -> KSState:
    """Converged molecular KS-LDA state with aufbau occupations.

    The SCF starts from `rho`, a nonnegative density on grid, or by default
    from superposed TF atoms; either is renormalized to N. A given rho is
    taken over, not copied: it is renormalized in place, and its fold (rho
    itself with no mirrored axis) becomes the SCF's first density and is
    written. A rho that breaks the mirror symmetry is folded by taking its
    slice, so the SCF starts from the symmetric density that agrees with
    it on the fold. `bo_ks` passes the superposed densities of the
    point's matched atomic references.

    The block size, the number of states each eigensolve converges, is
    SCF state. The first step's eigensolve starts from the initial density
    and `occupied_eigenpairs` grows the block until the Fermi-level shell
    closes. The steps between solve that many states with no guard. The
    step whose density residual falls below `tol` runs the guard again on
    its own potential, warm-started from the last settled guard vector;
    the SCF returns only if the shell closes there, and otherwise goes on
    with the grown block and checks again before it returns. So the
    returned occupied set was checked on the potential that produced it.

    Two residuals per occupied orbital go into meta, both the norm
    |H psi - eps psi| h^(3/2). "stationarity" takes H with the potential
    of the returned density, so it follows where the SCF stopped.
    "eigen_residual" takes H with the potential of the last step, the one
    the eigensolver was given; it is the eigensolver's own residual check
    and lies within that step's tolerance times max(1, max |eps|).
    "block_size" is the number of states the last eigensolve converged and
    "shell_margin" the guard's theta - rho - eps_F of the last shell check,
    the margin by which the returned occupied set was trusted.

    The SCF folds along the mirror planes of config
    (`tf_molecule.nuclear_mirror_axes`) whose axis has an odd number of
    nodes, since the plane must hold nodes (every `GridPolicy` box has odd
    axes). It runs on that fold (`grids.FoldedGrid`), as the TF fixed point
    does: v_ext's values, rho, rho_out, the Hartree potential, v_eff, the
    mixer, `density_change`, `ks_energy` and every Poisson solve, the
    closing ones included, with integrals and the mixer's Gram matrix
    weighing nodes by `grids.fold_weights`. The eigensolves run per
    mirror-parity sector on their own folded grids (`eig`) and return the
    orbitals unfolded, each exactly even or odd, so the squares of their
    fold's nodes give the fold of a density symmetric to the bit. Only
    v_eff, once per step for the eigensolves and once for the stationarity
    pass, and the returned rho are unfolded. The first step's start rows
    are formed on the box before the fold is taken. Each start monomial,
    taken about the charge centre, which lies on every mirrored plane,
    picks its sector: H2 gets one state in (+, +, +), and a homonuclear
    pair with two states gets sigma_g there and sigma_u in (-, +, +). A
    shell check grows the block in the sector that holds most of the
    guard's weight.

    Memory, in grid arrays of the box, with k the block size, M =
    MIX_DEPTH and m mirrored axes; a fold array is about 2^-m of the box.
    Between steps the SCF holds, on the fold, v_ext's values, rho and the
    mixer's 2M + 2 history arrays, and on the box the k orbitals and the
    guard vector. A step forms v_eff on the fold (the Hartree potential u
    is dropped once added) and its unfolded copy (v_eff itself with no
    mirrored axis), copies the (k, nx, ny, nz) orbital block as the k
    warm-start rows and drops the block, and runs one eigensolve of 8k +
    1.5 arrays (see `eig`), of a sector's folded grid, about 2^-m of the
    box, to which the folded start rows and potential add about k + 1. A
    shell check adds rho_out on the fold and the guard's 9.5 arrays of the
    box; the guard reads the k orbitals in place. rho_out is dropped once
    mixed, and the stationarity pass reuses two arrays of the box for
    every orbital. So a step peaks near max(13.5 + 9k, 22.5 + k) arrays
    with no mirrored axis, and near max(2 + k + (9k + 13.5) 2^-m, 11.5 + k
    + 12 2^-m) with m of them.
    """
    if not N > 0.0:
        raise ValueError("N must be positive (use the trivial state for N = 0)")
    if N > config.Z + 1e-12:
        raise ValueError("need N <= Z (existence regime)")
    if not 0.0 < q < math.inf:
        raise ValueError("q must be positive and finite")
    check_grid_margin(grid, config)

    # an axis folds only if its centre plane holds nodes
    mirror = tuple(m and d % 2 == 1
                   for m, d in zip(nuclear_mirror_axes(grid, config), grid.shape))
    folded = FoldedGrid(grid, mirror)
    v_ext = external_potential(folded, config)

    if rho is None:
        rho = atomic_superposition(grid, config)
    elif np.shape(rho) != grid.shape:
        raise ValueError("rho must have the grid's shape")
    rho *= N / grid.integrate(rho)
    count = int(math.ceil(N / q))  # block size, fixed by the first shell check
    initial = _density_start(grid, rho, count)
    rho = np.ascontiguousarray(rho[folded.index])

    mixer = AndersonMixer(folded.weights)
    history = []
    orbitals = guard = None  # the last step's orbitals warm-start the next eigensolve
    for it in range(SCF_MAX_ITER):
        v = _effective_potential(folded, rho, v_ext, xc)
        v_box = unfold(grid, v, mirror)  # the eigensolvers' potential
        if orbitals is not None:
            # a fresh copy, the block dropped: passing it raised peak RSS (CHANGES.md)
            initial = orbitals.copy()
            orbitals = None
        # loose eigensolves while the density is far from self-consistent
        it_tol = max(EIG_TOL, 0.1 * history[-1]) if history else 1e-4
        eps, orbitals, eig_resids = lowest_eigenpairs(grid, v_box, count, tol=it_tol,
                                                      initial=initial, mirror=mirror)
        del initial
        occ = aufbau_occupations(eps, np.full(count, q), N)
        rho_out = _density(folded, orbitals, occ)
        resid = density_change(folded, rho_out, rho, N)
        closed = False
        if guard is None or resid < tol:
            eps, orbitals, eig_resids, occ, guard, margin = occupied_eigenpairs(
                grid, v_box, N, q, it_tol, (eps, orbitals, eig_resids), guard, mirror
            )
            closed = len(eps) == count
            if not closed:
                count = len(eps)
                del rho_out
                rho_out = _density(folded, orbitals, occ)
                resid = density_change(folded, rho_out, rho, N)
        del v_box
        history.append(resid)
        if closed and resid < tol:
            rho = rho_out
            break
        del v
        rho = mixer.mix(rho, rho_out)
        del rho_out
        np.maximum(rho, 0.0, out=rho)
    else:
        raise SCFError(
            f"molecular SCF did not reach {tol:g} in {SCF_MAX_ITER} iterations "
            f"(last residual {history[-1]:.3e})",
            history,
        )
    del mixer

    # stationarity of every occupied orbital under the converged potential
    v_eff = unfold(grid, _effective_potential(folded, rho, v_ext, xc), mirror)
    scale = math.sqrt(grid.cell_volume)
    stat_resids = []
    hpsi, term = np.empty((2, *grid.shape))
    for lam, e, orb in zip(occ, eps, orbitals):
        if lam <= 1e-12:
            continue
        apply_hamiltonian(grid, v_eff, orb, out=hpsi)
        hpsi -= np.multiply(orb, e, out=term)
        stat_resids.append(float(np.linalg.norm(hpsi)) * scale)
    del v_eff, hpsi, term

    # a second solve of the same rho: perfbench's Poisson count identity
    # (steps + 2 per SCF solve) counts it
    u = poisson_solve(grid, rho, mirror)

    keep = occ > 1e-12
    return KSState(
        orbitals=tuple(ScalarField(grid=grid, values=orb)
                       for orb, k in zip(orbitals, keep) if k),
        occupations=occ[keep],
        eigenvalues=eps[keep],
        q=q,
        rho0=ScalarField(grid=grid, values=unfold(grid, rho, mirror), kind="density"),
        # v, the potential of the last step, is the one the orbitals solve
        energy=ks_energy(folded, rho, v_ext, u, v, xc, occ, eps),
        scf_history=tuple(history),
        meta={
            "stationarity": tuple(stat_resids),
            "eigen_residual": tuple(
                float(e) for lam, e in zip(occ, eig_resids) if lam > 1e-12
            ),
            "block_size": count,
            "shell_margin": margin,
        },
    )
