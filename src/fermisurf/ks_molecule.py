"""Kohn-Sham LDA self-consistent field on a 3D box.

Orbitals come from the sparse eigensolver applied to the effective
Hamiltonian -1/2 Laplacian + v_eff with v_eff = -V_R + rho * |x|^-1
- g'(rho); only the occupied states are converged. Guard vectors, one
per mirror-parity sector, check that the Fermi-level shell closes inside
them on the first step, which fixes the block size the later steps
solve, and again on the step that converges. The density is
Anderson-mixed between sweeps. A problem symmetric about box-centre
planes keeps its SCF and its eigen block on the fold of the box
(`scf_molecule`).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .eig import EIG_SEED, lowest_eigenpairs, occupied_eigenpairs, residual_norms
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


def _density_start(folded: FoldedGrid, rho: np.ndarray, count: int):
    """Start rows of the first eigensolve, sqrt(rho) p_j normalized, on the fold.

    The monomials p_j = 1, x, y, z, x^2, xy, ... are taken about the
    charge centre. On a mirrored axis that is the centre plane, the fold's
    first node, so p_j has the parity (-1)^(its power of that axis) there
    and the row's sector holds those parities, 0 on an axis that is not
    mirrored. A tenth of a unit random vector is added to each, so every
    start has weight on the states the monomials miss. Returns ((count, n)
    rows, sectors), n the fold's node count; each row's noise is drawn
    straight into it, and one fold array holds the monomial term.
    """
    total = rho.sum()
    axes = [a - (a.flat[0] if m else np.sum(a * rho) / total)
            for a, m in zip(np.ix_(*folded.axes()), folded.mirror)]
    monomials = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(3), d) for d in itertools.count()
    )
    rng = np.random.default_rng(EIG_SEED)
    root = np.sqrt(rho)
    rows = np.empty((count, rho.size))
    col = np.empty(folded.shape)
    sectors = []
    for row, powers in zip(rows, monomials):
        term = root
        for k in powers:
            term = np.multiply(term, axes[k], out=col)
        np.divide(term, np.linalg.norm(term), out=col)
        noise = rng.standard_normal(out=row)
        noise *= 0.1 / np.linalg.norm(noise)
        noise += col.ravel()
        sectors.append(tuple((-1) ** powers.count(k) if m else 0
                             for k, m in enumerate(folded.mirror)))
    return rows, tuple(sectors)


def _density(orbitals: np.ndarray, occ) -> np.ndarray:
    """sum_j occ_j psi_j^2 over the (k, ...) orbital block, on the grid or fold it is given on."""
    rho = np.zeros(orbitals.shape[1:])
    term = np.empty_like(rho)
    for lam, orb in zip(occ, orbitals):
        if lam > 0.0:
            rho += np.multiply(np.square(orb, out=term), lam, out=term)
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
    from superposed TF atoms. It takes rho's fold (below) and scales that
    to N electrons; the caller's array is read, not written. A rho that
    breaks the mirror symmetry is so folded by taking its slice, and the
    SCF starts from the symmetric density that agrees with it on the fold.
    `bo_ks` passes the superposed densities of the point's matched atomic
    references.

    The block size, the number of states each eigensolve converges, is
    SCF state. The first step's eigensolve starts from the initial density
    and `occupied_eigenpairs` grows the block until the Fermi-level shell
    closes. The steps between solve that many states with no guard. The
    step whose density residual falls below `tol` runs the guards again on
    its own potential, each warm-started from its sector's last guard
    vector; the SCF returns only if the shell closes there, and otherwise
    goes on with the grown block and checks again before it returns. So
    the returned occupied set was checked on the potential that produced it.

    Two residuals per occupied orbital go into meta, both the norm
    |H psi - eps psi| h^(3/2). "stationarity" takes H with the potential
    of the returned density, so it follows where the SCF stopped.
    "eigen_residual" takes H with the potential of the last step, the one
    the eigensolver was given; it is the eigensolver's own residual check
    and lies within that step's tolerance times max(1, max |eps|).
    "block_size" is the number of states the last eigensolve converged and
    "shell_margin" the guards' theta - rho - eps_F of the last shell check,
    the margin by which the returned occupied set was trusted.

    The SCF folds along the mirror planes of config
    (`tf_molecule.nuclear_mirror_axes`) whose axis has an odd number of
    nodes, since the plane must hold nodes (every `GridPolicy` box has odd
    axes). It runs on that fold (`grids.FoldedGrid`), as the TF fixed point
    does: v_ext's values, rho, the Hartree potential, v_eff, the mixer,
    every Poisson solve and the eigen block, whose orbitals `eig` solves
    and guards per mirror-parity sector and returns on the fold, each with
    its sector. The first step's start rows are formed on the fold too,
    each in the sector of its monomial (`_density_start`): H2 gets one
    state in (+, +, +), and a homonuclear pair with two states gets sigma_g
    there and sigma_u in (-, +, +). Only the returned rho and orbitals are
    box arrays.

    Memory: a shell check peaks near 2M + 17.5 + 2k arrays of the fold, M =
    MIX_DEPTH and k the block size, beside the sectors' guard vectors, one
    box array in all (`TestMemory` derives it).
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
        rho = atomic_superposition(folded, config)
    elif np.shape(rho) == grid.shape:
        rho = rho[folded.index]
    else:
        raise ValueError("rho must have the grid's shape")
    rho = rho * (N / folded.integrate(rho))
    count = int(math.ceil(N / q))  # block size, fixed by the first shell check
    initial = _density_start(folded, rho, count)

    mixer = AndersonMixer(folded.weights)
    history = []
    guards = None  # each sector's last guard vector
    for it in range(SCF_MAX_ITER):
        v = _effective_potential(folded, rho, v_ext, xc)
        # loose eigensolves while the density is far from self-consistent
        it_tol = max(EIG_TOL, 0.1 * history[-1]) if history else 1e-4
        solved = lowest_eigenpairs(grid, v, count, tol=it_tol, initial=initial, mirror=mirror)
        del initial
        occ = aufbau_occupations(solved[0], np.full(count, q), N)
        rho_out = _density(solved[1], occ)
        resid = density_change(folded, rho_out, rho, N)
        closed = False
        if guards is None or resid < tol:
            solved, occ, guards, margin = occupied_eigenpairs(grid, v, N, q, it_tol, solved,
                                                              guards, mirror)
            closed = len(solved[0]) == count
            if not closed:
                count = len(solved[0])
                del rho_out
                rho_out = _density(solved[1], occ)
                resid = density_change(folded, rho_out, rho, N)
        history.append(resid)
        if closed and resid < tol:
            rho = rho_out
            break
        del v
        initial = solved[1], solved[3]  # the orbitals, in their sectors, warm-start the next step
        rho = mixer.mix(rho, rho_out)
        del rho_out
        np.maximum(rho, 0.0, out=rho)
    else:
        raise SCFError(
            f"molecular SCF did not reach {tol:g} in {SCF_MAX_ITER} iterations "
            f"(last residual {history[-1]:.3e})",
            history,
        )
    del mixer, guards
    eps, orbitals, eig_resids, sectors = solved
    keep = occ > 1e-12
    kept = [(e, orb, s) for e, orb, s, k in zip(eps, orbitals, sectors, keep) if k]

    # stationarity of every occupied orbital under the converged potential
    stat_resids = residual_norms(grid, _effective_potential(folded, rho, v_ext, xc), *zip(*kept))

    # a second solve of the same rho: perfbench's Poisson count identity
    # (steps + 2 per SCF solve) counts it
    u = poisson_solve(grid, rho, mirror)

    return KSState(
        orbitals=tuple(ScalarField(grid=grid, values=unfold(grid, orb, s)) for _, orb, s in kept),
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
