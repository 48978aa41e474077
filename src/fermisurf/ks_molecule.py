"""Kohn-Sham LDA self-consistent field on a 3D box.

Orbitals come from the sparse eigensolver applied to the effective
Hamiltonian -1/2 Laplacian + v_eff with v_eff = -V_R + rho * |x|^-1
- g'(rho); the density is Anderson-mixed between sweeps.
"""

from __future__ import annotations

import math

import numpy as np

from .eig import apply_hamiltonian, lowest_eigenpairs
from .grids import Grid3D, ScalarField
from .ks_common import AndersonMixer, KSState, SCFError, aufbau_occupations
from .poisson import poisson_solve
from .tf_molecule import (
    NuclearConfiguration,
    atomic_superposition,
    check_grid_margin,
    external_potential,
)
from .xc import XCFunctional

SCF_MAX_ITER = 120
EIG_TOL = 1e-7  # floor of the per-step eigensolver tolerance


def scf_molecule(
    config: NuclearConfiguration,
    N: float,
    xc: XCFunctional,
    grid: Grid3D,
    q: float = 2.0,
    tol: float = 1e-6,
    extra_orbitals: int = 1,
) -> KSState:
    """Converged molecular KS-LDA state with aufbau occupations."""
    if N <= 0.0:
        raise ValueError("N must be positive (use the trivial state for N = 0)")
    if N > config.Z + 1e-12:
        raise ValueError("need N <= Z (existence regime)")
    check_grid_margin(grid, config)

    v_ext = external_potential(grid, config).values
    n_orb = int(math.ceil(N / q)) + extra_orbitals

    rho = atomic_superposition(grid, config)
    rho *= N / grid.integrate(rho)

    mixer = AndersonMixer()
    history = []
    pairs = None
    occ = None
    for it in range(SCF_MAX_ITER):
        u = poisson_solve(ScalarField(grid=grid, values=rho)).values
        v_eff = -v_ext + u - xc.derivative(rho)
        v_field = ScalarField(grid=grid, values=v_eff, kind="potential")
        initial = (
            np.stack([p[1].values.ravel() for p in pairs], axis=1)
            if pairs is not None
            else None
        )
        # loose eigensolves while the density is far from self-consistent
        it_tol = max(EIG_TOL, 0.1 * history[-1]) if history else 1e-4
        pairs = lowest_eigenpairs(
            v_field, n_orb, degeneracy_budget=1, tol=it_tol, initial=initial,
            maxiter=500,
        )
        eig = np.array([p[0] for p in pairs])
        occ = aufbau_occupations(eig, np.full(len(pairs), float(q)), N)
        rho_out = np.zeros(grid.shape)
        for lam, (eps, orb) in zip(occ, pairs):
            if lam > 0.0:
                rho_out += lam * orb.values**2
        resid = grid.integrate(np.abs(rho_out - rho)) / N
        history.append(resid)
        if resid < tol:
            rho = rho_out
            break
        rho = np.maximum(mixer.mix(rho, rho_out), 0.0)
    else:
        raise SCFError(
            f"molecular SCF did not reach {tol:g} in {SCF_MAX_ITER} iterations "
            f"(last residual {history[-1]:.3e})",
            history,
        )

    # stationarity of every occupied orbital under the converged potential
    u = poisson_solve(ScalarField(grid=grid, values=rho)).values
    v_eff = -v_ext + u - xc.derivative(rho)
    scale = math.sqrt(grid.cell_volume)
    stat_resids = []
    for lam, (eps, orb) in zip(occ, pairs):
        if lam <= 1e-12:
            continue
        hpsi = apply_hamiltonian(grid, v_eff, orb.values)
        stat_resids.append(float(np.linalg.norm(hpsi - eps * orb.values)) * scale)

    eig = np.array([p[0] for p in pairs])
    external = -grid.integrate(v_ext * rho)
    u = poisson_solve(ScalarField(grid=grid, values=rho)).values
    hartree = 0.5 * grid.integrate(u * rho)
    exc = grid.integrate(xc.evaluate(rho))
    vxc_rho = grid.integrate(xc.derivative(rho) * rho)
    e_sum = float(np.dot(occ, eig))
    kinetic = e_sum - external - 2.0 * hartree + vxc_rho
    total = kinetic + external + hartree - exc

    keep = occ > 1e-12
    return KSState(
        orbitals=tuple(p[1] for p, k in zip(pairs, keep) if k),
        occupations=occ[keep],
        eigenvalues=eig[keep],
        q=q,
        rho0=ScalarField(grid=grid, values=rho, kind="density"),
        energy={
            "kinetic": kinetic,
            "external": external,
            "hartree": hartree,
            "xc": exc,
            "total": total,
        },
        scf_history=tuple(history),
        meta={
            "config": config.descriptor(),
            "N": N,
            "grid": grid.descriptor(),
            "stationarity": tuple(stat_resids),
        },
    )
