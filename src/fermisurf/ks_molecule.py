"""Kohn-Sham LDA self-consistent field on a 3D box.

Orbitals come from the sparse eigensolver applied to the effective
Hamiltonian -1/2 Laplacian + v_eff with v_eff = -V_R + rho * |x|^-1
- g'(rho); only the occupied states are converged, and a guard vector
checks that the Fermi-level shell closes inside them. The density is
Anderson-mixed between sweeps.
"""

from __future__ import annotations

import math

import numpy as np

from .eig import apply_hamiltonian, occupied_eigenpairs
from .grids import Grid3D, ScalarField
from .ks_common import AndersonMixer, KSState, SCFError
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
) -> KSState:
    """Converged molecular KS-LDA state with aufbau occupations.

    Two residuals per occupied orbital go into meta, both the norm
    |H psi - eps psi| h^(3/2). "stationarity" takes H with the potential
    of the returned density, so it follows where the SCF stopped.
    "eigen_residual" takes H with the potential of the last step, the one
    the eigensolver was given; it is the eigensolver's own residual check
    and lies within that step's tolerance times max(1, max |eps|).
    """
    if N <= 0.0:
        raise ValueError("N must be positive (use the trivial state for N = 0)")
    if N > config.Z + 1e-12:
        raise ValueError("need N <= Z (existence regime)")
    check_grid_margin(grid, config)

    v_ext = external_potential(grid, config).values

    rho = atomic_superposition(grid, config)
    rho *= N / grid.integrate(rho)

    mixer = AndersonMixer()
    history = []
    block = None  # orbitals and guard of the last step, a warm start
    for it in range(SCF_MAX_ITER):
        u = poisson_solve(ScalarField(grid=grid, values=rho)).values
        v_eff = -v_ext + u - xc.derivative(rho)
        v_field = ScalarField(grid=grid, values=v_eff, kind="potential")
        # loose eigensolves while the density is far from self-consistent
        it_tol = max(EIG_TOL, 0.1 * history[-1]) if history else 1e-4
        pairs, occ, block, eig_resids = occupied_eigenpairs(
            v_field, N, q, it_tol, block
        )
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
            "eigen_residual": tuple(
                float(e) for lam, e in zip(occ, eig_resids) if lam > 1e-12
            ),
        },
    )
