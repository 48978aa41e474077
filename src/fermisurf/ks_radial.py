"""Radial Kohn-Sham LDA solver for atoms.

The spherically averaged problem splits into one tridiagonal eigenproblem
per angular momentum ell on a uniform grid in r, with u(r) = r R(r) and
Dirichlet ends. Occupations are filled aufbau over the merged (eps, ell)
spectrum with capacity q (2 ell + 1) per level.
"""

from __future__ import annotations

import math

import numpy as np

from .coulomb import radial_hartree_potential
from .grids import RadialGrid, ScalarField
from .ks_common import (AndersonMixer, KSState, SCFError, aufbau_occupations,
                        density_change, ks_energy)
from .tf_atom import atomic_tf
from .xc import XCFunctional

SCF_MAX_ITER = 200


def default_ks_radial_grid(z: float):
    """Uniform radial grid to 30 Bohr; the spacing min(0.01, 0.04/z) resolves 1/z."""
    h = min(0.01, 0.04 / z)
    n = int(round(30.0 / h))
    r = h * np.arange(1, n + 1)
    # rectangle weights: u vanishes at both ends so the rule is adequate
    return RadialGrid(nodes=r, weights=4.0 * np.pi * r**2 * h)


def _radial_levels(r, h, v_eff, lmax: int, per_ell: int):
    """Lowest eigenpairs of -1/2 u'' + (l(l+1)/2r^2 + v) u per ell."""
    from scipy.linalg import eigh_tridiagonal

    levels = []
    off = np.full(len(r) - 1, -0.5 / h**2)
    for ell in range(lmax + 1):
        diag = 1.0 / h**2 + 0.5 * ell * (ell + 1) / r**2 + v_eff
        vals, vecs = eigh_tridiagonal(
            diag, off, select="i", select_range=(0, per_ell - 1)
        )
        for k in range(per_ell):
            u = vecs[:, k] / math.sqrt(h)  # normalize int u^2 dr = 1
            levels.append((float(vals[k]), ell, u))
    return levels


def scf_atom(
    z: float,
    N: float,
    xc: XCFunctional,
    q: float = 2.0,
    lmax: int = 3,
    per_ell: int = 5,
    tol: float = 1e-6,
) -> KSState:
    """Self-consistent radial KS-LDA atom on `default_ks_radial_grid(z)`."""
    for name, value in (("z", z), ("q", q)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite")
    if not 0.0 <= N <= z + 1e-12:
        raise ValueError("need 0 <= N <= z (existence regime)")
    grid = default_ks_radial_grid(z)
    r = grid.nodes
    h = float(r[1] - r[0])

    if N == 0.0:
        zero = np.zeros_like(r)
        rho0 = ScalarField(grid=grid, values=zero, kind="density")
        e = {"kinetic": 0.0, "external": 0.0, "hartree": 0.0, "xc": 0.0, "total": 0.0}
        return KSState(
            orbitals=(), occupations=np.zeros(0), eigenvalues=np.zeros(0),
            q=q, rho0=rho0, energy=e,
        )

    # TF profile as the starting density, rescaled to N electrons
    rho = atomic_tf(z).rho_at(r)
    rho = rho * (N / grid.integrate(rho))

    mixer = AndersonMixer()
    history = []
    levels = None
    occ = None
    for it in range(SCF_MAX_ITER):
        v_h = radial_hartree_potential(grid, rho)
        v_eff = -z / r + v_h - xc.derivative(rho)
        levels = _radial_levels(r, h, v_eff, lmax, per_ell)
        eig = np.array([lv[0] for lv in levels])
        cap = np.array([q * (2 * lv[1] + 1) for lv in levels])
        occ = aufbau_occupations(eig, cap, N)
        rho_out = np.zeros_like(r)
        for lam, (eps, ell, u) in zip(occ, levels):
            if lam > 0.0:
                rho_out += lam * u**2 / (4.0 * np.pi * r**2)
        resid = density_change(grid, rho_out, rho, N)
        history.append(resid)
        if resid < tol:
            rho = rho_out
            break
        rho = np.maximum(mixer.mix(rho, rho_out), 0.0)
    else:
        raise SCFError(
            f"radial SCF did not reach {tol:g} in {SCF_MAX_ITER} iterations "
            f"(last residual {history[-1]:.3e})",
            history,
        )

    if np.any((occ > 1e-9) & (eig > 0.0)):
        raise SCFError("requested N is not bound: positive levels occupied", history)

    rho0 = ScalarField(grid=grid, values=rho, kind="density")
    v_h = radial_hartree_potential(grid, rho)
    energy = ks_energy(grid, rho, z / r, v_h, v_eff, xc, occ, eig)

    keep = occ > 1e-12
    orbitals = tuple(
        (lv[1], ScalarField(grid=grid, values=lv[2] / np.sqrt(4.0 * np.pi) / r))
        for lv, k in zip(levels, keep) if k
    )
    return KSState(
        orbitals=orbitals,
        occupations=occ[keep],
        eigenvalues=eig[keep],
        q=q,
        rho0=rho0,
        energy=energy,
        scf_history=tuple(history),
    )
