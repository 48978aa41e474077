"""Radial Kohn-Sham LDA solver for atoms.

The spherically averaged problem splits into one tridiagonal eigenproblem
per angular momentum ell on a uniform grid in r, with u(r) = r R(r) and
Dirichlet ends. Occupations are filled aufbau over the merged (eps, ell)
spectrum with capacity q (2 ell + 1) per level.

The basis sizes itself: each SCF step grows the number of levels solved
per ell until aufbau leaves the highest solved level of every ell empty,
and adds ell + 1 while the last ell's lowest level holds electrons. That
is exact. Each ell's matrix is unreduced tridiagonal, so its levels are
simple, and raising ell adds a positive diagonal, so by Weyl the k-th
level of ell + 1 lies above the k-th level of ell. Every level left out
thus lies above an empty one and would take no electrons.
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


def _radial_levels(r, h, v_eff, counts: list, q: float, N: float):
    """Lowest eigenpairs of -1/2 u'' + (l(l+1)/2r^2 + v) u per ell, filled aufbau.

    counts[ell] levels are solved for each ell; counts is SCF state and
    grows in place by the rule in the module docstring. A growth pass
    solves again only the ell whose count changed. Returns the
    (eps, ell, u) levels, their eigenvalues and their occupations.
    """
    from scipy.linalg import eigh_tridiagonal

    off = np.full(len(r) - 1, -0.5 / h**2)
    solved = {}  # ell -> (count, its levels), as last solved
    while True:
        levels = []
        for ell, count in enumerate(counts):
            if solved.get(ell, (0,))[0] != count:
                diag = 1.0 / h**2 + 0.5 * ell * (ell + 1) / r**2 + v_eff
                vals, vecs = eigh_tridiagonal(diag, off, select="i",
                                              select_range=(0, count - 1))
                # normalize int u^2 dr = 1
                solved[ell] = (count, [(float(e), ell, u / math.sqrt(h))
                                       for e, u in zip(vals, vecs.T)])
            levels += solved[ell][1]
        eig = np.array([lv[0] for lv in levels])
        cap = np.array([q * (2 * lv[1] + 1) for lv in levels])
        occ = aufbau_occupations(eig, cap, min(N, cap.sum()))  # too few levels: all full
        top = np.cumsum(counts) - 1  # each ell's highest solved level
        grow = occ[top] > 0.0
        add = int(occ[top[-1] - counts[-1] + 1] > 0.0)  # the last ell's lowest level
        if not (grow.any() or add):
            return levels, eig, occ
        counts[:] = [c + int(g) for c, g in zip(counts, grow)] + [1] * add


def scf_atom(z: float, N: float, xc: XCFunctional, q: float = 2.0,
             tol: float = 1e-6) -> KSState:
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
    counts = [1, 1]  # levels solved per ell, grown by _radial_levels
    for it in range(SCF_MAX_ITER):
        v_h = radial_hartree_potential(grid, rho)
        v_eff = -z / r + v_h - xc.derivative(rho)
        levels, eig, occ = _radial_levels(r, h, v_eff, counts, q, N)
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
