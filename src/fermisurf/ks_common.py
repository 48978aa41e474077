"""Pieces shared by the self-consistent loops: the radial and 3D Kohn-Sham
SCFs and, for the mixer and the density change, the molecular TF sweep.

Occupations follow the aufbau rule for the extended model: levels fill to
their capacity in increasing eigenvalue order, with fractional weights
split equally among levels tied at the Fermi energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import SolverError

FERMI_DEGENERACY_TOL = 1e-6  # Hartree window treated as degenerate
MIX_ALPHA = 0.7  # damping of the Anderson step
MIX_DEPTH = 3  # differences kept by the Anderson mixer


class SCFError(SolverError):
    """Self-consistent loop failed; carries the residual history."""


@dataclass(frozen=True)
class KSState:
    """Converged SCF state: spectral data of gamma plus the energy split."""

    orbitals: tuple  # ScalarFields (3D) or (ell, radial u) carriers
    occupations: np.ndarray
    eigenvalues: np.ndarray
    q: float
    rho0: object  # ScalarField
    energy: dict  # kinetic, external, hartree, xc, total (Hartree)
    scf_history: tuple = field(default=())
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        occ = np.asarray(self.occupations, dtype=float)
        eig = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "occupations", occ)
        object.__setattr__(self, "eigenvalues", eig)
        if np.any(occ < -1e-12):
            raise ValueError("occupations must be nonnegative")

    @property
    def n_electrons(self) -> float:
        return float(self.occupations.sum())


def aufbau_occupations(eigenvalues, capacities, n: float) -> np.ndarray:
    """Fill levels of given capacities with n particles, lowest first.

    Levels within FERMI_DEGENERACY_TOL of the Fermi level share the
    remaining weight in proportion to capacity (deterministic, symmetry
    preserving).
    """
    eig = np.asarray(eigenvalues, dtype=float)
    cap = np.asarray(capacities, dtype=float)
    if eig.shape != cap.shape:
        raise ValueError("eigenvalues and capacities must align")
    occ = np.zeros_like(eig)
    order = np.argsort(eig, kind="stable")
    remaining = float(n)
    i = 0
    while i < len(order) and remaining > 1e-12:
        # group levels degenerate with the current one
        group = [order[i]]
        while i + len(group) < len(order) and (
            eig[order[i + len(group)]] - eig[group[0]] <= FERMI_DEGENERACY_TOL
        ):
            group.append(order[i + len(group)])
        group_cap = cap[group].sum()
        take = min(remaining, group_cap)
        for j in group:
            occ[j] = take * cap[j] / group_cap
        remaining -= take
        i += len(group)
    if remaining > 1e-9:
        raise SCFError(
            f"could not place {remaining:g} particles: spectrum exhausted", []
        )
    return occ


def density_change(grid, new: np.ndarray, old: np.ndarray, n: float) -> float:
    """int |new - old| / n on a radial or 3D grid: the change one sweep makes."""
    diff = np.subtract(new, old)
    return grid.integrate(np.abs(diff, out=diff)) / n


def ks_energy(grid, rho, v_nuc, v_h, v_in, xc, occ, eig) -> dict:
    """Energy split of a KS state with density rho on `grid`.

    rho is the density of the orbitals, which are eigenfunctions of the
    effective potential v_in with eigenvalues eig. v_nuc is the nuclear
    attraction (external energy -int v_nuc rho), v_h the Hartree potential
    of rho. The kinetic energy is the orbitals' own, sum lambda eps minus
    int v_in rho (up to the eigen residual), so the total is the KS
    functional of the returned orbitals, and its error is second order in
    the SCF residual (the Harris-Foulkes argument: Harris, Phys. Rev. B
    31:1770, 1985; Foulkes and Haydock, Phys. Rev. B 39:12520, 1989).
    """
    external = -grid.integrate(v_nuc * rho)
    hartree = 0.5 * grid.integrate(v_h * rho)
    exc = grid.integrate(xc.evaluate(rho))
    kinetic = float(np.dot(occ, eig)) - grid.integrate(v_in * rho)
    return {
        "kinetic": kinetic,
        "external": external,
        "hartree": hartree,
        "xc": exc,
        "total": kinetic + external + hartree - exc,
    }


class AndersonMixer:
    """Anderson acceleration of a fixed point x = f(x): a density or a potential.

    mix(x, fx) returns the next iterate x - dX g + MIX_ALPHA (r - dR g),
    r = fx - x, where the columns of dX and dR are the last MIX_DEPTH
    iterate and residual differences and g minimises |r - dR g| (Pulay,
    CPL 73:393, 1980; Walker & Ni, SIAM J. Numer. Anal. 49:1715, 2011).
    dX enters only as dU = dX + MIX_ALPHA dR, the difference of successive
    damped steps x + MIX_ALPHA r. dU and dR live in two (MIX_DEPTH, n) ring
    arrays whose oldest row the next difference overwrites, and the Gram
    matrix dR^T dR is updated by one row per call, so a call costs
    O(MIX_DEPTH n). The first call, a singular system or a non-finite step
    gives plain damping x + MIX_ALPHA r. The output is a fresh array of
    x's shape.
    """

    def __init__(self):
        self._damped = None  # previous damped step and residual, flattened
        self._r = None
        self._du = self._dr = None  # ring arrays, allocated on first use
        self._gram = np.zeros((MIX_DEPTH, MIX_DEPTH))
        self._stored = 0  # differences held, at most MIX_DEPTH

    def mix(self, x: np.ndarray, fx: np.ndarray) -> np.ndarray:
        shape = np.shape(x)
        x = np.asarray(x, dtype=float).ravel()
        r = np.asarray(fx, dtype=float).ravel() - x
        damped = MIX_ALPHA * r
        damped += x
        # damped stays with the mixer, so plain damping returns a copy
        if self._damped is None:
            # two arrays: one (2, MIX_DEPTH, n) block raised peak RSS by ~2%
            self._du, self._dr = (np.empty((MIX_DEPTH, x.size)) for _ in range(2))
            self._damped, self._r = damped, r
            return damped.reshape(shape).copy()
        k = self._stored % MIX_DEPTH  # the oldest row once the ring is full
        np.subtract(damped, self._damped, out=self._du[k])
        np.subtract(r, self._r, out=self._dr[k])
        self._damped, self._r = damped, r
        self._stored += 1
        m = min(self._stored, MIX_DEPTH)
        self._gram[k, :m] = self._gram[:m, k] = self._dr[:m] @ self._dr[k]
        try:
            g = np.linalg.solve(self._gram[:m, :m], self._dr[:m] @ r)
        except np.linalg.LinAlgError:
            return damped.reshape(shape).copy()
        out = g @ self._du[:m]
        np.subtract(damped, out, out=out)
        if not np.all(np.isfinite(out)):
            return damped.reshape(shape).copy()
        return out.reshape(shape)
