"""Pieces shared by the radial and 3D Kohn-Sham solvers.

Occupations follow the aufbau rule for the extended model: levels fill to
their capacity in increasing eigenvalue order, with fractional weights
split equally among levels tied at the Fermi energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FERMI_DEGENERACY_TOL = 1e-6  # Hartree window treated as degenerate
MIX_ALPHA = 0.4  # damping of the Anderson step
MIX_DEPTH = 3  # differences kept by the Anderson mixer


class SCFError(RuntimeError):
    """Self-consistent loop failed; carries the residual history."""

    def __init__(self, message: str, history):
        super().__init__(message)
        self.history = list(history)


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


def aufbau_occupations(eigenvalues, capacities, n: float,
                       tol: float = FERMI_DEGENERACY_TOL) -> np.ndarray:
    """Fill levels of given capacities with n particles, lowest first.

    Levels within `tol` of the Fermi level share the remaining weight in
    proportion to capacity (deterministic, symmetry preserving).
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
            eig[order[i + len(group)]] - eig[group[0]] <= tol
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


class AndersonMixer:
    """Anderson acceleration of a density fixed point x = f(x).

    mix(x, fx) returns the next iterate x - dX g + MIX_ALPHA (r - dR g),
    r = fx - x, where the columns of dX and dR are the last MIX_DEPTH
    iterate and residual differences and g minimises |r - dR g| (Pulay,
    CPL 73:393, 1980; Walker & Ni, SIAM J. Numer. Anal. 49:1715, 2011).
    The Gram matrix dR^T dR is updated incrementally, so a call costs
    O(MIX_DEPTH n). The first call, a singular system or a non-finite
    step gives plain damping x + MIX_ALPHA r. The output has x's shape.
    """

    def __init__(self):
        self._x = None  # previous iterate and residual, flattened
        self._r = None
        # differences, oldest first: dx + MIX_ALPHA dr (the only use of dx) and dr
        self._du: list = []
        self._dr: list = []
        self._gram = np.zeros((0, 0))

    def mix(self, x: np.ndarray, fx: np.ndarray) -> np.ndarray:
        shape = np.shape(x)
        x = np.asarray(x, dtype=float).ravel()
        r = np.asarray(fx, dtype=float).ravel() - x
        if self._x is not None:
            if len(self._dr) == MIX_DEPTH:
                del self._du[0], self._dr[0]
                self._gram = self._gram[1:, 1:]
            dr = r - self._r
            du = x - self._x
            du += MIX_ALPHA * dr
            self._du.append(du)
            self._dr.append(dr)
            row = [d @ self._dr[-1] for d in self._dr]
            self._gram = np.pad(self._gram, (0, 1))
            self._gram[-1, :] = self._gram[:, -1] = row
        self._x, self._r = x, r
        damped = x + MIX_ALPHA * r
        if not self._dr:
            return damped.reshape(shape)
        try:
            g = np.linalg.solve(self._gram, [d @ r for d in self._dr])
        except np.linalg.LinAlgError:
            return damped.reshape(shape)
        out = damped.copy()
        for gk, du in zip(g, self._du):
            out -= gk * du
        if not np.all(np.isfinite(out)):
            return damped.reshape(shape)
        return out.reshape(shape)
