"""Pieces shared by the radial and 3D Kohn-Sham solvers.

Occupations follow the aufbau rule for the extended model: levels fill to
their capacity in increasing eigenvalue order, with fractional weights
split equally among levels tied at the Fermi energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FERMI_DEGENERACY_TOL = 1e-6  # Hartree window treated as degenerate


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
    """Anderson acceleration (depth m) with fallback to simple mixing.

    mix(x, fx) returns the next iterate given the input x and fixed-point
    image fx; falls back to plain damping while history is short or when
    the least-squares step is ill-conditioned.
    """

    def __init__(self, alpha: float = 0.5, depth: int = 5):
        if not (0.0 < alpha <= 1.0) or depth < 1:
            raise ValueError("need 0 < alpha <= 1 and depth >= 1")
        self.alpha = alpha
        self.depth = depth
        self._xs: list = []
        self._rs: list = []

    def mix(self, x: np.ndarray, fx: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        r = np.asarray(fx, dtype=float).ravel() - x
        self._xs.append(x)
        self._rs.append(r)
        if len(self._xs) > self.depth + 1:
            self._xs.pop(0)
            self._rs.pop(0)
        m = len(self._rs) - 1
        if m == 0:
            return x + self.alpha * r
        dR = np.stack([self._rs[k + 1] - self._rs[k] for k in range(m)], axis=1)
        dX = np.stack([self._xs[k + 1] - self._xs[k] for k in range(m)], axis=1)
        try:
            gamma, *_ = np.linalg.lstsq(dR, r, rcond=1e-10)
        except np.linalg.LinAlgError:
            return x + self.alpha * r
        x_bar = x - dX @ gamma
        r_bar = r - dR @ gamma
        out = x_bar + self.alpha * r_bar
        if not np.all(np.isfinite(out)):
            return x + self.alpha * r
        return out
