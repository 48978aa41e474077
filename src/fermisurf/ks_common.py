"""Pieces shared by the self-consistent loops: the radial and 3D Kohn-Sham
SCFs and, for the mixer and the density change, the molecular TF sweep.

Occupations follow the aufbau rule for the extended model: levels fill to
their capacity in increasing eigenvalue order, with fractional weights
split equally among levels tied at the Fermi energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import SolverError

FERMI_DEGENERACY_TOL = 1e-6  # Hartree window treated as degenerate
MIX_ALPHA = 0.7  # damping of the Anderson step
MIX_DEPTH = 3  # differences kept by the Anderson mixer
GRAM_TOL = 1e-12  # smallest Cholesky pivot of the mixer's scaled difference Gram


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
    damped steps d = x + MIX_ALPHA r, so the output is the combination
    sum_i a_i d_i of the last MIX_DEPTH + 1 damped steps with a = e_new -
    D g, D the (m, m - 1) successive-difference matrix.

    The mixer keeps those steps and their residuals in two rings of
    MIX_DEPTH + 1 slots, 2 MIX_DEPTH + 2 arrays of x's size in all (the
    damped steps as one (MIX_DEPTH + 1, n) block), and the residual Gram
    matrix G_ij = r_i . r_j. A call writes r and d into the slots of the
    oldest step (three elementwise passes), forms the newest row of G from
    one dot product per held residual, solves the small system D^T G D g =
    D^T G e_new, and makes the output in one matrix-vector product that
    reads the damped block. Beyond the rings a call allocates only its
    output, a fresh array of x's shape.

    `weights`, one vector per axis of x (a `FoldedGrid`'s), weigh G's dot
    products by the product of a node's weights, so a fold mixes as its
    grid array would: each ring residual is stored times sqrt(w) up to a
    common factor, which g does not see.

    The first call, a difference system singular to working precision or
    a non-finite output gives plain damping x + MIX_ALPHA r (a copy: the
    damped step stays in the ring). D^T G D, scaled by the sizes of the
    residuals each difference is taken from, |r_j| + |r_j+1|, has entries
    known to about eps, and is solved by Cholesky, whose pivot j is the
    squared distance of the j-th scaled difference from the span of the
    earlier ones. A pivot at or below GRAM_TOL = 1e-12, some 4500 eps,
    means g would be rounding noise, and the step is refused.
    """

    def __init__(self, weights=None):
        self._root = None if weights is None else [np.sqrt(w / w.max()) for w in weights]
        self._d = self._r = None  # ring arrays, allocated on first use
        self._gram = np.zeros((MIX_DEPTH + 1, MIX_DEPTH + 1))
        self._calls = 0

    def mix(self, x: np.ndarray, fx: np.ndarray) -> np.ndarray:
        shape = np.shape(x)
        x = np.asarray(x, dtype=float).ravel()
        fx = np.asarray(fx, dtype=float).ravel()
        if self._d is None:
            # separate residual arrays: a second block raised peak RSS (CHANGES.md)
            self._d = np.empty((MIX_DEPTH + 1, x.size))
            self._r = [np.empty(x.size) for _ in range(MIX_DEPTH + 1)]
        k = self._calls % (MIX_DEPTH + 1)  # the oldest slot once the ring is full
        r = np.subtract(fx, x, out=self._r[k])
        np.multiply(r, MIX_ALPHA, out=self._d[k])
        self._d[k] += x
        for axis, root in enumerate(self._root or ()):
            for i in np.flatnonzero(root != 1.0):
                r.reshape(shape)[(slice(None),) * axis + (i,)] *= root[i]
        self._calls += 1
        m = min(self._calls, MIX_DEPTH + 1)  # steps held, in slots 0..m-1
        self._gram[k, :m] = self._gram[:m, k] = [row @ r for row in self._r[:m]]
        coef = self._weights(k, m)
        if coef is not None:
            out = coef @ self._d[:m]
            if math.isfinite(out.sum()):  # one NaN or inf makes the sum so
                return out.reshape(shape)
        return self._d[k].reshape(shape).copy()  # plain damping

    def _weights(self, k: int, m: int):
        """Weights a of the m held damped steps, by slot; None for plain damping."""
        if m == 1:
            return None
        order = [(k - m + 1 + j) % (MIX_DEPTH + 1) for j in range(m)]  # oldest first
        g = self._gram[np.ix_(order, order)]
        # the successive residual differences r_j+1 - r_j: their Gram matrix,
        # and their products with the newest residual
        a = g[1:, 1:] - g[1:, :-1] - g[:-1, 1:] + g[:-1, :-1]
        b = g[1:, -1] - g[:-1, -1]
        norms = np.sqrt(np.diag(g))
        scale = norms[:-1] + norms[1:]  # |r_j| + |r_j+1| per difference
        if not scale.min() > 0.0:  # NaN fails too
            return None
        y = _cholesky_solve(a / np.outer(scale, scale), b / scale, GRAM_TOL)
        if y is None:
            return None
        step = y / scale
        w = np.zeros(m)
        w[-1] = 1.0
        w[:-1] += step
        w[1:] -= step
        coef = np.zeros(m)
        coef[order] = w
        return coef


def _cholesky_solve(a: np.ndarray, b: np.ndarray, tol: float):
    """y with a y = b for a small symmetric a, or None if a pivot is <= tol.

    Cholesky factorization a = L L^T on Python floats, for the mixer's at
    most MIX_DEPTH rows. Pivot j, L_jj^2, is the squared distance of the
    j-th column from the span of the earlier ones in a's inner product.
    No LAPACK routine is called: loading its code pages raised a TF run's
    resident set (CHANGES.md).
    """
    n = len(b)
    a = a.tolist()
    low = [[0.0] * n for _ in range(n)]
    for j in range(n):
        pivot = a[j][j] - sum(v * v for v in low[j][:j])
        if not pivot > tol:  # NaN fails too
            return None
        low[j][j] = math.sqrt(pivot)
        for i in range(j + 1, n):
            low[i][j] = (a[i][j] - sum(p * q for p, q in zip(low[i][:j], low[j][:j]))) / low[j][j]
    y = b.tolist()
    for j in range(n):  # L z = b
        y[j] = (y[j] - sum(low[j][i] * y[i] for i in range(j))) / low[j][j]
    for j in reversed(range(n)):  # L^T y = z
        y[j] = (y[j] - sum(low[i][j] * y[i] for i in range(j + 1, n))) / low[j][j]
    return np.array(y)
