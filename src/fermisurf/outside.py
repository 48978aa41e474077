"""Outside-model quantities: cross terms Q_ij and the decomposition check.

Q_ij is the pair interaction of screened nuclei: each nucleus together
with its (spherical) atomic density restricted to its ball of radius r.
For disjoint balls Newton's theorem makes it the product of the two net
charges over the distance. The decomposition check compares D^TF against
the difference of exterior energies, with every exterior problem solved
on the same 3D staircase mask so the boundary-layer error cancels.

The check solves the molecule once: the same solution gives the BO point
D^TF (`bo_tf`'s molecule argument) and every screened potential. Each
exterior problem starts from the density it converges to. The molecular
one starts from the molecular density, whose restriction to A_r is its
minimizer (see `exterior_tf`); each atomic one starts from its radial
atom's density sampled on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bo import GridPolicy, bo_tf
from .grids import FoldedGrid, Grid3D
from .tf_atom import atomic_screened_tf, atomic_tf
from .tf_molecule import (
    NuclearConfiguration,
    RegionMask,
    atomic_references,
    atomic_superposition,
    exterior_tf,
    nuclear_mirror_axes,
    screened_tf,
    solve_tf,
)


@dataclass(frozen=True)
class UniformBall:
    """Uniformly charged ball: hand-computable screening cloud."""

    z: float
    a: float

    def charge_within(self, r: float) -> float:
        if r >= self.a:
            return self.z
        return self.z * (r / self.a) ** 3


def qij_tf(atomic_solutions, config: NuclearConfiguration, r: float) -> np.ndarray:
    """Matrix of cross terms Q_ij^TF for screening radius r.

    atomic_solutions: one spherical cloud per nucleus, each with a
    charge_within(r) method (an atomic TF solution or a UniformBall).
    Requires r <= R_min/2 so the balls are disjoint; then each ball acts
    outside itself as the point charge z_j - q_j(r) by Newton's theorem, so
    Q_ij = (z_i - q_i)(z_j - q_j) / |R_i - R_j|.
    """
    if config.K >= 2 and r > config.R_min / 2.0 + 1e-12:
        raise ValueError("need r <= R_min/2 (disjoint screening balls)")
    if len(atomic_solutions) != config.K:
        raise ValueError("need one spherical cloud per nucleus")
    K = config.K
    Q = np.zeros((K, K))
    net = [float(z) - s.charge_within(r)
           for z, s in zip(config.charges, atomic_solutions)]
    for i in range(K):
        for j in range(i + 1, K):
            d = float(np.linalg.norm(config.positions[i] - config.positions[j]))
            Q[i, j] = Q[j, i] = net[i] * net[j] / d
    return Q


@dataclass(frozen=True)
class OutsideSample:
    r: float
    decomposition: float  # molecular minus summed atomic exterior energies
    gap: float
    gap_r7: float


@dataclass(frozen=True)
class OutsideReport:
    D_tf: float
    samples: tuple
    gap_r7_decreasing: bool


class _AtomicExterior:
    """One atom's exterior problems on the shared 3D staircase grid, by radius.

    The nucleus' distances and the start, the radial atom's density
    sampled on the grid, are built on the fold `exterior_tf` hands over,
    once for every radius. The potential is that atom's screened
    potential, so the start's restriction to A_r is near the minimizer.
    """

    def __init__(self, single: NuclearConfiguration, grid: Grid3D):
        self.single, self.grid = single, grid
        self.atom = atomic_tf(single.Z)
        self.folds = {}  # mirror flags -> (distances, start) on that fold

    def _on(self, folded: FoldedGrid):
        if folded.mirror not in self.folds:
            dist = np.sqrt(folded.squared_distance(self.single.positions[0]))
            self.folds[folded.mirror] = dist, atomic_superposition(folded, self.single)
        return self.folds[folded.mirror]

    def energy(self, r: float) -> float:
        screened = atomic_screened_tf(self.atom, r)

        def v_r(folded):
            return np.interp(self._on(folded)[0], self.atom.grid.nodes, screened)

        n_j = self.atom.z - self.atom.charge_within(r)
        return exterior_tf(self.grid, v_r, RegionMask(config=self.single, r=r),
                           max(n_j, 1e-9), start=lambda folded: self._on(folded)[1]).energy


def outside_decomposition_check(
    config: NuclearConfiguration,
    r_values,
    policy: GridPolicy,
) -> OutsideReport:
    """Compare D^TF with the exterior-energy decomposition over radii.

    For each r the molecular exterior problem uses V_r = 1_{A_r} Phi_r^TF
    from the converged molecular solution, with charge bound equal to the
    electron number in A_r; each atomic exterior problem uses the atomic
    screened potential on a matched grid with the same mask radius. D^TF
    is the BO point on the same grid, made from the same molecular solve.
    """
    rs = sorted((float(r) for r in r_values), reverse=True)
    grid = policy.build(config)
    mol = solve_tf(config, config.Z, grid)
    d_tf = bo_tf(config, policy, molecule=mol).D

    # one exterior problem per distinct matched atom and radius
    atoms = [atom for _, atom in atomic_references(config, grid, _AtomicExterior)]
    distinct = {id(atom): atom for atom in atoms}
    folded = FoldedGrid(grid, nuclear_mirror_axes(grid, config))  # the exterior problems' fold
    rho = mol.rho.values[folded.index]
    samples = []
    for r in rs:
        mask = RegionMask(config=config, r=r)
        bound = folded.integrate(np.where(mask.grid_mask(folded), rho, 0.0))
        # the restriction of mol.rho to A_r is this problem's minimizer
        ext_mol = exterior_tf(grid, lambda folded: screened_tf(mol, mask, folded), mask,
                              bound, start=lambda folded: mol.rho.values[folded.index])
        energies = {key: atom.energy(r) for key, atom in distinct.items()}
        e_atoms = sum(energies[id(atom)] for atom in atoms)
        decomp = ext_mol.energy - e_atoms
        gap = abs(d_tf - decomp)
        samples.append(
            OutsideSample(
                r=r,
                decomposition=decomp,
                gap=gap,
                gap_r7=gap * r**7,
            )
        )
    g = [s.gap_r7 for s in samples]  # rs descending: expect decreasing gap*r^7
    decreasing = all(g[i + 1] <= g[i] for i in range(len(g) - 1))
    return OutsideReport(D_tf=d_tf, samples=tuple(samples),
                         gap_r7_decreasing=bool(decreasing))
