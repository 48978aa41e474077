"""Outside-model quantities: cross terms Q_ij and the decomposition check.

Q_ij expands the pair interaction of screened nuclei: point-point minus
two point-cloud terms plus the cloud-cloud energy, where each cloud is
the (spherical) atomic density restricted to its ball of radius r. The
decomposition check compares D^TF against the difference of exterior
energies, with every exterior problem solved on the same 3D staircase
mask so the boundary-layer error cancels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bo import GridPolicy, bo_tf
from .grids import Grid3D, ScalarField
from .tf_atom import AtomicTFSolution, atomic_screened_tf, atomic_tf
from .tf_molecule import (
    NuclearConfiguration,
    RegionMask,
    atomic_references,
    exterior_tf,
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


def charge_within(sol, r: float) -> float:
    """Charge of a spherical cloud inside radius r (duck-typed)."""
    if hasattr(sol, "charge_within"):
        return float(sol.charge_within(r))
    if isinstance(sol, AtomicTFSolution):
        nodes = sol.grid.nodes
        contrib = sol.grid.weights * sol.rho.values
        return float(np.sum(contrib[nodes <= r]))
    raise TypeError(f"no spherical charge accessor for {type(sol).__name__}")


def qij_tf(atomic_solutions, config: NuclearConfiguration, r: float) -> np.ndarray:
    """Matrix of cross terms Q_ij^TF for screening radius r.

    atomic_solutions: one spherical cloud per nucleus (atomic TF solution
    or any object with charge_within). Requires r <= R_min/2 so the balls
    are disjoint; then every cloud acts as a point charge q_j(r) by
    Newton's theorem and the four terms collapse accordingly. The
    cloud-cloud term is still evaluated by radial quadrature.
    """
    if config.K >= 2 and r > config.R_min / 2.0 + 1e-12:
        raise ValueError("need r <= R_min/2 (disjoint screening balls)")
    if len(atomic_solutions) != config.K:
        raise ValueError("need one spherical cloud per nucleus")
    K = config.K
    Q = np.zeros((K, K))
    qs = [charge_within(s, r) for s in atomic_solutions]
    for i in range(K):
        for j in range(i + 1, K):
            d = float(np.linalg.norm(config.positions[i] - config.positions[j]))
            zi, zj = float(config.charges[i]), float(config.charges[j])
            point_point = zi * zj / d
            point_cloud = zi * qs[j] / d + zj * qs[i] / d
            cloud_cloud = _cloud_cloud(atomic_solutions[i], qs[j], d, r)
            Q[i, j] = Q[j, i] = point_point - point_cloud + cloud_cloud
    return Q


def _cloud_cloud(sol_i, q_j: float, d: float, r: float) -> float:
    """Quadrature of the ball-i density against the ball-j point field."""
    s = np.geomspace(max(1e-6, r * 1e-5), r, 400)
    if hasattr(sol_i, "charge_within"):
        q_cum = np.array([sol_i.charge_within(v) for v in s])
    else:
        nodes = sol_i.grid.nodes
        contrib = np.cumsum(sol_i.grid.weights * sol_i.rho.values)
        q_cum = np.interp(s, nodes, contrib)
    shell = np.diff(q_cum, prepend=0.0)
    # cloud j acts as the point charge q_j at R_j (Newton); the spherical
    # mean of 1/|x - R_j| over the shell at radius s (< d) is 1/d
    inv = 1.0 / np.maximum(s, d)
    return q_j * float(np.sum(shell * inv))


@dataclass(frozen=True)
class OutsideSample:
    r: float
    exterior_mol: float
    exterior_atoms: float
    decomposition: float  # exterior_mol - sum exterior_atoms
    gap: float
    gap_r7: float


@dataclass(frozen=True)
class OutsideReport:
    D_tf: float
    samples: tuple
    gap_r7_decreasing: bool


def _atomic_exterior_energy(
    single: NuclearConfiguration,
    grid: Grid3D,
    r: float,
) -> float:
    """Exterior problem for one atom on the shared 3D staircase grid."""
    sol_atom = atomic_tf(single.Z)
    phi_r = atomic_screened_tf(sol_atom, r)
    X, Y, Z = grid.meshgrid()
    pos = single.positions[0]
    dist = np.sqrt((X - pos[0]) ** 2 + (Y - pos[1]) ** 2 + (Z - pos[2]) ** 2)
    mask = RegionMask(config=single, r=r)
    gmask = mask.grid_mask(grid)
    vals = np.interp(dist.ravel(), sol_atom.grid.nodes, phi_r.values).reshape(
        grid.shape
    )
    vals = np.where(gmask, vals, 0.0)
    v_field = ScalarField(grid=grid, values=vals, kind="potential")
    n_j = sol_atom.z - charge_within(sol_atom, r)
    ext = exterior_tf(v_field, mask, max(n_j, 1e-9))
    return ext.energy


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
    is the BO point on the same single grid (no Richardson levels).
    """
    if policy.levels != 1:
        raise ValueError("the decomposition check uses a single grid (levels=1)")
    rs = sorted((float(r) for r in r_values), reverse=True)
    d_tf = bo_tf(config, policy).D
    grid = policy.build(config)
    mol = solve_tf(config, config.Z, grid)

    samples = []
    for r in rs:
        mask = RegionMask(config=config, r=r)
        phi_field, _ = screened_tf(mol, mask)
        gmask = mask.grid_mask(grid)
        v_r = ScalarField(
            grid=grid, values=np.where(gmask, phi_field.values, 0.0),
            kind="potential",
        )
        bound = float(np.sum(mol.rho.values[gmask])) * grid.cell_volume
        ext_mol = exterior_tf(v_r, mask, bound)
        e_atoms = atomic_references(
            config, grid,
            lambda single, agrid: _atomic_exterior_energy(single, agrid, r),
        )
        decomp = ext_mol.energy - e_atoms
        gap = abs(d_tf - decomp)
        samples.append(
            OutsideSample(
                r=r,
                exterior_mol=ext_mol.energy,
                exterior_atoms=e_atoms,
                decomposition=decomp,
                gap=gap,
                gap_r7=gap * r**7,
            )
        )
    g = [s.gap_r7 for s in samples]  # rs descending: expect decreasing gap*r^7
    decreasing = all(g[i + 1] <= g[i] for i in range(len(g) - 1))
    return OutsideReport(D_tf=d_tf, samples=tuple(samples),
                         gap_r7_decreasing=bool(decreasing))
