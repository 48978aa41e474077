"""Born-Oppenheimer surfaces D(Z, R) for the TF and KS-LDA models.

D is the molecular energy minus isolated-atom energies plus the nuclear
repulsion. The atomic references are solved on grids with the same spacing
and dimensions as the molecular box (each recentered so its nucleus keeps
the same sub-cell offset), which cancels the near-cusp quadrature error in
the difference. Each D is one solve at the policy spacing, with no
extrapolation in h: D converges like h^1.5 for light pairs but like h^0.8
for (6, 6), so no fixed Richardson order fits. The scaling limit
Gamma(R) = lim l^7 D^TF(Z, lR) is estimated from rescaled solves at
increasing l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fitting import PowerLawFit, powerlaw_fit
from .grids import Grid3D, GridError
from .ks_molecule import scf_molecule
from .tf_molecule import (
    MIN_MARGIN,
    NuclearConfiguration,
    TFSolution,
    atomic_references,
    solve_tf,
)
from .xc import XCFunctional


@dataclass(frozen=True)
class GridPolicy:
    """How to build boxes for a configuration: spacing plus margin rule."""

    spacing: float
    margin_factor: float = MIN_MARGIN

    def __post_init__(self):
        if not 0.0 < self.spacing < math.inf:
            raise GridError("spacing must be positive and finite")
        if not math.isfinite(self.margin_factor):
            raise GridError("margin_factor must be finite")
        if self.margin_factor < MIN_MARGIN:
            raise GridError(
                f"margin_factor must be >= {MIN_MARGIN:g} "
                f"(box margin >= {MIN_MARGIN:g} z^(-1/3))"
            )

    def margin(self, config: NuclearConfiguration) -> float:
        return self.margin_factor * config.z_min ** (-1.0 / 3.0)

    def build(self, config: NuclearConfiguration) -> Grid3D:
        """Cubic box covering all nuclei with the policy margin.

        The first nucleus is placed on a node so homonuclear sweeps stay
        comparable across R. A spacing above the margin is refused: the
        margin band would then hold no interior node.
        """
        h = self.spacing
        m = self.margin(config)
        if h > m:
            raise GridError(f"spacing {h:g} exceeds the box margin {m:.3g}")
        lo = config.positions.min(axis=0) - m
        hi = config.positions.max(axis=0) + m
        center = 0.5 * (lo + hi)
        half = float(np.max(hi - center))
        # one extra cell ring so the node-snapping shift below (at most
        # h/2 per axis) cannot eat into the required margin
        n = 2 * (int(math.ceil(half / h)) + 1) + 1
        origin = center - h * (n - 1) / 2.0
        # shift so nucleus 1 lands exactly on a node
        p0 = config.positions[0]
        shift = p0 - (origin + h * np.round((p0 - origin) / h))
        return Grid3D(origin=origin + shift, h=h, dims=(n, n, n))


@dataclass(frozen=True)
class BOSample:
    R_min: float
    D: float
    E_mol: float
    E_atoms: float
    U_R: float
    grid_h: float
    residual: float


@dataclass(frozen=True)
class BOCurve:
    charges: tuple
    samples: tuple  # BOSample, sorted by R_min
    fit: PowerLawFit | None = None

    def with_fit(self) -> "BOCurve":
        rs = np.array([s.R_min for s in self.samples])
        ds = np.array([s.D for s in self.samples])
        fit = powerlaw_fit(rs, ds)
        return BOCurve(charges=self.charges, samples=self.samples, fit=fit)


def diatomic(z1: float, z2: float, R: float) -> NuclearConfiguration:
    """Charges z1 at -R/2 and z2 at +R/2 on the x axis."""
    return NuclearConfiguration(
        positions=[[-R / 2.0, 0.0, 0.0], [R / 2.0, 0.0, 0.0]], charges=[z1, z2]
    )


def _bo_sample(config: NuclearConfiguration, grid: Grid3D, e_mol: float,
               residual: float, e_atoms: float) -> BOSample:
    """D = E_mol - sum_j E_atom + U_R; the sample keeps the molecule's residual."""
    return BOSample(
        R_min=config.R_min if config.K > 1 else 0.0,
        D=e_mol - e_atoms + config.U_R,
        E_mol=e_mol,
        E_atoms=e_atoms,
        U_R=config.U_R,
        grid_h=grid.h,
        residual=residual,
    )


def bo_tf(config: NuclearConfiguration, policy: GridPolicy,
          molecule: TFSolution | None = None) -> BOSample:
    """D^TF = E^TF_mol - sum_j E^TF_atom + U_R with matched atomic grids.

    molecule, when given, is the neutral molecule's `solve_tf` solution on
    policy.build(config), and its energy is used instead of a second
    solve; a solution for another configuration or grid is a ValueError.
    """

    def solve(cfg, grid):
        sol = solve_tf(cfg, cfg.Z, grid)
        return sol.energy, sol.residual

    grid = policy.build(config)
    if molecule is None:
        e_mol, residual = solve(config, grid)
    else:
        mc, mg = molecule.config, molecule.grid
        if not (np.array_equal(mc.positions, config.positions)
                and np.array_equal(mc.charges, config.charges)):
            raise ValueError("molecule was solved for another configuration")
        if not (mg.h == grid.h and mg.dims == grid.dims
                and np.array_equal(mg.origin, grid.origin)):
            raise ValueError("molecule was solved on another grid than policy.build(config)")
        e_mol, residual = molecule.energy, molecule.residual
    e_atoms = sum(res[0] for _, res in atomic_references(config, grid, solve))
    return _bo_sample(config, grid, e_mol, residual, e_atoms)


def _superposed(grid: Grid3D, references, energies: list) -> np.ndarray:
    """Sum of the reference densities on grid; their energies go to `energies`.

    references yields (matched grid, (energy, density)) per nucleus, as
    `atomic_references` does. A matched grid has grid's spacing and dims
    and lies a whole number of nodes off it, so each density is added by
    an index shift, and the nodes of grid outside it get 0. Each density is
    dropped once added; the sum is allocated after the first reference is
    solved, so that solve's peak does not hold it.
    """
    rho = None
    for agrid, (energy, rho_atom) in references:
        energies.append(energy)
        if rho is None:
            rho = np.zeros(grid.shape)
        shift = np.rint((agrid.origin - grid.origin) / grid.h).astype(int)
        dst = tuple(slice(max(s, 0), n + min(s, 0)) for s, n in zip(shift, grid.shape))
        src = tuple(slice(max(-s, 0), n - max(s, 0)) for s, n in zip(shift, grid.shape))
        rho[dst] += rho_atom[src]
        del rho_atom
    return rho


def bo_ks(config: NuclearConfiguration, xc: XCFunctional, policy: GridPolicy,
          q: float = 2.0) -> BOSample:
    """D = E_mol - sum_j E_atom + U_R in KS-LDA, matched atomic grids.

    Every SCF solve (molecule and atomic references) runs at the
    `scf_molecule` defaults with occupation bound q. The atomic references
    are solved first, and the molecule's SCF starts from the sum of their
    converged densities (`_superposed`) instead of superposed TF atoms: a
    TF atom's density diverges like r^(-3/2) at the nucleus and decays like
    r^(-6), a poor start for light atoms. Nuclei that share one reference
    each get its density. The start is the one grid array the references
    leave behind, and it becomes the SCF's own density.
    """
    grid = policy.build(config)

    def solve_atom(single, agrid):
        state = scf_molecule(single, single.Z, xc, agrid, q=q)
        return state.energy["total"], state.rho0.values

    e_atoms = []
    # the start is passed on, not held here: the SCF drops it after one mix
    state = scf_molecule(config, config.Z, xc, grid, q=q, rho=_superposed(
        grid, atomic_references(config, grid, solve_atom), e_atoms))
    return _bo_sample(config, grid, state.energy["total"], state.scf_history[-1],
                      sum(e_atoms))


def tf_sweep(charges, R_values, policy: GridPolicy) -> BOCurve:
    """Homonuclear-axis diatomic sweep of D^TF over separations R."""
    z1, z2 = charges
    samples = []
    for R in sorted(R_values):
        samples.append(bo_tf(diatomic(z1, z2, R), policy))
    return BOCurve(charges=(float(z1), float(z2)), samples=tuple(samples))


@dataclass(frozen=True)
class GammaEstimate:
    """Extrapolated Gamma(R) with its sampled ladder and error bar."""

    R: float
    value: float
    error: float
    l_values: tuple
    ladder: tuple  # l^7 D^TF(Z, l R) per l
    model: str
    samples: tuple = field(default=())


def _extrapolate_ladder(ls, ys):
    """Fit y(l) = G - c l^(-g) through the last three points."""
    l1, l2, l3 = ls[-3:]
    y1, y2, y3 = ys[-3:]

    def gap(g):
        # consistency function whose root gives the rate g
        a = (y2 - y1) / (l1 ** (-g) - l2 ** (-g))
        b = (y3 - y2) / (l2 ** (-g) - l3 ** (-g))
        return a - b

    from scipy.optimize import brentq

    lo, hi = 0.05, 12.0
    try:
        if gap(lo) * gap(hi) < 0:
            g = brentq(gap, lo, hi, xtol=1e-10)
            c = (y2 - y1) / (l1 ** (-g) - l2 ** (-g))
            return y3 + c * l3 ** (-g), f"power(rate={g:.3f})"
    except ValueError:
        pass
    # geometric fallback when no consistent rate exists in range
    return y3 + (y3 - y2), "geometric-step"


def gamma_limit(unit_config: NuclearConfiguration, l_values,
                policy: GridPolicy) -> GammaEstimate:
    """Estimate Gamma(R) = lim_l l^7 D^TF(Z, l R) by rescaled solves.

    Each ladder entry solves the base charges at stretched positions l R
    (exact TF covariance maps this to charges l^3 Z at fixed R) and
    multiplies by l^7. The ladder must be monotone within tolerance.
    """
    ls = sorted(float(v) for v in l_values)
    if len(ls) < 3:
        raise ValueError("l_values needs at least 3 entries")
    # a non-positive l makes a complex power, a repeated one a zero
    # division, in the ladder extrapolation
    if not all(0.0 < l < math.inf for l in ls) or len(set(ls)) < len(ls):
        raise ValueError("l_values must be positive, finite and distinct")
    ladder = []
    samples = []
    for l in ls:
        stretched = NuclearConfiguration(
            positions=unit_config.positions * l, charges=unit_config.charges
        )
        s = bo_tf(stretched, policy)
        ladder.append(l**7 * s.D)
        samples.append(s)
    diffs = np.diff(ladder)
    if np.any(diffs < -0.05 * np.max(np.abs(ladder))):
        raise ArithmeticError(
            f"non-monotone Gamma ladder beyond tolerance: {ladder}"
        )
    value, model = _extrapolate_ladder(ls, ladder)
    error = max(abs(value - ladder[-1]), abs(ladder[-1] - ladder[-2]))
    return GammaEstimate(
        R=unit_config.R_min,
        value=float(value),
        error=float(error),
        l_values=tuple(ls),
        ladder=tuple(float(v) for v in ladder),
        model=model,
        samples=tuple(samples),
    )
