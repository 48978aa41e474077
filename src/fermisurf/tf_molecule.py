"""Molecular Thomas-Fermi solver on a 3D box.

The TF minimizer is the fixed point of
rho = (2 [phi - mu]_+)^(3/2) / (3 pi^2),   phi = V_R - u,   u = rho * |x|^-1,
with the chemical potential mu picked by Newton's method on the excess
charge when the particle number constraint binds. The Anderson mixer acts
on the Hartree potential u, which the Coulomb kernel smooths, rather than
on rho: each sweep makes one Poisson solve and feeds the density of the
mixed u to the next. The same sweep solves the exterior problem on A_r,
whose potential vanishes off A_r.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .grids import FoldedGrid, Grid3D, GridError, ScalarField, SolverError
from .ks_common import AndersonMixer, density_change
from .poisson import poisson_solve, unfold
from .tf_atom import atomic_tf, tf_density, tf_energy, tf_law, tf_residual

TF_TOL = 1e-8  # relative L1 density change per sweep
TF_MAX_SWEEPS = 400
PICK_MU_MAX_STEPS = 100  # Newton steps for the chemical potential
MIN_MARGIN = 6.0  # box margin around a nucleus of charge z, in units of z^(-1/3)
MIRROR_TOL = 1e-12  # relative rounding allowance of mirror images and sphere ties


class ConvergenceError(SolverError):
    """Fixed-point mixing or the chemical-potential search failed to converge."""


@dataclass(frozen=True)
class NuclearConfiguration:
    """Positions (Bohr) and charges of the K nuclei."""

    positions: np.ndarray
    charges: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        chg = np.atleast_1d(np.asarray(self.charges, dtype=float))
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "charges", chg)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must be K x 3")
        if chg.shape != (pos.shape[0],) or np.any(chg <= 0.0):
            raise ValueError("charges must hold one positive charge per nucleus")
        for name, a in (("positions", pos), ("charges", chg)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} must be finite")
        if self.K >= 2 and self.R_min <= 0.0:
            raise ValueError("nuclei must be at distinct positions")
        pos.setflags(write=False)
        chg.setflags(write=False)

    @property
    def K(self) -> int:
        return self.positions.shape[0]

    @property
    def Z(self) -> float:
        return float(self.charges.sum())

    @property
    def z_min(self) -> float:
        return float(self.charges.min())

    @property
    def z_max(self) -> float:
        return float(self.charges.max())

    def _pairs(self):
        """(z_i z_j, |R_i - R_j|) for every pair i < j, in lexicographic order."""
        return [
            (float(self.charges[i] * self.charges[j]),
             float(np.linalg.norm(self.positions[i] - self.positions[j])))
            for i in range(self.K) for j in range(i + 1, self.K)
        ]

    @property
    def R_min(self) -> float:
        return min((d for _, d in self._pairs()), default=math.inf)

    @property
    def R_max(self) -> float:
        return max((d for _, d in self._pairs()), default=0.0)

    @property
    def U_R(self) -> float:
        """Nucleus-nucleus repulsion sum_{i<j} z_i z_j / |R_i - R_j|."""
        return float(sum(zz / d for zz, d in self._pairs()))

    def scaled(self, l: float) -> "NuclearConfiguration":
        """Charges l z_j at positions l^(-1/3) R_j (exact TF covariance)."""
        return NuclearConfiguration(
            positions=self.positions * l ** (-1.0 / 3.0), charges=self.charges * l
        )


@dataclass(frozen=True)
class RegionMask:
    """Exterior region A_r = {x : |x - R_j| > r for all j}."""

    config: NuclearConfiguration
    r: float

    def __post_init__(self):
        if not 0.0 < self.r < math.inf:
            raise ValueError("exclusion radius r must be positive and finite")
        if self.config.K >= 2 and self.r > self.config.R_min / 2.0 + 1e-12:
            raise ValueError("r must be <= R_min/2 so the spheres are disjoint")

    def grid_mask(self, grid: Grid3D) -> np.ndarray:
        """Boolean array, True on nodes belonging to A_r.

        A_r is open, and a node with |x - R_j|^2 <= r^2 (1 + MIRROR_TOL)
        counts as on the sphere: a node and its mirror image, whose
        distances differ by rounding only, fall on the same side. So the
        mask has the mirror symmetries of config (`nuclear_mirror_axes`).
        """
        out = np.ones(grid.shape, dtype=bool)
        tie = self.r**2 * (1.0 + MIRROR_TOL)
        for pos in self.config.positions:
            out &= grid.squared_distance(pos) > tie
        return out


def _cube_inv_r_integral(lo: np.ndarray, hi: np.ndarray) -> float:
    """Exact integral of 1/|x| over the box [lo, hi] (closed-form corners)."""

    def F(x, y, z):
        r = math.sqrt(x * x + y * y + z * z)
        if r == 0.0:
            return 0.0
        out = 0.0
        if abs(y * z) > 0:
            out += y * z * math.log(x + r) if x + r > 0 else 0.0
        if abs(z * x) > 0:
            out += z * x * math.log(y + r) if y + r > 0 else 0.0
        if abs(x * y) > 0:
            out += x * y * math.log(z + r) if z + r > 0 else 0.0
        # principal-branch arctan: atan2 would wrap for negative x*r and
        # break the corner inclusion-exclusion
        if x != 0.0:
            out -= 0.5 * x * x * math.atan(y * z / (x * r))
        if y != 0.0:
            out -= 0.5 * y * y * math.atan(z * x / (y * r))
        if z != 0.0:
            out -= 0.5 * z * z * math.atan(x * y / (z * r))
        return out

    total = 0.0
    for sx, x in ((-1, lo[0]), (1, hi[0])):
        for sy, y in ((-1, lo[1]), (1, hi[1])):
            for sz, z in ((-1, lo[2]), (1, hi[2])):
                total += sx * sy * sz * F(x, y, z)
    return total


def external_potential(grid: Grid3D, config: NuclearConfiguration) -> np.ndarray:
    """V_R on the grid, with the nucleus-containing cell averaged exactly.

    On a `FoldedGrid` the values are those of the grid's nodes to the bit:
    a nucleus' cell average applies where its node lies in the fold.
    """
    box = grid.grid if isinstance(grid, FoldedGrid) else grid
    first = np.subtract(box.shape, grid.shape)  # the fold's first node of box
    v = np.zeros(grid.shape)
    h = box.h
    for pos, z in zip(config.positions, config.charges):
        d = np.sqrt(grid.squared_distance(pos))
        idx = box.index_of(pos)
        node = box.origin + h * np.asarray(idx)
        offset = pos - node
        at = tuple(int(i) for i in np.subtract(idx, first))
        contained = (np.all(np.abs(offset) <= h / 2 + 1e-12) and box.contains(pos)
                     and min(at) >= 0)
        if contained:
            d[at] = np.inf  # replaced by the cell average below
        with np.errstate(divide="ignore"):
            v += z / d
        if contained:
            lo = node - h / 2 - pos
            hi = node + h / 2 - pos
            v[at] += z * _cube_inv_r_integral(lo, hi) / h**3
    return v


def nuclear_mirror_axes(grid: Grid3D, config: NuclearConfiguration) -> tuple[bool, bool, bool]:
    """For each axis, whether config is symmetric about grid's box-centre plane.

    An axis counts when each nucleus' image across the plane is a nucleus
    of equal charge, positions compared in node units to MIRROR_TOL (so to
    1e-12 h). This is the one rule by which every solve picks the axes it
    folds (`grids.FoldedGrid`): V_R, the atomic superposition and every
    `RegionMask` of config then share the symmetry, and so does the TF
    minimizer, which is unique (Lieb and Simon, Adv. Math. 23:22, 1977).
    The KS SCF folds those of the axes whose centre plane holds nodes.
    """
    s = (config.positions - grid.origin) / grid.h
    same_charge = config.charges[:, None] == config.charges[None, :]

    def symmetric(axis):
        image = s.copy()
        image[:, axis] = (grid.dims[axis] - 1) - s[:, axis]
        close = np.all(np.abs(image[:, None, :] - s[None, :, :]) <= MIRROR_TOL, axis=2)
        return bool(np.all(np.any(close & same_charge, axis=1)))

    return tuple(symmetric(axis) for axis in range(3))


def check_grid_margin(grid: Grid3D, config: NuclearConfiguration):
    """Box must hold every nucleus with margin >= MIN_MARGIN * z^(-1/3)."""
    for pos, z in zip(config.positions, config.charges):
        need = MIN_MARGIN * z ** (-1.0 / 3.0)
        if not grid.contains(pos) or grid.min_face_distance(pos) < need - 1e-9:
            raise GridError(
                f"nucleus at {pos} needs margin {need:.2f} Bohr inside the box"
            )


def atomic_superposition(grid: Grid3D, config: NuclearConfiguration) -> np.ndarray:
    """Sum of the neutral radial TF atoms: the initial density of 3D solves.

    On a `FoldedGrid` the densities are those of the grid's nodes to the bit.
    """
    rho = np.zeros(grid.shape)
    for pos, z in zip(config.positions, config.charges):
        d = np.sqrt(grid.squared_distance(pos))
        # a box has few distinct nucleus distances; evaluate each once
        r, index = np.unique(np.maximum(d, grid.h / 4.0), return_inverse=True)
        rho += atomic_tf(float(z)).rho_at(r)[index.reshape(d.shape)]
    return rho


@dataclass(frozen=True)
class TFSolution:
    """Converged molecular (or exterior) TF solution."""

    config: NuclearConfiguration
    grid: Grid3D
    rho: ScalarField
    phi: ScalarField
    mu: float
    energy: float
    residual: float
    history: tuple = field(default=())

    @property
    def n_electrons(self) -> float:
        return self.rho.integrate()


def _pick_mu(phi: np.ndarray, target: float, folded: FoldedGrid) -> tuple[float, np.ndarray]:
    """Smallest mu >= 0 with int rho_TF(phi, mu) <= target, and that density.

    Newton's method on the excess charge g(mu) = int rho_TF(phi, mu) - target,
    started at mu = 0. g is convex and decreasing, so the iterates climb to
    the root without passing it, and each evaluation of the TF law gives g
    and its slope. Stops once g <= 0 or the step is below 1e-14 max(1, mu);
    raises ConvergenceError with the excess history after PICK_MU_MAX_STEPS.
    phi is given on the fold `folded`, whose weights weigh the charge and
    the slope. The slope is summed block by block inside `tf_density`, so
    beside phi an evaluation holds only the density.
    """
    mu, history = 0.0, []
    for _ in range(PICK_MU_MAX_STEPS):
        rho, slope = tf_density(phi, mu, slope_sum=folded.weights)
        excess = folded.integrate(rho) - target
        history.append(excess)
        if excess <= 0.0:
            return mu, rho
        step = excess / (slope * folded.cell_volume)
        if step <= 1e-14 * max(1.0, mu):
            return mu, rho
        mu += step
        del rho  # freed before the next evaluation allocates
    raise ConvergenceError(
        f"chemical potential did not settle in {PICK_MU_MAX_STEPS} Newton steps "
        f"(last excess {history[-1]:.3e})",
        history,
    )


def _tf_fixed_point(
    config: NuclearConfiguration,
    folded: FoldedGrid,
    v: np.ndarray,
    n_target: float,
    constrained: bool,
    start: Callable[[FoldedGrid], np.ndarray],
) -> TFSolution:
    """Anderson-mixed fixed point of the Hartree potential u = P T(u).

    T(u) is the TF density at phi = v_ext - u (mu from `_pick_mu` when
    constrained) and P the Poisson solve. Each sweep makes one solve,
    u_out = P rho, and stops once the density T(u_out) moves rho by less
    than TF_TOL (`density_change`). Otherwise the first sweep takes u_out
    and later ones mix u toward it, and rho = T(u) is the next source.
    Every source after the initial one is a TF density, so it is
    nonnegative and, when constrained, within the charge bound. Two closing
    solves of the last rho give phi and the energy's u.

    The fold. The sweep runs on folded, the fold of the box along the
    mirror planes of config (`nuclear_mirror_axes`), which the minimizer
    shares. v holds v_ext's plain values on that fold; the start that
    start(folded) builds there, rho, u, the TF law, `_pick_mu`,
    `density_change`, the mixer and every Poisson solve stay on it. Integrals and the mixer's Gram matrix weigh each node by 2
    per mirrored axis whose centre plane it is off. Only rho and phi are
    unfolded, into the TFSolution. Between sweeps only v, rho, u and the
    mixer's 2 MIX_DEPTH + 2 history arrays stay alive, all on the fold.
    """
    grid, mirror = folded.grid, folded.mirror

    def density(u):
        if constrained:
            return _pick_mu(v - u, n_target, folded)[1]
        return tf_law(np.subtract(v, u))  # phi = v - u in its own array

    rho, u = start(folded), None
    mixer = AndersonMixer(folded.weights)
    history = []

    for _ in range(TF_MAX_SWEEPS):
        u_out = poisson_solve(grid, rho, mirror)
        rho_new = density(u_out)
        change = density_change(folded, rho_new, rho, n_target)
        history.append(change)
        if change < TF_TOL:
            rho = rho_new
            break
        if u is None:
            u, rho = u_out, rho_new
        else:
            del rho, rho_new  # the mix reads neither
            u = mixer.mix(u, u_out)
            del u_out
            rho = density(u)
    else:
        raise ConvergenceError(
            f"TF mixing did not reach {TF_TOL:g} in {TF_MAX_SWEEPS} sweeps "
            f"(last change {history[-1]:.3e})",
            history,
        )
    # the closing solves read only rho and v
    del mixer, u, u_out, rho_new

    phi = v - poisson_solve(grid, rho, mirror)
    mu = _pick_mu(phi, n_target, folded)[0] if constrained else 0.0
    residual = tf_residual(rho, phi, mu)
    # a second solve of the same rho: perfbench's Poisson count identity
    # (sweeps + 2 per TF solve) counts it
    energy = tf_energy(folded, rho, v, poisson_solve(grid, rho, mirror))
    return TFSolution(
        config=config,
        grid=grid,
        rho=ScalarField(grid=grid, values=unfold(grid, rho, mirror), kind="density"),
        phi=ScalarField(grid=grid, values=unfold(grid, phi, mirror), kind="potential"),
        mu=mu,
        energy=energy,
        residual=residual,
        history=tuple(history),
    )


def solve_tf(
    config: NuclearConfiguration,
    n: float,
    grid: Grid3D,
) -> TFSolution:
    """Molecular TF minimizer with particle number constraint int rho <= n."""
    if not 0.0 < n < math.inf:
        raise ValueError("particle number n must be positive and finite")
    check_grid_margin(grid, config)
    # V_R only on the fold: the full box is never formed
    folded = FoldedGrid(grid, nuclear_mirror_axes(grid, config))
    v = external_potential(folded, config)

    def start(folded):
        rho = atomic_superposition(folded, config)
        if n < config.Z:
            rho *= n / config.Z
        return rho

    return _tf_fixed_point(config, folded, v, min(n, config.Z), n < config.Z - 1e-9, start)


def exterior_tf(
    grid: Grid3D,
    v_r: Callable[[FoldedGrid], np.ndarray],
    mask: RegionMask,
    charge_bound: float,
    start: Callable[[FoldedGrid], np.ndarray],
) -> TFSolution:
    """TF minimizer over densities supported on A_r with int rho <= charge_bound.

    The problem has the mirror symmetries of mask.config, and is solved
    on the fold of grid along them (`nuclear_mirror_axes`). v_r and start
    are callables of that fold, each returning one value per node of it:
    v_r(folded) the potential and start(folded) the start density. The
    potential is 1_{A_r} v_r: the values of v_r off A_r are not read. The
    potential alone keeps rho on A_r: u = P rho > 0 (a nonnegative source
    with positive monopole faces), so phi = -u < 0 off A_r and the TF
    density is exactly 0 there. The sweep starts from the start's
    restriction to A_r, scaled down to the charge bound if it holds more.

    When v_r is the screened potential Phi_r of a molecular minimizer
    rho_mol (`screened_tf`) and the bound is rho_mol's charge on A_r, the
    restriction of rho_mol to A_r is the fixed point: on A_r, Phi_r minus
    the potential of that restriction is the molecular phi, whose TF
    density is rho_mol (the outside-model argument of Solovej, Ann. Math.
    158:509, 2003). It holds on every box because `poisson_solve` is
    linear in its source, so that start is exact up to the molecule's own
    self-consistency.

    start runs inside the solve, and its result is dropped once
    restricted: a start built by the caller and passed in as an array
    would be pinned by the caller's frame for the whole solve.
    """
    if not 0.0 < charge_bound < math.inf:
        raise ValueError("charge_bound must be positive and finite")
    if not isinstance(grid, Grid3D):
        raise GridError("exterior problem is solved on a 3D grid")
    folded = FoldedGrid(grid, nuclear_mirror_axes(grid, mask.config))
    v = np.where(mask.grid_mask(folded), v_r(folded), 0.0)

    def restricted(folded):
        # the mask is formed again rather than held through the solve
        rho = np.where(mask.grid_mask(folded), start(folded), 0.0)
        s = folded.integrate(rho)
        if s > charge_bound:
            rho *= charge_bound / s
        return rho

    # the unconstrained charge of an exterior problem is unknown, so mu is
    # always solved against the bound
    return _tf_fixed_point(mask.config, folded, v, charge_bound, True, restricted)


def screened_tf(sol: TFSolution, mask: RegionMask, folded: FoldedGrid) -> np.ndarray:
    """Screened potential Phi_r = V_R - (rho 1_{A_r^c}) * |x|^-1 on a fold of sol.grid.

    folded is a fold of sol.grid along mirror planes of sol.config, such
    as the one `exterior_tf` hands its v_r, or the whole box with none;
    Phi_r is formed on its nodes only. `outside.outside_decomposition_check`
    solves the molecular exterior problems in this potential.
    """
    grid = sol.grid
    inner_rho = np.where(mask.grid_mask(folded), 0.0, sol.rho.values[folded.index])
    u = poisson_solve(grid, inner_rho, folded.mirror)
    del inner_rho
    phi = external_potential(folded, sol.config)
    phi -= u
    return phi


def matched_atomic_grid(grid: Grid3D, position: np.ndarray) -> Grid3D:
    """Same spacing and dims as `grid`, recentered on one nucleus.

    Keeping the nucleus at the same node offset makes the near-cusp
    discretization error cancel in molecule-minus-atoms differences.
    """
    pos = np.asarray(position, dtype=float)
    idx = grid.index_of(pos)
    offset = pos - (grid.origin + grid.h * np.asarray(idx))
    center_idx = np.asarray(grid.dims) // 2
    # nucleus sits at the central node plus its original sub-cell offset
    origin = pos - offset - grid.h * center_idx
    return Grid3D(origin=origin, h=grid.h, dims=grid.dims)


def atomic_references(config: NuclearConfiguration, grid: Grid3D, solve_atom):
    """solve_atom(single-nucleus config, matched grid) for each nucleus, in order.

    A generator of (matched grid, result), one pair per nucleus. Nuclei
    with the same charge and sub-cell offset have identical matched
    problems, so each distinct one is solved once per call; its result is
    held only until the last nucleus that shares it has been handed it.
    """
    agrids = [matched_atomic_grid(grid, pos) for pos in config.positions]
    # pos - origin is the central node plus the nucleus' sub-cell offset
    keys = [(float(z), tuple(np.round((pos - agrid.origin) / grid.h, 9) + 0.0))
            for pos, z, agrid in zip(config.positions, config.charges, agrids)]
    solved = {}
    for i, (pos, z, agrid, key) in enumerate(zip(config.positions, config.charges,
                                                 agrids, keys)):
        if key not in solved:
            single = NuclearConfiguration(positions=[pos], charges=[z])
            solved[key] = solve_atom(single, agrid)
        yield agrid, (solved[key] if key in keys[i + 1 :] else solved.pop(key))
