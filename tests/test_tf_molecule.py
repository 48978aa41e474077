import gc
import math
import random
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermisurf.bo import GridPolicy, diatomic
from fermisurf.grids import FoldedGrid, Grid3D, GridError
from fermisurf.ks_common import MIX_DEPTH
from fermisurf.poisson import CHECK_TOL, poisson_solve, stencil_residual, unfold
from fermisurf.tf_atom import atomic_tf, tf_density
from fermisurf.tf_molecule import (
    MIRROR_TOL,
    ConvergenceError,
    NuclearConfiguration,
    RegionMask,
    TF_TOL,
    _cube_inv_r_integral,
    _pick_mu,
    atomic_superposition,
    check_grid_margin,
    exterior_tf,
    external_potential,
    matched_atomic_grid,
    nuclear_mirror_axes,
    screened_tf,
    solve_tf,
)


def _grid_for(config, h=0.35, margin=6.5):
    m = margin * config.z_min ** (-1.0 / 3.0)
    lo = config.positions.min(axis=0) - m
    hi = config.positions.max(axis=0) + m
    center = 0.5 * (lo + hi)
    half = float(np.max(hi - center))
    n = 2 * int(math.ceil(half / h)) + 1
    return Grid3D(origin=center - h * (n - 1) / 2.0, h=h, dims=(n, n, n))


def _sliced(a):
    """A grid array as `exterior_tf` takes its potential and start: a callable of the fold."""
    return lambda folded: a[folded.index]


def _box_screened(sol, mask):
    """The screened potential on the whole box, with no axis folded."""
    return screened_tf(sol, mask, FoldedGrid(sol.grid, (False, False, False)))


def _flip_symmetric(a, tol=0.0):
    """Per axis, whether a equals its reversal along that axis to tol max |a|."""
    scale = tol * float(np.max(np.abs(a)))
    return tuple(bool(np.max(np.abs(np.subtract(a, np.flip(a, axis), dtype=float))) <= scale)
                 for axis in range(3))


class TestNuclearConfiguration:
    def test_derived_quantities(self):
        cfg = NuclearConfiguration(
            positions=[[0, 0, 0], [0, 0, 2.0], [0, 1.5, 0]],
            charges=[1.0, 2.0, 3.0],
        )
        assert cfg.K == 3
        assert cfg.Z == pytest.approx(6.0)
        assert cfg.z_min == 1.0 and cfg.z_max == 3.0
        assert cfg.R_min == pytest.approx(1.5)
        assert cfg.R_max == pytest.approx(2.5)
        u = (1 * 2 / 2.0 + 1 * 3 / 1.5 + 2 * 3 / 2.5)
        assert cfg.U_R == pytest.approx(u, rel=1e-15)

    def test_rejects_coincident_nuclei(self):
        with pytest.raises(ValueError):
            NuclearConfiguration(positions=[[0, 0, 0], [0, 0, 0]],
                                 charges=[1.0, 1.0])

    def test_rejects_nonpositive_charge(self):
        with pytest.raises(ValueError):
            NuclearConfiguration(positions=[[0, 0, 0]], charges=[0.0])

    def test_scaled_covariance_map(self):
        # charges l z at positions l^(-1/3) R
        cfg = NuclearConfiguration(positions=[[0, 0, 0], [1, 0, 0]],
                                   charges=[1.0, 1.0])
        s = cfg.scaled(8.0)
        assert s.R_min == pytest.approx(0.5)
        assert s.z_max == pytest.approx(8.0)

    @given(
        r=st.floats(0.5, 5.0),
        z1=st.floats(0.5, 10.0),
        z2=st.floats(0.5, 10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_u_r_matches_defining_sum(self, r, z1, z2):
        cfg = NuclearConfiguration(positions=[[0, 0, 0], [r, 0, 0]],
                                   charges=[z1, z2])
        assert cfg.U_R == pytest.approx(z1 * z2 / r, rel=1e-14)


class TestRegionMask:
    def test_r_bound(self):
        cfg = NuclearConfiguration(positions=[[0, 0, 0], [1, 0, 0]],
                                   charges=[1.0, 1.0])
        with pytest.raises(ValueError):
            RegionMask(config=cfg, r=0.6)


class TestExternalPotential:
    def test_cube_average_oracle(self):
        # exact cell average of 1/|x| over a unit cube at the origin,
        # Monte-Carlo oracle
        val = _cube_inv_r_integral(np.array([-0.5, -0.5, -0.5]),
                                   np.array([0.5, 0.5, 0.5]))
        rng = np.random.default_rng(0)
        pts = rng.uniform(-0.5, 0.5, size=(400_000, 3))
        mc = float(np.mean(1.0 / np.linalg.norm(pts, axis=1)))
        assert val == pytest.approx(mc, rel=5e-3)

    def test_far_from_nucleus_is_coulomb(self):
        cfg = NuclearConfiguration(positions=[[0, 0, 0]], charges=[2.0])
        grid = Grid3D.cube((0, 0, 0), 7.0, 41)
        v = external_potential(grid, cfg)
        X, Y, Z = grid.meshgrid()
        r = np.sqrt(X**2 + Y**2 + Z**2)
        far = r > 2.0
        assert np.allclose(v[far], 2.0 / r[far], rtol=1e-6)

    def test_margin_check(self):
        cfg = NuclearConfiguration(positions=[[0, 0, 0]], charges=[1.0])
        with pytest.raises(GridError):
            check_grid_margin(Grid3D.cube((0, 0, 0), 2.0, 17), cfg)


class TestSolveTF:
    def test_single_atom_converges_toward_radial(self):
        # the nuclear cusp makes absolute grid energies converge slowly;
        # check the error shrinks under refinement toward the radial value
        cfg = NuclearConfiguration(positions=[[0, 0, 0]], charges=[1.0])
        radial = atomic_tf(1.0)
        errs = []
        for h in (0.35, 0.175):
            sol = solve_tf(cfg, 1.0, _grid_for(cfg, h=h))
            errs.append(abs(sol.energy - radial.energy))
            assert sol.mu == pytest.approx(0.0, abs=1e-6)
        # the r^(-5/2) cusp integrand gives O(sqrt(h)) energy convergence:
        # halving h shrinks the error by ~1/sqrt(2)
        assert errs[1] < 0.8 * errs[0]

    def test_neutral_molecule_mu_zero(self):
        cfg = NuclearConfiguration(positions=[[-0.5, 0, 0], [0.5, 0, 0]],
                                   charges=[1.0, 1.0])
        sol = solve_tf(cfg, 2.0, _grid_for(cfg))
        assert sol.mu == pytest.approx(0.0, abs=1e-6)
        # neutral: the constraint is inactive; the discrete density carries
        # slightly less than Z (cusp + box truncation), never more
        assert 1.8 < sol.n_electrons <= 2.0 + 1e-9

    def test_scaling_covariance(self):
        # E(l^3 z, R/l) = l^7 E(z, R) exactly on matched scaled grids
        cfg = NuclearConfiguration(positions=[[-0.5, 0, 0], [0.5, 0, 0]],
                                   charges=[1.0, 1.0])
        grid = _grid_for(cfg, h=0.4)
        e1 = solve_tf(cfg, 2.0, grid).energy
        l = 2.0
        cfg2 = NuclearConfiguration(positions=cfg.positions / l,
                                    charges=cfg.charges * l**3)
        grid2 = Grid3D(origin=grid.origin / l, h=grid.h / l, dims=grid.dims)
        e2 = solve_tf(cfg2, 2.0 * l**3, grid2).energy
        assert e2 == pytest.approx(l**7 * e1, rel=1e-6)

    def test_phi_bounded_by_atomic_superposition(self):
        # Teller-type pointwise bounds: max_j phi_j <~ phi <~ sum_j phi_j
        cfg = NuclearConfiguration(positions=[[-0.75, 0, 0], [0.75, 0, 0]],
                                   charges=[2.0, 2.0])
        grid = _grid_for(cfg, h=0.3)
        sol = solve_tf(cfg, 4.0, grid)
        atom = atomic_tf(2.0)
        X, Y, Z = grid.meshgrid()
        phis = []
        for pos in cfg.positions:
            d = np.sqrt((X - pos[0]) ** 2 + (Y - pos[1]) ** 2 + (Z - pos[2]) ** 2)
            phis.append(atom.phi_at(np.maximum(d, grid.h / 2)))
        upper = phis[0] + phis[1]
        lower = np.maximum(phis[0], phis[1])
        dmin = np.minimum.reduce([
            np.sqrt((X - p[0]) ** 2 + (Y - p[1]) ** 2 + (Z - p[2]) ** 2)
            for p in cfg.positions
        ])
        interior = dmin > 2.5 * grid.h
        # the finite box truncates tail charge, leaving a spurious monopole
        # (Z - N)/r in the far field; allow for it explicitly
        deficit = cfg.Z - sol.n_electrons
        r_center = np.sqrt(X**2 + Y**2 + Z**2)
        tol = 0.1 * np.abs(upper) + 1.5 * deficit / np.maximum(r_center, grid.h)
        assert np.all(sol.phi.values[interior] <= (upper + tol)[interior])
        assert np.all(sol.phi.values[interior] >= (lower - tol)[interior])

    def test_residual_reported_below_tolerance(self):
        cfg = NuclearConfiguration(positions=[[0, 0, 0]], charges=[1.0])
        sol = solve_tf(cfg, 1.0, _grid_for(cfg, h=0.4))
        assert sol.residual < 1e-6

    def test_peak_memory_within_the_sweep_budget(self):
        # v_ext, rho and u, the mixer's history, and one Poisson solve's
        # output plus two interior arrays (counted here as grid arrays); the
        # constrained case (n = 1.5 < Z) sets mu by Newton steps on the
        # charge and must fit the same budget
        cfg = NuclearConfiguration(positions=[[-0.5, 0, 0], [0.5, 0, 0]],
                                   charges=[1.0, 1.0])
        grid = _grid_for(cfg, h=0.4)
        solve_tf(cfg, 2.0, grid)  # the universal profile is cached once
        budget = 3 + (2 * MIX_DEPTH + 2) + 3
        for n in (2.0, 1.5):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                solve_tf(cfg, n, grid)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            # half a grid array of slack: face work, ufunc buffers, validity masks
            assert peak <= (budget + 0.5) * 8 * math.prod(grid.dims), n

    def test_mirrored_solve_holds_folded_arrays_between_sweeps(self, monkeypatch):
        # H2 about the box centre is mirrored in x, y and z. At each sweep's
        # Poisson solve only v_ext, the grid input, is a grid array: its
        # fold, rho, u and the mixer's history are folded. The peak holds
        # the grid input and the two grid outputs rho and phi beside the
        # sweep budget above, counted in folded arrays
        import fermisurf.tf_molecule as tm

        cfg = NuclearConfiguration(positions=[[-0.5, 0, 0], [0.5, 0, 0]],
                                   charges=[1.0, 1.0])
        grid = _grid_for(cfg, h=0.4)
        assert nuclear_mirror_axes(grid, cfg) == (True, True, True)
        solve_tf(cfg, 2.0, grid)  # the universal profile and fold matrices are cached once
        full = 8 * math.prod(grid.dims)
        folded = 8 * math.prod(FoldedGrid(grid, (True, True, True)).shape)
        held, solve = [], tm.poisson_solve

        def recording(grid, source, mirror):
            held.append(tracemalloc.get_traced_memory()[0])
            return solve(grid, source, mirror)

        monkeypatch.setattr(tm, "poisson_solve", recording)
        budget = 3 + (2 * MIX_DEPTH + 2) + 3
        for n in (2.0, 1.5):
            held.clear()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                sol = solve_tf(cfg, n, grid)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert len(sol.history) > MIX_DEPTH + 2
            # half a grid array of slack, as above: face work, ufunc
            # buffers, validity masks and the interpreter's free lists
            between = max(held) - before
            assert between <= full + (3 + 2 * MIX_DEPTH + 2) * folded + full / 2, n
            assert peak <= 3 * full + budget * folded + full / 2, n

    def test_sweep_limit_raises_with_history(self, monkeypatch):
        monkeypatch.setattr("fermisurf.tf_molecule.TF_MAX_SWEEPS", 3)
        cfg = NuclearConfiguration(positions=[[0, 0, 0]], charges=[1.0])
        with pytest.raises(ConvergenceError) as info:
            solve_tf(cfg, 1.0, _grid_for(cfg, h=0.4))
        assert len(info.value.history) == 3


class TestPickMu:
    VOL = 0.1**3

    @staticmethod
    def _phi():
        return np.random.default_rng(11).uniform(-1.0, 4.0, (17, 17, 17))

    def _charge(self, phi, mu):
        return tf_density(phi, mu).sum() * self.VOL

    def _bisect(self, phi, target):
        # oracle: plain bisection for the charge-target crossing
        lo, hi = 0.0, max(1.0, float(phi.max()))
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if self._charge(phi, mid) > target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def test_matches_bisection_oracle(self):
        phi = self._phi()
        target = 0.4 * self._charge(phi, 0.0)
        mu, _ = _pick_mu(phi, target, self.VOL)
        oracle = self._bisect(phi, target)
        assert mu > 0.0
        assert abs(mu - oracle) <= 1e-12 * oracle
        assert abs(self._charge(phi, mu) - target) <= 1e-10 * target

    @pytest.mark.parametrize("fraction", [0.4, 1.0])
    def test_returns_the_density_at_mu(self, fraction):
        phi = self._phi()
        mu, rho = _pick_mu(phi, fraction * self._charge(phi, 0.0), self.VOL)
        assert np.array_equal(rho, tf_density(phi, mu))

    @pytest.mark.parametrize("fraction", [0.9, 0.4, 0.05])
    def test_binding_mu_does_not_overshoot(self, fraction):
        # Newton from mu = 0 on the convex excess climbs to the root from
        # below, so the charge at the returned mu is not short of the target
        phi = self._phi()
        target = fraction * self._charge(phi, 0.0)
        mu, rho = _pick_mu(phi, target, self.VOL)
        assert mu > 0.0
        assert rho.sum() * self.VOL >= target - 1e-10 * target

    def test_zero_when_unconstrained_charge_fits(self):
        phi = self._phi()
        assert _pick_mu(phi, self._charge(phi, 0.0), self.VOL)[0] == 0.0
        assert _pick_mu(phi, 2.0 * self._charge(phi, 0.0), self.VOL)[0] == 0.0

    def test_step_limit_raises_with_history(self, monkeypatch):
        monkeypatch.setattr("fermisurf.tf_molecule.PICK_MU_MAX_STEPS", 1)
        phi = self._phi()
        with pytest.raises(ConvergenceError) as info:
            _pick_mu(phi, 0.4 * self._charge(phi, 0.0), self.VOL)
        assert len(info.value.history) > 0
        assert info.value.history[0] > 0.0

    def test_phi_released_on_return(self):
        # phi must not survive in a reference cycle left by the mu search
        phi = self._phi()
        target = 0.4 * self._charge(phi, 0.0)
        ref = weakref.ref(phi)
        gc.disable()
        try:
            _pick_mu(phi, target, self.VOL)
            del phi
            assert ref() is None
        finally:
            gc.enable()


class TestExterior:
    def test_exterior_consistent_with_molecular_tail(self):
        cfg = NuclearConfiguration(positions=[[0, 0, 0]], charges=[2.0])
        grid = _grid_for(cfg, h=0.3)
        sol = solve_tf(cfg, 2.0, grid)
        mask = RegionMask(config=cfg, r=0.6)
        phi_r = _box_screened(sol, mask)
        gmask = mask.grid_mask(grid)
        v_r = np.where(gmask, phi_r, 0.0)
        bound = float(np.sum(sol.rho.values[gmask])) * grid.cell_volume
        # started from T(v_r), the TF density of the unscreened potential
        ext = exterior_tf(grid, _sliced(v_r), mask, bound, start=_sliced(tf_density(v_r)))
        # the exterior minimizer reproduces the molecular density on A_r
        diff = np.abs(ext.rho.values - sol.rho.values)[gmask]
        scale = np.max(sol.rho.values[gmask])
        assert np.max(diff) < 0.05 * scale
        assert ext.mu <= 1e-8

    def test_no_node_inside_the_balls(self):
        # the nucleus sits at a cell centre, sqrt(3) h/2 = 0.43 > r from every
        # node, so A_r holds every node and the whole potential is read
        cfg = NuclearConfiguration(positions=[[0.25, 0.25, 0.25]], charges=[1.0])
        grid = Grid3D.cube((0, 0, 0), 6.0, 25)
        mask = RegionMask(config=cfg, r=0.3)
        assert mask.grid_mask(grid).all()
        v = external_potential(grid, cfg)
        ext = exterior_tf(grid, _sliced(v), mask, 1.0, start=_sliced(tf_density(v)))
        assert 0.0 < ext.n_electrons <= 1.0 + 1e-10

    def test_exterior_density_vanishes_inside(self):
        cfg = NuclearConfiguration(positions=[[0, 0, 0]], charges=[2.0])
        grid = _grid_for(cfg, h=0.35)
        sol = solve_tf(cfg, 2.0, grid)
        mask = RegionMask(config=cfg, r=0.7)
        phi_r = _box_screened(sol, mask)
        gmask = mask.grid_mask(grid)
        v_r = np.where(gmask, phi_r, 0.0)
        ext = exterior_tf(grid, _sliced(v_r), mask, 2.0, start=_sliced(tf_density(v_r)))
        assert np.all(ext.rho.values[~gmask] == 0.0)

    def test_poisson_sources_stay_within_the_charge_bound(self, monkeypatch):
        # every density the constrained sweep feeds to the Poisson solver
        # must be a nonnegative density of charge <= bound
        cfg = diatomic(6.0, 6.0, 2.0)
        grid = GridPolicy(spacing=0.25).build(cfg)
        sol = solve_tf(cfg, cfg.Z, grid)
        mask = RegionMask(config=cfg, r=0.5)
        phi_r = _box_screened(sol, mask)
        gmask = mask.grid_mask(grid)
        v_r = np.where(gmask, phi_r, 0.0)
        bound = float(np.sum(sol.rho.values[gmask])) * grid.cell_volume
        sources = _record_poisson_sources(monkeypatch)
        ext = exterior_tf(grid, _sliced(v_r), mask, bound, start=_sliced(tf_density(v_r)))
        assert len(sources) > 2
        assert min(float(s.min()) for s in sources) >= 0.0
        assert max(float(s.sum()) * grid.cell_volume for s in sources) <= bound + 1e-10
        # no mask is applied to rho: u > 0 makes phi < 0 off A_r, where the
        # potential vanishes, so the TF density is exactly 0 there
        assert ext.phi.values[~gmask].max() < 0.0
        assert np.all(ext.rho.values[~gmask] == 0.0)

    def test_molecular_start_is_the_fixed_point(self):
        # criterion 9's box: the restriction of the molecular minimizer to
        # A_r solves the exterior problem with the screened potential, so
        # the sweep stops at its first density change. That change is the
        # molecule's own one-sweep change on A_r; it sits below TF_TOL here
        # (4.9e-9). On boxes where it does not, the constrained sweep still
        # takes several more sweeps to close the gap.
        cfg = diatomic(6.0, 6.0, 2.0)
        grid = GridPolicy(spacing=0.25).build(cfg)
        sol = solve_tf(cfg, cfg.Z, grid)
        mask = RegionMask(config=cfg, r=0.5)
        bound = float(np.sum(sol.rho.values[mask.grid_mask(grid)])) * grid.cell_volume

        def phi_r(folded):
            return screened_tf(sol, mask, folded)

        cold = exterior_tf(grid, phi_r, mask, bound,
                           start=lambda folded: atomic_superposition(folded, cfg))
        warm = exterior_tf(grid, phi_r, mask, bound, start=_sliced(sol.rho.values))
        assert len(warm.history) <= 2 < len(cold.history)
        # both solves stop once a sweep moves rho by less than TF_TOL of its
        # charge, and the energy is stationary at the minimizer; measured
        # gap 7.0e-10 Ha, about 3e-3 TF_TOL |E|
        assert abs(warm.energy - cold.energy) <= TF_TOL * abs(cold.energy)

    def test_screened_potential_splits_the_molecular_phi(self):
        # the outside-model identity behind the molecular start: on A_r,
        # Phi_r - P(rho 1_{A_r}) = V - P(rho 1_{A_r^c}) - P(rho 1_{A_r}) is
        # the molecular phi. It needs a Poisson solve linear in its source;
        # this box has its second nucleus off a node, where expanding each
        # source about its own charge centre missed by 1.5e-5 Ha
        cfg = diatomic(1.0, 1.0, 1.4)
        grid = GridPolicy(spacing=0.5).build(cfg)
        assert not np.allclose((cfg.positions[1] - grid.origin) / grid.h % 1.0, 0.0)
        sol = solve_tf(cfg, cfg.Z, grid)
        mask = RegionMask(config=cfg, r=0.5)
        gmask = mask.grid_mask(grid)
        outer = poisson_solve(grid, np.where(gmask, sol.rho.values, 0.0))
        split = _box_screened(sol, mask) - outer
        assert np.max(np.abs(split - sol.phi.values)[gmask]) <= 1e-10

    @pytest.mark.parametrize("charges, R, spacing, mirror", [
        ((6.0, 6.0), 2.0, 0.25, (True, True, True)),  # criterion 9's box
        ((1.0, 1.0), 1.4, 0.5, (False, True, True)),  # second nucleus off a node
    ])
    def test_mirrored_screened_potential_matches_the_full_solve(self, charges, R,
                                                                spacing, mirror):
        cfg = diatomic(*charges, R)
        grid = GridPolicy(spacing=spacing).build(cfg)
        sol = solve_tf(cfg, cfg.Z, grid)
        mask = RegionMask(config=cfg, r=0.5)
        assert nuclear_mirror_axes(grid, cfg) == mirror
        inner = np.where(mask.grid_mask(grid), 0.0, sol.rho.values)
        # the inner density has the nuclei's symmetry to the bit, and no other
        assert _flip_symmetric(inner) == mirror
        full = external_potential(grid, cfg) - poisson_solve(grid, inner)
        fold = FoldedGrid(grid, mirror)
        phi_r = screened_tf(sol, mask, fold)
        assert phi_r.shape == fold.shape
        assert np.max(np.abs(phi_r - full[fold.index])) <= 1e-13 * np.max(np.abs(full))
        # the fold's potential, unfolded, solves the stencil system of the
        # whole box and its source within the Poisson solve's own bound
        u = poisson_solve(grid, inner[fold.index], mirror)
        h2 = grid.h**2
        res = stencil_residual(grid, unfold(grid, u, mirror),
                               (4.0 * math.pi * h2 * inner)[1:-1, 1:-1, 1:-1])
        assert res <= CHECK_TOL * h2 * max(1.0, 4.0 * math.pi * np.max(inner))

    def test_screened_potential_on_the_fold_holds_under_two_box_arrays(self):
        # (6, 6) at R = 2 on a 33^3 box, folded in y and z: the inner
        # density, the Poisson solve and V_R are all formed on the fold.
        # Formed on the box and sliced, the peak was 4.28 box arrays
        cfg = diatomic(6.0, 6.0, 2.0)
        grid = GridPolicy(spacing=0.3).build(cfg)
        assert grid.shape == (33, 33, 33)
        sol = solve_tf(cfg, cfg.Z, grid)
        mask = RegionMask(config=cfg, r=0.5)
        folded = FoldedGrid(grid, nuclear_mirror_axes(grid, cfg))
        assert folded.mirror == (False, True, True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            phi_r = screened_tf(sol, mask, folded)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert phi_r.shape == folded.shape
        assert peak < 2 * 8 * math.prod(grid.shape)  # 1.55 measured

    def test_start_is_restricted_and_scaled_to_the_bound(self, monkeypatch):
        # a start that is 1 everywhere, inside the balls too, with more
        # charge than the bound: the first Poisson source is its restriction
        # to A_r scaled down to the bound
        grid, v_r, mask = _bare_exterior_problem()
        gmask = mask.grid_mask(grid)
        calls = []

        def start(folded):
            calls.append(None)
            return np.ones(folded.shape)

        sources = _record_poisson_sources(monkeypatch)
        exterior_tf(grid, _sliced(v_r), mask, 1.0, start=start)
        assert len(calls) == 1
        first = sources[0]
        assert np.all(first[~gmask] == 0.0)
        assert np.ptp(first[gmask]) == 0.0
        assert float(first.sum()) * grid.cell_volume == pytest.approx(1.0, rel=1e-12)


def _record_poisson_sources(monkeypatch):
    """Every source handed to tf_molecule's Poisson solver, as a grid array.

    A folded source is recorded unfolded, so the checks read every node.
    """
    import fermisurf.tf_molecule as tm

    sources = []
    solve = tm.poisson_solve

    def recording(grid, source, mirror=(False, False, False)):
        sources.append(np.array(unfold(grid, source, mirror)))
        return solve(grid, source, mirror)

    monkeypatch.setattr(tm, "poisson_solve", recording)
    return sources


def _bare_exterior_problem():
    """Bare z = 2 Coulomb potential on A_r, r = 0.8, on a coarse grid."""
    cfg = NuclearConfiguration(positions=[[0, 0, 0]], charges=[2.0])
    grid = _grid_for(cfg, h=0.4)
    mask = RegionMask(config=cfg, r=0.8)
    gmask = mask.grid_mask(grid)
    dist = np.sqrt(grid.squared_distance(cfg.positions[0]))
    v_r = np.where(gmask, 2.0 / np.maximum(dist, grid.h), 0.0)
    return grid, v_r, mask


class TestPoissonCount:
    # one solve per sweep plus the two closing ones; perfbench's traced
    # count identity relies on it
    def test_solve_tf(self, monkeypatch):
        cfg = NuclearConfiguration(positions=[[-0.5, 0, 0], [0.5, 0, 0]],
                                   charges=[1.0, 1.0])
        sources = _record_poisson_sources(monkeypatch)
        sol = solve_tf(cfg, 1.5, _grid_for(cfg, h=0.4))
        assert len(sources) == len(sol.history) + 2

    def test_exterior_tf(self, monkeypatch):
        grid, v_r, mask = _bare_exterior_problem()
        sources = _record_poisson_sources(monkeypatch)
        ext = exterior_tf(grid, _sliced(v_r), mask, 1.0, start=_sliced(tf_density(v_r)))
        assert len(sources) == len(ext.history) + 2


class TestPickMuCount:
    # every constrained mu solve goes through _pick_mu, whose name
    # perfbench's traced pick_mu span wraps: one per sweep for the Poisson
    # output, one per mixed sweep after the first, and the closing one
    def test_exterior_tf(self, monkeypatch):
        import fermisurf.tf_molecule as tm

        grid, v_r, mask = _bare_exterior_problem()
        calls = []
        pick_mu = tm._pick_mu

        def counting(*args):
            out = pick_mu(*args)
            calls.append(out[0])
            return out

        monkeypatch.setattr(tm, "_pick_mu", counting)
        ext = exterior_tf(grid, _sliced(v_r), mask, 1.0, start=_sliced(tf_density(v_r)))
        sweeps = len(ext.history)
        assert sweeps >= 2
        assert len(calls) == 2 * sweeps - 1
        assert max(calls) > 0.0  # the bound binds, so mu is solved for
        assert calls[-1] == ext.mu


class TestMirroredSolves:
    """Odd-mode Poisson solves at spacings whose nodes are not dyadic.

    Each problem is solved twice: with the mirror rule as it is
    (`nuclear_mirror_axes`), and with it forced to find no axis, which is
    the full transform.
    """

    @staticmethod
    def _both_ways(monkeypatch, solve):
        import fermisurf.tf_molecule as tm

        found, rule = [], tm.nuclear_mirror_axes

        def recording(*args):
            found.append(rule(*args))
            return found[-1]

        with monkeypatch.context() as m:
            m.setattr(tm, "nuclear_mirror_axes", recording)
            mirrored = solve()
        with monkeypatch.context() as m:
            m.setattr(tm, "nuclear_mirror_axes", lambda *args: (False, False, False))
            full = solve()
        return mirrored, full, found

    def test_on_axis_exterior_problem(self, monkeypatch):
        # (6, 6) at R = 2, h = 0.3: the molecule and its exterior problem
        # on A_r, r = 0.5, whose staircase mask comes from the grid nodes
        cfg = diatomic(6.0, 6.0, 2.0)
        grid = GridPolicy(spacing=0.3).build(cfg)
        mask = RegionMask(config=cfg, r=0.5)

        def solve():
            mol = solve_tf(cfg, cfg.Z, grid)
            bound = float(np.sum(mol.rho.values[mask.grid_mask(grid)])) * grid.cell_volume
            ext = exterior_tf(grid, lambda folded: screened_tf(mol, mask, folded), mask,
                              bound, start=_sliced(mol.rho.values))
            return mol.energy, ext.energy

        mirrored, full, found = self._both_ways(monkeypatch, solve)
        # the molecule and the exterior problem, whose fold the screened
        # potential is formed on
        assert found == [(False, True, True)] * 2
        assert np.max(np.abs(np.subtract(mirrored, full))) <= 1e-10

    @pytest.mark.parametrize("second, axes", [
        ([0.7, 0.0, 0.0], (False, True, True)),
        ([0.5, 0.4, 0.3], (False, False, False)),  # off the x axis
    ])
    def test_solve_tf(self, monkeypatch, second, axes):
        cfg = NuclearConfiguration(positions=[[-0.7, 0.0, 0.0], second],
                                   charges=[1.0, 2.0])
        grid = GridPolicy(spacing=0.35).build(cfg)
        mirrored, full, found = self._both_ways(
            monkeypatch, lambda: solve_tf(cfg, cfg.Z, grid).energy)
        assert found == [axes]
        assert abs(mirrored - full) <= 1e-10


    @pytest.mark.parametrize("charges, R, spacing, axes", [
        ((2.0,), 0.0, 0.35, (True, True, True)),  # an atom on the central node
        ((1.0, 1.0), 1.4, 0.5, (False, True, True)),  # H2, second nucleus off a node
    ])
    def test_folded_fixed_point_matches_the_full_box(self, monkeypatch, charges, R,
                                                     spacing, axes):
        cfg = (NuclearConfiguration(positions=[[0.0, 0.0, 0.0]], charges=charges)
               if R == 0.0 else diatomic(*charges, R))
        grid = GridPolicy(spacing=spacing).build(cfg)
        if R:
            assert not np.allclose((cfg.positions[1] - grid.origin) / grid.h % 1.0, 0.0)
        folded, full, found = self._both_ways(monkeypatch,
                                              lambda: solve_tf(cfg, cfg.Z, grid))
        assert found == [axes]
        assert len(folded.history) == len(full.history)
        assert abs(folded.energy - full.energy) <= 1e-12 * abs(full.energy)
        for name in ("rho", "phi"):
            a, b = getattr(folded, name).values, getattr(full, name).values
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name


def _benchmark_boxes():
    """(config, grid) of every box the benchmark's three workloads solve on.

    The inputs of perfbench/workloads.py at seeds 0-3: each R is scaled by
    a factor uniform in [0.97, 1.03] drawn from random.Random(seed) (seed
    0 keeps it), and each molecule's box comes with its nuclei's matched
    atomic grids.
    """
    workloads = [((6.0, 6.0), [0.25, 0.4375, 0.625, 0.8125, 1.0], 0.125),  # tf_teller_sweep
                 ((1.0, 1.0), [1.4], 0.35),  # ks_h2_point
                 ((6.0, 6.0), [2.0], 0.25)]  # tf_exterior_decomp
    for seed in range(4):
        for charges, Rs, h in workloads:
            rng = random.Random(seed)  # one generator per workload
            for R in Rs if seed == 0 else [R * (1.0 + rng.uniform(-0.03, 0.03)) for R in Rs]:
                cfg = diatomic(*charges, R)
                grid = GridPolicy(spacing=h).build(cfg)
                yield cfg, grid
                for pos, z in zip(cfg.positions, cfg.charges):
                    yield (NuclearConfiguration(positions=[pos], charges=[z]),
                           matched_atomic_grid(grid, pos))


class TestNuclearMirrorAxes:
    """The configuration rule against the flips of the arrays it folds."""

    def test_matches_the_potential_on_every_benchmark_box(self):
        seen = set()
        for cfg, grid in _benchmark_boxes():
            rule = nuclear_mirror_axes(grid, cfg)
            v = external_potential(grid, cfg)
            assert rule == _flip_symmetric(v, MIRROR_TOL), (cfg, grid)
            seen.add(rule)
        # symmetric pairs, off-node pairs and on-node atoms all occur
        assert {(True, True, True), (False, True, True)} <= seen

    @pytest.mark.parametrize("r", [0.5, 0.4, 0.3])
    def test_region_masks_have_the_rule_symmetry(self, r):
        # a node at distance r within rounding is on the sphere, so it and
        # its mirror image are left out together. With A_r = {d^2 > r^2}
        # alone, seeds 1 and 3 of the decomposition's on-node atom put one
        # of six nodes at exactly 2h = 0.5 inside and its image outside.
        # An asymmetric pair's mask can be symmetric by chance (no node
        # between a ball and its image's), so only the rule's axes are checked
        checked = 0
        for cfg, grid in _benchmark_boxes():
            if cfg.K >= 2 and r > cfg.R_min / 2.0:
                continue  # the balls would overlap: no such mask
            mask = RegionMask(config=cfg, r=r).grid_mask(grid)
            flips = _flip_symmetric(mask)
            for axis, mirrored in enumerate(nuclear_mirror_axes(grid, cfg)):
                assert flips[axis] or not mirrored, (cfg, grid, axis)
            checked += 1
        assert checked >= 40

    @pytest.mark.parametrize("positions, charges, axes", [
        ([[-0.6, 0.0, 0.0], [0.77, 0.0, 0.0]], [1.0, 3.0], (False, True, True)),  # off node
        ([[-0.7, 0.0, 0.0], [0.7, 0.0, 0.0]], [2.0, 2.0], (True, True, True)),
        ([[-0.7, 0.0, 0.0], [0.7, 0.0, 0.0]], [2.0, 3.0], (False, True, True)),
    ])
    def test_pairs(self, positions, charges, axes):
        cfg = NuclearConfiguration(positions=positions, charges=charges)
        grid = _grid_for(cfg)
        assert nuclear_mirror_axes(grid, cfg) == axes
        assert _flip_symmetric(external_potential(grid, cfg), MIRROR_TOL) == axes

    @pytest.mark.parametrize("mirror", [(True, True, True), (False, True, True),
                                        (True, False, False)])
    def test_folded_potential_is_the_box_potential(self, mirror):
        # one nucleus on a node inside every fold, one whose node lies
        # outside the x fold: each fold value is the box value to the bit
        cfg = NuclearConfiguration(positions=[[0.35, 0.0, 0.0], [-0.52, 0.11, 0.0]],
                                   charges=[1.0, 2.0])
        grid = _grid_for(cfg)
        folded = FoldedGrid(grid, mirror)
        v = external_potential(folded, cfg)
        assert v.shape == folded.shape
        assert np.array_equal(v, external_potential(grid, cfg)[folded.index])


class TestMatchedGrid:
    def test_preserves_subcell_offset(self):
        grid = Grid3D.cube((0.05, 0.0, 0.0), 4.0, 33)
        pos = np.array([0.3, 0.1, -0.2])
        agrid = matched_atomic_grid(grid, pos)
        assert agrid.h == grid.h and agrid.dims == grid.dims
        off_orig = (pos - grid.origin) / grid.h
        off_new = (pos - agrid.origin) / agrid.h
        assert np.allclose(off_orig - np.round(off_orig),
                           off_new - np.round(off_new), atol=1e-12)
        # nucleus near the box center
        center = agrid.origin + agrid.h * (np.asarray(agrid.dims) - 1) / 2.0
        assert np.linalg.norm(pos - center) < 2.0 * grid.h


class TestAtomicSuperposition:
    def test_equals_per_node_evaluation(self):
        # one radial evaluation per distinct distance must give the same bits
        cfg = NuclearConfiguration(positions=[[-0.4, 0.0, 0.0], [0.6, 0.1, 0.0]],
                                   charges=[1.0, 3.0])
        grid = _grid_for(cfg, h=0.4)
        X, Y, Z = grid.meshgrid()
        expected = np.zeros(grid.shape)
        for pos, z in zip(cfg.positions, cfg.charges):
            d = np.sqrt((X - pos[0]) ** 2 + (Y - pos[1]) ** 2 + (Z - pos[2]) ** 2)
            expected += atomic_tf(z).rho_at(np.maximum(d, grid.h / 4.0))
        assert np.array_equal(atomic_superposition(grid, cfg), expected)
