import numpy as np
import pytest

import fermisurf.bo as bo
from fermisurf.bo import GridPolicy, bo_tf, diatomic, gamma_limit, tf_sweep
from fermisurf.grids import GridError
from fermisurf.ks_molecule import scf_molecule
from fermisurf.tf_molecule import NuclearConfiguration, matched_atomic_grid, solve_tf


@pytest.fixture(scope="module")
def pair_11():
    return NuclearConfiguration(
        positions=[[-0.5, 0.0, 0.0], [0.5, 0.0, 0.0]], charges=[1.0, 1.0]
    )


class TestGridPolicy:
    def test_margin_scales_with_z(self):
        pol = GridPolicy(spacing=0.4)
        heavy = NuclearConfiguration(positions=[[0, 0, 0]], charges=[27.0])
        light = NuclearConfiguration(positions=[[0, 0, 0]], charges=[1.0])
        assert pol.margin(heavy) == pytest.approx(2.0)
        assert pol.margin(light) == pytest.approx(6.0)

    def test_build_covers_nuclei_with_margin(self, pair_11):
        pol = GridPolicy(spacing=0.4)
        grid = pol.build(pair_11)
        for p in pair_11.positions:
            assert grid.min_face_distance(p) >= pol.margin(pair_11) - grid.h

    def test_first_nucleus_on_node(self, pair_11):
        grid = GridPolicy(spacing=0.4).build(pair_11)
        p = pair_11.positions[0]
        idx = grid.index_of(p)
        node = grid.origin + grid.h * np.asarray(idx)
        assert np.linalg.norm(node - p) < 1e-10

    def test_rejects_thin_margin(self):
        with pytest.raises(GridError):
            GridPolicy(spacing=0.4, margin_factor=2.0)


class TestSurfaces:
    def test_teller_positive_and_fields(self, pair_11):
        s = bo_tf(pair_11, GridPolicy(spacing=0.4))
        assert s.D > 0.0
        assert s.E_mol < 0.0 and s.E_atoms < 0.0
        assert s.U_R == pytest.approx(1.0)
        assert s.grid_h == pytest.approx(0.4)

    def test_sweep_sorted_and_decreasing(self):
        curve = tf_sweep((1.0, 1.0), [2.0, 1.0, 1.5], GridPolicy(spacing=0.4))
        rs = [s.R_min for s in curve.samples]
        assert rs == sorted(rs)
        ds = [s.D for s in curve.samples]
        assert ds[0] > ds[1] > ds[2] > 0.0


class TestAtomicReferences:
    @staticmethod
    def _count_solves(monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].K)
            return solve_tf(*args, **kwargs)

        monkeypatch.setattr(bo, "solve_tf", counting)
        return calls

    def test_nuclei_on_nodes_share_one_atomic_solve(self, monkeypatch):
        # h = 0.4, R = 1.2 = 3h: both nuclei sit on nodes
        cfg = diatomic(1.0, 1.0, 1.2)
        calls = self._count_solves(monkeypatch)
        s = bo_tf(cfg, GridPolicy(spacing=0.4))
        assert calls == [2, 1]
        grid = GridPolicy(spacing=0.4).build(cfg)
        mol = solve_tf(cfg, 2.0, grid)
        single = NuclearConfiguration(positions=[cfg.positions[0]], charges=[1.0])
        e_atom = solve_tf(single, 1.0, matched_atomic_grid(grid, cfg.positions[0])).energy
        assert s.D == mol.energy - 2.0 * e_atom + cfg.U_R

    def test_distinct_offsets_solve_each_atom(self, monkeypatch):
        # R = 1.0 = 2.5h: the second nucleus sits half a cell off the nodes
        calls = self._count_solves(monkeypatch)
        bo_tf(diatomic(1.0, 1.0, 1.0), GridPolicy(spacing=0.4))
        assert calls == [2, 1, 1]


def _recorded_bo_ks(config, lda, spacing):
    """bo_ks, with each scf_molecule call kept as [K, copy of its start or None, state]."""
    runs = []
    real = bo.scf_molecule

    def recording(cfg, *args, **kwargs):
        start = kwargs.get("rho")
        runs.append([cfg.K, None if start is None else start.copy()])
        runs[-1].append(real(cfg, *args, **kwargs))
        return runs[-1][-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bo, "scf_molecule", recording)
        sample = bo.bo_ks(config, lda, GridPolicy(spacing=spacing))
    return sample, runs


class TestKS:
    @pytest.fixture(scope="class")
    def h2_point(self, lda):
        # R = 1.4 = 4h: both nuclei sit on nodes and share one reference
        return _recorded_bo_ks(diatomic(1.0, 1.0, 1.4), lda, 0.35)

    def test_h2_point_matches_recorded_value(self, h2_point):
        # D recorded while every SCF step still converged a buffer orbital
        # beside the occupied one; converging only the occupied state with
        # a checked guard must not move it beyond the SCF noise
        s, _ = h2_point
        assert s.D == pytest.approx(-0.2259201260764, abs=1e-6)

    def test_shared_reference_starts_both_nuclei(self, h2_point):
        _, runs = h2_point
        assert [k for k, _, _ in runs] == [1, 2]  # one atomic solve, then the molecule
        start = runs[1][1]
        cfg = diatomic(1.0, 1.0, 1.4)
        grid = GridPolicy(spacing=0.35).build(cfg)
        # one electron at each nucleus, each the reference's density
        assert grid.integrate(start) == pytest.approx(2.0, rel=1e-3)
        peaks = [start[grid.index_of(p)] for p in cfg.positions]
        assert peaks[0] == pytest.approx(peaks[1], rel=1e-4)
        assert peaks[0] == pytest.approx(start.max(), rel=1e-4)

    @pytest.mark.parametrize("charges, R", [((1.0, 1.0), 1.4), ((1.0, 2.0), 2.0)])
    def test_matched_atom_start_keeps_D_and_saves_steps(self, lda, charges, R):
        cfg = diatomic(*charges, R)
        s, runs = _recorded_bo_ks(cfg, lda, 0.5)
        ((_, start, mol),) = [run for run in runs if run[0] == 2]
        grid = GridPolicy(spacing=0.5).build(cfg)
        assert start is not None and start.shape == grid.shape
        # the same point with the molecule started from superposed TF atoms
        tf_start = scf_molecule(cfg, cfg.Z, lda, grid)
        assert s.D == pytest.approx(tf_start.energy["total"] - s.E_atoms + cfg.U_R,
                                    rel=0.0, abs=1e-9)
        assert len(mol.scf_history) <= len(tf_start.scf_history)


class TestBondAxis:
    """D and the folds follow the bond from x to y and z.

    The fold code branches per axis: the residual check's x shift stops
    short of the centre plane, while the y and z shifts wrap onto it.
    Each solve's fold flags are recorded and rolled back to the x bond.
    """

    @staticmethod
    def _check(monkeypatch, module, pair, point):
        """point(pair) with the bond along x, y and z, each solve's folds recorded."""
        rule, Ds, folds = module.nuclear_mirror_axes, [], []
        for axis in range(3):
            flags = []

            def recording(grid, config):
                flags.append(rule(grid, config))
                return flags[-1]

            rolled = NuclearConfiguration(positions=np.roll(pair.positions, axis, axis=1),
                                          charges=pair.charges)  # x -> axis
            with monkeypatch.context() as m:
                m.setattr(module, "nuclear_mirror_axes", recording)
                Ds.append(point(rolled))
            folds.append([tuple(np.roll(f, -axis)) for f in flags])
        assert np.ptp(Ds) <= 1e-10
        assert (False, True, True) in folds[0]  # the molecule's bond axis is not folded
        assert folds[1] == folds[0] and folds[2] == folds[0]

    def test_tf(self, monkeypatch):
        # (1, 2) with both nuclei on nodes; 1.8e-15 Ha spread measured
        import fermisurf.tf_molecule as tm

        self._check(monkeypatch, tm, diatomic(1.0, 2.0, 1.5),
                    lambda cfg: bo_tf(cfg, GridPolicy(spacing=0.25)).D)

    def test_ks(self, lda, monkeypatch):
        # H2 with its second nucleus off a node; 6.2e-15 Ha spread measured
        import fermisurf.ks_molecule as km

        self._check(monkeypatch, km, diatomic(1.0, 1.0, 1.43),
                    lambda cfg: bo.bo_ks(cfg, lda, GridPolicy(spacing=0.35)).D)


class TestGamma:
    def test_ladder_monotone_and_positive(self, pair_11):
        unit = NuclearConfiguration(positions=[[0, 0, 0], [1.0, 0, 0]],
                                    charges=[1.0, 1.0])
        est = gamma_limit(unit, [2.0, 3.0, 4.0], GridPolicy(spacing=0.3))
        assert len(est.ladder) == 3
        assert all(v > 0 for v in est.ladder)
        assert est.ladder[0] < est.ladder[1] < est.ladder[2]
        assert est.value >= est.ladder[-1] - est.error
        assert est.error > 0.0

    def test_requires_three_rungs(self, pair_11):
        with pytest.raises(ValueError):
            gamma_limit(pair_11, [2.0, 3.0], GridPolicy(spacing=0.4))
