import numpy as np
import pytest

import fermisurf.bo as bo
from fermisurf.bo import GridPolicy, _richardson, bo_tf, diatomic, gamma_limit, tf_sweep
from fermisurf.grids import GridError
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

    def test_levels_halve_spacing(self, pair_11):
        pol = GridPolicy(spacing=0.4)
        assert pol.build(pair_11, level=1).h == pytest.approx(0.2)

    def test_rejects_thin_margin(self):
        with pytest.raises(GridError):
            GridPolicy(spacing=0.4, margin_factor=2.0)


class TestRichardson:
    def test_exact_on_quadratic_model(self):
        exact = 3.7
        vals = [exact + 0.9 * h**2 for h in (0.4, 0.2, 0.1)]
        assert _richardson(vals) == pytest.approx(exact, abs=1e-12)


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

    def test_richardson_levels_move_toward_fine_value(self, pair_11):
        coarse = bo_tf(pair_11, GridPolicy(spacing=0.5))
        extrap = bo_tf(pair_11, GridPolicy(spacing=0.5, levels=2))
        fine = bo_tf(pair_11, GridPolicy(spacing=0.125))
        assert abs(extrap.D - fine.D) < abs(coarse.D - fine.D)


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


class TestKS:
    def test_rejects_richardson_levels_before_solving(self, monkeypatch, lda):
        def no_solve(*args, **kwargs):
            raise AssertionError("bo_ks solved before checking levels")

        monkeypatch.setattr(bo, "scf_molecule", no_solve)
        with pytest.raises(ValueError, match="levels"):
            bo.bo_ks(diatomic(1.0, 1.0, 1.4), lda, GridPolicy(spacing=0.5, levels=2))

    def test_h2_point_matches_recorded_value(self, lda):
        # D recorded while every SCF step still converged a buffer orbital
        # beside the occupied one; converging only the occupied state with
        # a checked guard must not move it beyond the SCF noise
        s = bo.bo_ks(diatomic(1.0, 1.0, 1.4), lda, GridPolicy(spacing=0.35))
        assert s.D == pytest.approx(-0.2259201260764, abs=1e-6)


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
