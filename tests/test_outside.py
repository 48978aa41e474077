from dataclasses import replace

import numpy as np
import pytest

import fermisurf.bo as bo
import fermisurf.outside as outside
from fermisurf.bo import GridPolicy, bo_tf, diatomic
from fermisurf.outside import (
    UniformBall,
    outside_decomposition_check,
    qij_tf,
)
from fermisurf.tf_atom import atomic_tf
from fermisurf.tf_molecule import NuclearConfiguration, solve_tf


@pytest.fixture(scope="module")
def pair_cfg():
    return NuclearConfiguration(
        positions=[[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]], charges=[2.0, 3.0]
    )


class TestUniformBall:
    def test_charge_within(self):
        ball = UniformBall(z=4.0, a=2.0)
        assert ball.charge_within(1.0) == pytest.approx(0.5)
        assert ball.charge_within(2.0) == pytest.approx(4.0)
        assert ball.charge_within(5.0) == pytest.approx(4.0)


class TestAtomicChargeWithin:
    def test_grows_to_the_nuclear_charge(self):
        sol = atomic_tf(2.0)
        q1 = sol.charge_within(1.0)
        q2 = sol.charge_within(5.0)
        assert 0.0 < q1 < q2 <= 2.0 + 1e-6


class TestQij:
    def test_fully_screened_uniform_balls_cancel_exactly(self, pair_cfg):
        # clouds carrying the full nuclear charge inside r: Q_ij = 0
        balls = [UniformBall(z=2.0, a=0.5), UniformBall(z=3.0, a=0.5)]
        Q = qij_tf(balls, pair_cfg, r=1.0)
        assert abs(Q[0, 1]) < 1e-12

    def test_partial_screening_matches_point_formula(self, pair_cfg):
        # disjoint balls act as point charges q_j(r): Q = (z_i-q_i)(z_j-q_j)/d
        balls = [UniformBall(z=2.0, a=2.0), UniformBall(z=3.0, a=2.0)]
        r = 1.0
        q1 = balls[0].charge_within(r)
        q2 = balls[1].charge_within(r)
        Q = qij_tf(balls, pair_cfg, r=r)
        assert Q[0, 1] == pytest.approx((2.0 - q1) * (3.0 - q2) / 2.0, rel=1e-10)

    def test_tf_clouds_act_as_point_charges(self, pair_cfg):
        sols = [atomic_tf(2.0), atomic_tf(3.0)]
        r = 0.8
        q1 = sols[0].charge_within(r)
        q2 = sols[1].charge_within(r)
        Q = qij_tf(sols, pair_cfg, r=r)
        assert Q[0, 1] == pytest.approx((2.0 - q1) * (3.0 - q2) / 2.0, rel=1e-12)

    def test_small_radius_recovers_bare_repulsion(self, pair_cfg):
        sols = [atomic_tf(2.0), atomic_tf(3.0)]
        Q = qij_tf(sols, pair_cfg, r=1e-3)
        assert Q[0, 1] == pytest.approx(2.0 * 3.0 / 2.0, rel=1e-3)

    def test_symmetry_with_tf_clouds(self):
        cfg = NuclearConfiguration(
            positions=[[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.5, 0.0]],
            charges=[1.0, 2.0, 3.0],
        )
        sols = [atomic_tf(z) for z in (1.0, 2.0, 3.0)]
        Q = qij_tf(sols, cfg, r=0.8)
        assert np.allclose(Q, Q.T, atol=1e-8)
        assert np.allclose(np.diag(Q), 0.0)

    def test_rejects_overlapping_balls(self, pair_cfg):
        balls = [UniformBall(z=2.0, a=1.0), UniformBall(z=3.0, a=1.0)]
        with pytest.raises(ValueError):
            qij_tf(balls, pair_cfg, r=1.5)

    def test_rejects_wrong_cloud_count(self, pair_cfg):
        with pytest.raises(ValueError):
            qij_tf([UniformBall(z=2.0, a=1.0)], pair_cfg, r=0.5)


class TestDecomposition:
    def test_single_atom_decomposition_gap_is_small(self):
        # K = 1: D vanishes and the molecular/atomic exterior problems
        # coincide up to interpolation error on the shared staircase mask
        cfg = NuclearConfiguration(positions=[[0.0, 0.0, 0.0]], charges=[2.0])
        report = outside_decomposition_check(
            cfg, [0.6], GridPolicy(spacing=0.35)
        )
        assert abs(report.D_tf) < 5e-3
        s = report.samples[0]
        assert s.gap < 0.1
        assert s.gap_r7 == pytest.approx(s.gap * 0.6**7, rel=1e-12)
        assert report.gap_r7_decreasing


_PAIR = diatomic(2.0, 2.0, 2.0)
_POLICY = GridPolicy(spacing=0.5)


@pytest.fixture(scope="module")
def counted_check():
    """The decomposition of a (2, 2) pair, with its molecular TF solves counted."""
    molecular = []
    with pytest.MonkeyPatch.context() as mp:
        for module in (outside, bo):
            solve = module.solve_tf

            def counting(config, n, grid, solve=solve):
                if config.K == _PAIR.K:
                    molecular.append(config)
                return solve(config, n, grid)

            mp.setattr(module, "solve_tf", counting)
        report = outside_decomposition_check(_PAIR, [0.6, 0.5], _POLICY)
    return report, molecular


class TestAtomicExteriors:
    def test_each_distinct_atom_is_solved_once_per_radius_from_one_start(self, monkeypatch):
        # both nuclei of the pair sit on nodes, so they share one matched
        # atomic problem: per radius one molecular and one atomic exterior
        # solve, and the atom's start is built once for both radii
        calls = {"exterior": [], "start": 0}
        exterior, start = outside.exterior_tf, outside.atomic_superposition

        def counting_exterior(grid, v_r, mask, bound, start):
            calls["exterior"].append((mask.config.K, mask.r))
            return exterior(grid, v_r, mask, bound, start=start)

        def counting_start(grid, config):
            calls["start"] += 1
            return start(grid, config)

        monkeypatch.setattr(outside, "exterior_tf", counting_exterior)
        monkeypatch.setattr(outside, "atomic_superposition", counting_start)
        outside_decomposition_check(_PAIR, [0.6, 0.5], _POLICY)
        assert sorted(calls["exterior"]) == [(1, 0.5), (1, 0.6), (2, 0.5), (2, 0.6)]
        assert calls["start"] == 1


class TestOneMolecularSolve:
    def test_the_molecule_is_solved_once(self, counted_check):
        _, molecular = counted_check
        assert len(molecular) == 1

    def test_D_is_the_bo_point(self, counted_check):
        report, _ = counted_check
        assert report.D_tf == bo_tf(_PAIR, _POLICY).D

    def test_bo_tf_rejects_another_molecule(self):
        mol = solve_tf(_PAIR, _PAIR.Z, _POLICY.build(_PAIR))
        with pytest.raises(ValueError, match="configuration"):
            bo_tf(_PAIR, _POLICY, molecule=replace(mol, config=diatomic(2.0, 2.0, 2.1)))
        with pytest.raises(ValueError, match="configuration"):
            bo_tf(_PAIR, _POLICY, molecule=replace(mol, config=diatomic(2.0, 3.0, 2.0)))
        other = GridPolicy(spacing=0.5, margin_factor=7.0).build(_PAIR)
        with pytest.raises(ValueError, match="grid"):
            bo_tf(_PAIR, _POLICY, molecule=replace(mol, grid=other))
