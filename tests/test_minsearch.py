import numpy as np
import pytest

from fermisurf.bo import GridPolicy
from fermisurf.minsearch import (
    MinSearchResult,
    _config_to_params,
    _params_to_config,
    min_distance_search,
    subadditivity_check,
)
from fermisurf.tf_molecule import NuclearConfiguration
from fermisurf.xc import make_functional


@pytest.fixture(scope="module")
def lda():
    return make_functional("lda_exchange")


class TestParameterization:
    def test_round_trip_diatomic(self):
        params = np.array([1.37])
        cfg = _params_to_config(params, np.array([1.0, 2.0]))
        assert cfg.R_min == pytest.approx(1.37)
        assert np.allclose(_config_to_params(cfg), params)

    def test_round_trip_triatomic(self):
        params = np.array([1.5, 0.7, 1.1, -0.3])
        cfg = _params_to_config(params, np.array([1.0, 1.0, 2.0]))
        back = _config_to_params(cfg)
        assert np.allclose(back, params)
        assert cfg.K == 3

    def test_gauge_fixing(self):
        # nucleus 1 pinned at the origin, nucleus 2 on the x-axis
        cfg = _params_to_config(np.array([2.0]), np.array([1.0, 1.0]))
        assert np.allclose(cfg.positions[0], 0.0)
        assert np.allclose(cfg.positions[1], [2.0, 0.0, 0.0])


class TestSearch:
    def test_rejects_single_nucleus(self, lda):
        with pytest.raises(ValueError):
            min_distance_search([1.0], lda, GridPolicy(spacing=0.4))

    def test_coarse_hydrogen_pair_finds_bound_minimum(self, lda):
        initial = NuclearConfiguration(
            positions=[[0.0, 0.0, 0.0], [1.4, 0.0, 0.0]], charges=[1.0, 1.0]
        )
        result = min_distance_search(
            [1.0, 1.0], lda, GridPolicy(spacing=0.4),
            initial=initial, restarts=1, maxiter=12,
            xatol=0.1, fatol=1e-3, tol=1e-5,
        )
        assert 0.8 < result.R_M < 2.2
        assert result.E_mol < -1.0  # below two isolated LDA hydrogen atoms
        assert result.n_evals >= 3
        assert all(r >= 0.25 for r, _ in result.history)

    def test_subadditivity_report_for_coarse_pair(self, lda):
        cfg = NuclearConfiguration(
            positions=[[0.0, 0.0, 0.0], [1.4, 0.0, 0.0]], charges=[1.0, 1.0]
        )
        result = MinSearchResult(
            config=cfg, R_M=1.4, E_mol=-1.03, converged=True,
            n_evals=1, history=((1.4, -1.03),),
        )
        report = subadditivity_check(result, lda, GridPolicy(spacing=0.4))
        assert report.e_parts > report.e_whole  # binding: whole below parts
        assert report.gap < 0.0
        assert report.passed

    def test_subadditivity_requires_diatomic(self, lda):
        cfg = NuclearConfiguration(
            positions=[[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [0.0, 1.5, 0.0]],
            charges=[1.0, 1.0, 1.0],
        )
        result = MinSearchResult(
            config=cfg, R_M=1.5, E_mol=-2.0, converged=True,
            n_evals=1, history=(),
        )
        with pytest.raises(ValueError):
            subadditivity_check(result, lda, GridPolicy(spacing=0.4))
