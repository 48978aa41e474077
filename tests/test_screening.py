import math

import numpy as np
import pytest
from scipy.special import erf

from fermisurf.grids import Grid3D, ScalarField
from fermisurf.screening import nucleus_profile, screened_compare
from fermisurf.tf_molecule import NuclearConfiguration


def _gaussian_density(grid, center, q=1.0, sigma=1.0):
    X, Y, Z = grid.meshgrid()
    r2 = (X - center[0]) ** 2 + (Y - center[1]) ** 2 + (Z - center[2]) ** 2
    vals = q * np.exp(-r2 / (2.0 * sigma**2)) / (2.0 * math.pi * sigma**2) ** 1.5
    return ScalarField(grid=grid, values=vals, kind="density")


def _gaussian_q_within(r, sigma=1.0):
    # cumulative charge of a unit normalized Gaussian inside radius r
    t = r / (math.sqrt(2.0) * sigma)
    return erf(t) - math.sqrt(2.0 / math.pi) * (r / sigma) * math.exp(
        -0.5 * (r / sigma) ** 2
    )


class TestNucleusProfile:
    def test_cumulative_charge_matches_gaussian(self):
        grid = Grid3D.cube((0.0, 0.0, 0.0), 6.0, 81)
        rho = _gaussian_density(grid, (0.0, 0.0, 0.0))
        prof = nucleus_profile(rho, (0.0, 0.0, 0.0), s_max=2.0)
        for r in (0.5, 1.0, 2.0):
            assert prof.charge_within(r) == pytest.approx(
                _gaussian_q_within(r), rel=1e-2
            )

    def test_profile_recovers_spherical_density(self):
        grid = Grid3D.cube((0.0, 0.0, 0.0), 6.0, 81)
        rho = _gaussian_density(grid, (0.0, 0.0, 0.0))
        prof = nucleus_profile(rho, (0.0, 0.0, 0.0), s_max=2.0)
        expected = np.exp(-0.5 * prof.s**2) / (2.0 * math.pi) ** 1.5
        # trilinear sampling carries O(h^2) curvature error
        assert np.allclose(prof.rho_bar, expected, rtol=2e-2)

    def test_off_center_nucleus(self):
        grid = Grid3D.cube((0.0, 0.0, 0.0), 6.0, 81)
        center = (0.37, -0.11, 0.2)
        rho = _gaussian_density(grid, center)
        prof = nucleus_profile(rho, center, s_max=1.5)
        assert prof.charge_within(1.5) == pytest.approx(
            _gaussian_q_within(1.5), rel=5e-3
        )


@pytest.fixture(scope="module")
def pair():
    cfg = NuclearConfiguration(
        positions=[[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], charges=[1.0, 1.0]
    )
    grid = Grid3D.cube((0.0, 0.0, 0.0), 7.0, 71)
    rho_a = _gaussian_density(grid, (-1.0, 0.0, 0.0))
    rho_b = _gaussian_density(grid, (1.0, 0.0, 0.0))
    rho = ScalarField(grid=grid, values=rho_a.values + rho_b.values,
                      kind="density")
    return cfg, rho


class TestScreenedCompare:

    def test_identical_densities_give_zero_difference(self, pair):
        cfg, rho = pair
        prof = screened_compare(cfg, rho, rho, [0.1, 0.2, 0.3, 0.4, 0.5])
        assert all(d == 0.0 for d in prof.sup_diff)
        assert prof.fit is None  # no positive differences to fit

    def test_single_nucleus_sup_is_screened_coulomb(self):
        cfg = NuclearConfiguration(positions=[[0.0, 0.0, 0.0]], charges=[1.0])
        grid = Grid3D.cube((0.0, 0.0, 0.0), 6.0, 81)
        rho = _gaussian_density(grid, (0.0, 0.0, 0.0))
        zero = ScalarField(grid=grid, values=np.zeros(grid.shape),
                           kind="density")
        prof = screened_compare(cfg, rho, zero, [0.5, 1.0])
        for r, sup in zip(prof.r_values, prof.sup_phi):
            expected = (1.0 - _gaussian_q_within(r)) / r
            assert sup == pytest.approx(expected, rel=5e-3)
        # the unscreened density keeps the bare nuclear field
        for r, sup in zip(prof.r_values, prof.sup_phi_tf):
            assert sup == pytest.approx(1.0 / r, rel=1e-9)

    def test_rejects_radius_outside_working_window(self, pair):
        cfg, rho = pair
        with pytest.raises(ValueError):
            screened_compare(cfg, rho, rho, [0.2, 0.6])  # 0.6 > R_min/4

    def test_rejects_nonpositive_radius(self, pair):
        cfg, rho = pair
        with pytest.raises(ValueError):
            screened_compare(cfg, rho, rho, [0.0, 0.2])

    def test_rejects_empty_radii(self, pair):
        cfg, rho = pair
        with pytest.raises(ValueError):
            screened_compare(cfg, rho, rho, [])
