import math

import numpy as np
import pytest

from fermisurf.coulomb import radial_hartree_potential
from fermisurf.grids import Grid3D, RadialGrid, ScalarField
from fermisurf.poisson import poisson_solve


def _radial_energy(f, g):
    """D(f, g) = 1/2 iint f(x) g(y) / |x - y| for radial fields."""
    return 0.5 * f.grid.integrate(f.values * radial_hartree_potential(g.grid, g.values))


def _radial_gaussian(grid, width=1.0):
    vals = np.exp(-0.5 * (grid.nodes / width) ** 2)
    vals /= grid.integrate(vals)
    return ScalarField(grid=grid, values=vals, kind="density")


class TestRadial:
    def test_uniform_ball_self_energy(self):
        # self-energy D(ball, ball) = (1/2) iint = (3/5) q^2 / a
        grid = RadialGrid.logarithmic(1e-6, 10.0, 6001)
        a, q = 1.0, 1.0
        vals = np.where(grid.nodes <= a, q / (4.0 / 3.0 * math.pi * a**3), 0.0)
        f = ScalarField(grid=grid, values=vals, kind="density")
        assert _radial_energy(f, f) == pytest.approx(0.6 * q**2 / a, rel=1e-2)

    def test_hartree_potential_newton_outside(self):
        grid = RadialGrid.logarithmic(1e-6, 30.0, 4001)
        f = _radial_gaussian(grid)
        u = radial_hartree_potential(grid, f.values)
        far = grid.nodes > 6.0
        assert np.allclose(u[far], 1.0 / grid.nodes[far], rtol=1e-6)

    def test_two_gaussian_interaction_oracle(self):
        # two concentric normalized Gaussians of widths s1, s2:
        # iint f g / |x-y| = 1 / sqrt((s1^2 + s2^2) pi / 2) * sqrt(2/pi)... use
        # the closed form erf-limit: D(f,g) = 1/2 * 1/sqrt(s1^2+s2^2) * sqrt(2/pi)
        grid = RadialGrid.logarithmic(1e-6, 40.0, 6001)
        s1, s2 = 1.0, 1.5
        f = _radial_gaussian(grid, s1)
        g = _radial_gaussian(grid, s2)
        exact = 0.5 * math.sqrt(2.0 / math.pi) / math.sqrt(s1**2 + s2**2)
        assert _radial_energy(f, g) == pytest.approx(exact, rel=1e-6)


class TestAlgebra:
    def test_symmetry_and_bilinearity(self):
        grid = RadialGrid.logarithmic(1e-6, 30.0, 2001)
        f = _radial_gaussian(grid, 0.8)
        g = _radial_gaussian(grid, 2.0)
        dfg = _radial_energy(f, g)
        dgf = _radial_energy(g, f)
        assert dfg == pytest.approx(dgf, rel=1e-10)
        h = ScalarField(grid=grid, values=2.0 * f.values + g.values)
        dh = _radial_energy(h, g)
        assert dh == pytest.approx(2.0 * dfg + _radial_energy(g, g), rel=1e-10)

    def test_positivity(self):
        grid = RadialGrid.logarithmic(1e-6, 30.0, 2001)
        f = _radial_gaussian(grid)
        assert _radial_energy(f, f) > 0.0


class Test3D:
    def test_3d_matches_radial_for_gaussian(self):
        g3 = Grid3D.cube((0, 0, 0), 6.0, 49)
        X, Y, Z = g3.meshgrid()
        r = np.sqrt(X**2 + Y**2 + Z**2)
        vals = np.exp(-0.5 * r**2) / (2.0 * math.pi) ** 1.5
        e3 = 0.5 * g3.integrate(vals * poisson_solve(g3, vals))
        exact = 0.5 * math.sqrt(2.0 / math.pi) / math.sqrt(2.0)
        assert e3 == pytest.approx(exact, rel=2e-2)
