import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermisurf.grids import (
    Grid3D,
    GridError,
    RadialGrid,
    ScalarField,
    fibonacci_sphere,
    trilinear_sample,
)


class TestRadialGrid:
    def test_logarithmic_integrates_gaussian(self):
        grid = RadialGrid.logarithmic(1e-6, 40.0, 4001)
        # int 4 pi r^2 exp(-r^2) dr = pi^(3/2)
        val = grid.integrate(np.exp(-grid.nodes**2))
        assert val == pytest.approx(math.pi**1.5, rel=1e-8)

    def test_nodes_strictly_increasing_and_positive_weights(self):
        grid = RadialGrid.logarithmic(1e-4, 10.0, 301)
        assert np.all(np.diff(grid.nodes) > 0)
        assert grid.nodes[0] > 0
        assert np.all(grid.weights > 0)
        assert grid.r_max >= 10.0

    def test_rejects_nonincreasing_nodes(self):
        with pytest.raises(GridError):
            RadialGrid(nodes=np.array([1.0, 1.0, 2.0]),
                       weights=np.ones(3))

    @given(a=st.floats(0.1, 3.0), b=st.floats(0.1, 3.0))
    @settings(max_examples=20, deadline=None)
    def test_integrate_is_linear(self, a, b):
        grid = RadialGrid.logarithmic(1e-5, 20.0, 501)
        f = np.exp(-grid.nodes)
        g = np.exp(-2.0 * grid.nodes)
        lhs = grid.integrate(a * f + b * g)
        rhs = a * grid.integrate(f) + b * grid.integrate(g)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestGrid3D:
    def test_cube(self):
        grid = Grid3D.cube((0.0, 0.0, 0.0), 2.0, 17)
        assert grid.shape == (17, 17, 17)
        assert grid.h == pytest.approx(0.25)
        assert np.allclose(grid.upper_corner(), 2.0)

    def test_integrate_constant(self):
        grid = Grid3D.cube((0.0, 0.0, 0.0), 1.0, 9)
        total = grid.integrate(np.ones(grid.shape))
        assert total == pytest.approx(grid.n_points * grid.cell_volume)

    def test_index_of_roundtrip(self):
        grid = Grid3D.cube((0.5, -0.25, 0.0), 2.0, 17)
        idx = grid.index_of((0.5, -0.25, 0.0))
        node = grid.origin + grid.h * np.asarray(idx)
        assert np.linalg.norm(node - [0.5, -0.25, 0.0]) <= grid.h * math.sqrt(3) / 2

    def test_point_budget_enforced(self):
        with pytest.raises(GridError):
            Grid3D.cube((0, 0, 0), 1.0, 301)

    def test_invalid_spacing(self):
        with pytest.raises(GridError):
            Grid3D(origin=(0, 0, 0), h=-0.1, dims=(5, 5, 5))

    @pytest.mark.parametrize("origin, h, field", [
        ((0, 0, 0), math.nan, "spacing"),
        ((0, math.nan, 0), 0.1, "origin"),
    ])
    def test_non_finite_spacing_or_origin(self, origin, h, field):
        with pytest.raises(GridError, match=field):
            Grid3D(origin=origin, h=h, dims=(5, 5, 5))


class TestScalarField:
    def test_density_rejects_negative_values(self):
        grid = RadialGrid.logarithmic(1e-4, 5.0, 51)
        with pytest.raises(GridError):
            ScalarField(grid=grid, values=-np.ones(51), kind="density")

    def test_rejects_nonfinite(self):
        grid = RadialGrid.logarithmic(1e-4, 5.0, 51)
        vals = np.ones(51)
        vals[3] = np.inf
        with pytest.raises(GridError):
            ScalarField(grid=grid, values=vals)


class TestSampling:
    def test_trilinear_reproduces_linear_function(self):
        grid = Grid3D.cube((0.0, 0.0, 0.0), 2.0, 21)
        X, Y, Z = grid.meshgrid()
        field = ScalarField(grid=grid, values=1.0 + 2.0 * X - 0.5 * Y + Z)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1.5, 1.5, size=(50, 3))
        vals = trilinear_sample(field, pts)
        exact = 1.0 + 2.0 * pts[:, 0] - 0.5 * pts[:, 1] + pts[:, 2]
        assert np.allclose(vals, exact, atol=1e-12)

    def test_fibonacci_sphere_radius_and_count(self):
        pts = fibonacci_sphere((1.0, 2.0, 3.0), 0.7, 256)
        assert pts.shape == (256, 3)
        d = np.linalg.norm(pts - np.array([1.0, 2.0, 3.0]), axis=1)
        assert np.allclose(d, 0.7, atol=1e-12)

    def test_fibonacci_sphere_mean_of_linear_vanishes(self):
        # quasi-uniform: the mean of a linear function is near the center value
        pts = fibonacci_sphere((0.0, 0.0, 0.0), 1.0, 512)
        assert abs(pts[:, 0].mean()) < 1e-2
        assert abs(pts[:, 2].mean()) < 1e-2
