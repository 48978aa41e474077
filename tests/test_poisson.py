import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.fft import dstn
from scipy.special import erf

from fermisurf.grids import FoldedGrid, Grid3D, GridError, RadialGrid
import fermisurf.poisson as poisson
from fermisurf.poisson import (
    PoissonError,
    _plan,
    multipole_boundary,
    poisson_solve,
    sine_transform,
    stencil_residual,
    unfold,
)


def _ball_source(grid, q, a):
    X, Y, Z = grid.meshgrid()
    r = np.sqrt(X**2 + Y**2 + Z**2)
    return np.where(r <= a, q / (4.0 / 3.0 * math.pi * a**3), 0.0), r


class TestUniformBall:
    def test_newton_outside_and_center(self):
        grid = Grid3D.cube((0, 0, 0), 4.0, 65)
        rho, r = _ball_source(grid, 2.0, 1.0)
        u = poisson_solve(grid, rho)
        q_disc = grid.integrate(rho)
        # pointwise Newton check outside the support
        far = (r > 2.0) & (r < 3.5)
        assert np.allclose(u[far], q_disc / r[far], rtol=2e-2)
        # center value 3q/(2a)
        center = tuple(np.array(grid.dims) // 2)
        assert u[center] == pytest.approx(1.5 * q_disc / 1.0, rel=2e-2)

    def test_zero_source(self):
        grid = Grid3D.cube((0, 0, 0), 2.0, 17)
        u = poisson_solve(grid, np.zeros(grid.shape))
        assert np.max(np.abs(u)) < 1e-12


class TestGaussianOracle:
    def test_matches_erf_formula(self):
        # unit-charge Gaussian with width 1: u(x) = erf(|x|/sqrt(2))/|x|
        grid = Grid3D.cube((0, 0, 0), 6.0, 61)
        X, Y, Z = grid.meshgrid()
        r = np.sqrt(X**2 + Y**2 + Z**2)
        rho = np.exp(-0.5 * r**2) / (2.0 * math.pi) ** 1.5
        u = poisson_solve(grid, rho)
        r_safe = np.maximum(r, 1e-10)
        exact = erf(r_safe / math.sqrt(2.0)) / r_safe
        exact[r < 1e-10] = math.sqrt(2.0 / math.pi)
        inner = r < 4.0
        assert np.max(np.abs(u[inner] - exact[inner])) < 5e-3


class TestSineTransform:
    # n + 1 = 29, 31, 37 are prime, the lengths pocketfft handles worst
    @pytest.mark.parametrize("n", [28, 30, 36])
    def test_matches_scipy_dst_and_is_its_own_inverse(self, n):
        a = np.random.default_rng(n).standard_normal((3, n, n + 2, n - 2))
        ref = dstn(a, type=1, norm="ortho", axes=(1, 2, 3))
        out = sine_transform(a)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(sine_transform(out) - a)) <= 1e-12 * np.max(np.abs(a))

    def test_runs_in_its_input_dtype(self):
        # the eigensolver's float32 preconditioner shares the transform; a
        # float64 input still gives the float64 products to the bit, and
        # every Poisson solve stays float64
        def s(n):
            k = np.arange(1, n + 1)
            return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * (np.outer(k, k) % (2 * (n + 1))) / (n + 1))

        a = np.random.default_rng(5).standard_normal((2, 7, 9, 8))
        # a float32 transform first, so the float32 matrices are cached
        assert sine_transform(a.astype(np.float32)).dtype == np.float32
        expected = (s(7) @ (s(9) @ (a @ s(8))).reshape(2, 7, 72)).reshape(a.shape)
        out = sine_transform(a)
        assert out.dtype == np.float64
        assert np.array_equal(out, expected)
        assert sine_transform(np.ones(a.shape, int)).dtype == np.float64
        grid = Grid3D((-1.0, -1.0, -1.0), 0.25, (9, 11, 10))
        assert poisson_solve(grid, np.ones(grid.shape)).dtype == np.float64


class TestKernels:
    """The lean kernels against direct full-grid evaluations."""

    @staticmethod
    def _source(grid, seed):
        rng = np.random.default_rng(seed)
        X, Y, Z = grid.meshgrid()
        blob = np.exp(-((X - 0.4) ** 2 + (Y + 0.3) ** 2 + 2.0 * Z**2))
        return blob * (1.0 + 0.1 * rng.random(grid.shape))

    def test_multipole_boundary_matches_direct_sums(self):
        # both moments are taken about the box centre, a property of the grid
        grid = Grid3D((-2.0, -1.5, -1.75), 0.25, (17, 15, 19))
        src = self._source(grid, 1)
        q, dip, u = multipole_boundary(grid, src)
        X, Y, Z = grid.meshgrid()
        vol = grid.cell_volume
        c = 0.5 * (grid.origin + grid.upper_corner())
        x, y, z = X - c[0], Y - c[1], Z - c[2]
        q_ref = np.sum(src) * vol
        d_ref = np.array([np.sum(src * x), np.sum(src * y), np.sum(src * z)]) * vol
        assert q == pytest.approx(q_ref, rel=1e-12)
        # the blob sits off the box centre on every axis: no moment vanishes
        assert np.min(np.abs(d_ref)) > 0.1 * q_ref * grid.h
        assert np.max(np.abs(dip - d_ref)) <= 1e-12 * np.max(np.abs(d_ref))
        faces = np.ones(grid.shape, dtype=bool)
        faces[1:-1, 1:-1, 1:-1] = False
        x, y, z = x[faces], y[faces], z[faces]
        r = np.sqrt(x * x + y * y + z * z)
        ref = q_ref / r + (d_ref[0] * x + d_ref[1] * y + d_ref[2] * z) / r**3
        assert np.allclose(u[faces], ref, rtol=1e-12, atol=0.0)

    def test_stencil_residual_matches_seven_point_expression(self):
        grid = Grid3D((0.0, 0.0, 0.0), 0.2, (11, 13, 12))
        rng = np.random.default_rng(2)
        u, rhs = rng.standard_normal((2, *grid.shape))
        lap = (
            u[:-2, 1:-1, 1:-1] + u[2:, 1:-1, 1:-1]
            + u[1:-1, :-2, 1:-1] + u[1:-1, 2:, 1:-1]
            + u[1:-1, 1:-1, :-2] + u[1:-1, 1:-1, 2:]
            - 6.0 * u[1:-1, 1:-1, 1:-1]
        ) / grid.h**2
        ref = np.max(np.abs(-lap - rhs[1:-1, 1:-1, 1:-1]))
        # the check takes h^2 times the right-hand side and returns h^2
        # times the residual: no division by h^2
        h2 = grid.h**2
        got = stencil_residual(grid, u, h2 * rhs[1:-1, 1:-1, 1:-1])
        assert got == pytest.approx(h2 * ref, rel=1e-12)

    def test_solve_leaves_source_alone_and_repeats_exactly(self):
        grid = Grid3D((-2.0, -1.5, -1.75), 0.25, (17, 15, 19))
        values = self._source(grid, 3)
        source = values.copy()
        first = poisson_solve(grid, source)
        second = poisson_solve(grid, source)
        assert np.array_equal(source, values)
        assert np.array_equal(first, second)
        assert first is not second


class TestContracts:
    def test_stencil_residual_at_rounding_level(self):
        grid = Grid3D.cube((0, 0, 0), 3.0, 33)
        rho, _ = _ball_source(grid, 1.0, 0.8)
        u = poisson_solve(grid, rho)
        h2 = grid.h**2
        res = stencil_residual(grid, u, (4.0 * math.pi * h2 * rho)[1:-1, 1:-1, 1:-1])
        assert res < 1e-8 * h2

    def test_solve_holds_output_and_two_interior_arrays(self):
        grid = Grid3D.cube((0, 0, 0), 4.0, 33)
        rho, _ = _ball_source(grid, 1.0, 1.2)
        poisson_solve(grid, rho)  # the cached sine matrices are not per solve
        n = grid.dims[0]
        output, interior, face = 8 * n**3, 8 * (n - 2) ** 3, 8 * n**2
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            poisson_solve(grid, rho)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # slack: the multipole boundary's face temporaries and numpy's
        # 64 KiB ufunc buffer for strided operands
        assert peak <= output + 2 * interior + 16 * face

    def test_off_center_dipole_boundary(self):
        # shifted ball: monopole+dipole boundary keeps the far field accurate
        grid = Grid3D.cube((0, 0, 0), 4.0, 65)
        X, Y, Z = grid.meshgrid()
        r1 = np.sqrt((X - 0.6) ** 2 + Y**2 + Z**2)
        rho = np.where(r1 <= 0.5, 1.0, 0.0)
        q = grid.integrate(rho)
        u = poisson_solve(grid, rho)
        far = (r1 > 1.5) & (r1 < 3.0)
        assert np.allclose(u[far], q / r1[far], rtol=3e-2)

    def test_poisson_solve_is_linear_in_the_source(self):
        # two off-centre sources on a non-cubic box: the boundary moments
        # are taken about a point of the grid, so P(a) + P(b) = P(a + b)
        grid = Grid3D((-2.0, -1.5, -1.75), 0.25, (17, 15, 19))
        X, Y, Z = grid.meshgrid()
        a = np.exp(-((X - 0.6) ** 2 + (Y + 0.4) ** 2 + (Z - 0.3) ** 2) / 0.3)
        b = 2.0 * np.exp(-((X + 0.9) ** 2 + (Y - 0.2) ** 2 + (Z + 0.5) ** 2) / 0.5)
        both = poisson_solve(grid, a + b)
        gap = np.max(np.abs(poisson_solve(grid, a) + poisson_solve(grid, b) - both))
        assert gap <= 1e-12 * np.max(np.abs(both))

    def test_rejects_radial_fields(self):
        grid = RadialGrid.logarithmic(1e-4, 5.0, 51)
        with pytest.raises(GridError):
            poisson_solve(grid, np.ones(51))

    def test_nan_source_fails_the_residual_check(self):
        # no wrapper vets the source, so the check itself must reject NaN,
        # on the box and on its fold in x, y and z
        grid = Grid3D.cube((0, 0, 0), 2.0, 17)
        rho, _ = _ball_source(grid, 1.0, 0.8)
        rho[8, 8, 8] = np.nan  # the centre node, which every fold keeps
        for mirror in [(False,) * 3, (True,) * 3]:
            with pytest.raises(PoissonError, match="final residual nan"):
                poisson_solve(grid, rho[FoldedGrid(grid, mirror).index], mirror)


class TestMirror:
    """Solves on the fold of sources symmetric about the box centre."""

    # interior lengths 15, 12 and 17: odd and even, on a non-cubic box
    GRID = Grid3D((-2.0, -1.625, -2.25), 0.25, (17, 14, 19))

    @classmethod
    def _symmetric_source(cls, axes):
        """An off-centre blob made exactly symmetric along `axes`."""
        grid = cls.GRID
        X, Y, Z = grid.meshgrid()
        src = np.exp(-((X - 0.5) ** 2 + 1.5 * (Y + 0.4) ** 2 + 0.7 * (Z - 0.3) ** 2))
        for axis in axes:
            src = src + np.flip(src, axis)  # a + b == b + a: exactly symmetric
        return src

    @pytest.mark.parametrize("axes", [(1, 2), (0, 1, 2)])
    def test_matches_the_full_solve(self, axes):
        grid = self.GRID
        src = self._symmetric_source(axes)
        mirror = tuple(a in axes for a in range(3))
        for axis in range(3):
            assert np.array_equal(np.flip(src, axis), src) == mirror[axis]
        full = poisson_solve(grid, src)
        folded = poisson_solve(grid, src[FoldedGrid(grid, mirror).index], mirror)
        assert folded.shape == FoldedGrid(grid, mirror).shape
        odd = unfold(grid, folded, mirror)
        assert np.max(np.abs(odd - full)) <= 1e-13 * np.max(np.abs(full))
        h2 = grid.h**2
        rhs = (4.0 * math.pi * h2 * src)[1:-1, 1:-1, 1:-1]
        res = stencil_residual(grid, odd, rhs)
        assert res <= 1e-12 * np.max(np.abs(rhs))

    @pytest.mark.parametrize("axes", [(1, 2), (0, 1, 2)])
    def test_folded_residual_is_the_full_residual(self, axes):
        # a random symmetric field and right-hand side, far from any
        # solution: the reflected stencil must give the full residual
        grid = self.GRID
        mirror = tuple(a in axes for a in range(3))
        rng = np.random.default_rng(4)
        u, f = rng.standard_normal((2, *grid.shape))
        for axis in axes:
            u, f = u + np.flip(u, axis), f + np.flip(f, axis)
        fg = FoldedGrid(grid, mirror)
        inner = tuple(slice(0 if m else 1, -1) for m in mirror)
        folded = stencil_residual(grid, u[fg.index], f[fg.index][inner], mirror=mirror)
        assert folded == pytest.approx(stencil_residual(grid, u, f[1:-1, 1:-1, 1:-1]),
                                       rel=1e-12)

    def test_solve_refuses_a_source_off_the_fold(self):
        grid = self.GRID
        src = self._symmetric_source((0, 1, 2))
        with pytest.raises(GridError, match="fold"):
            poisson_solve(grid, src, (True, True, True))

    def test_mirrored_solve_holds_output_and_two_interior_arrays(self):
        grid = Grid3D.cube((0, 0, 0), 4.0, 33)
        rho, _ = _ball_source(grid, 1.0, 1.2)
        mirror = (True, True, True)
        assert all(np.array_equal(np.flip(rho, axis), rho) for axis in range(3))
        half = np.ascontiguousarray(rho[FoldedGrid(grid, mirror).index])
        poisson_solve(grid, half, mirror)  # the cached fold matrices are not per solve
        n, m = grid.dims[0], half.shape[0]
        # the output and the interior arrays on the fold, (n + 1) // 2 and
        # (n - 1) // 2 nodes per axis; the face slack of the full solve
        output, interior, face = 8 * m**3, 8 * (m - 1) ** 3, 8 * n**2
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            poisson_solve(grid, half, mirror)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= output + 2 * interior + 16 * face


class TestStages:
    """poisson_solve's three stages, which the benchmark times by name."""

    @pytest.mark.parametrize("axes", [(), (1, 2), (0, 1, 2)])
    def test_each_stage_runs_once_per_solve(self, monkeypatch, axes):
        # called through the module namespace, so a wrapper there sees them
        counts = Counter()
        for name in ("multipole_boundary", "solve_dirichlet", "stencil_residual"):
            def counted(*args, _stage=getattr(poisson, name), _name=name, **kwargs):
                counts[_name] += 1
                return _stage(*args, **kwargs)
            monkeypatch.setattr(poisson, name, counted)
        grid = TestMirror.GRID
        mirror = tuple(a in axes for a in range(3))
        src = TestMirror._symmetric_source(axes)[FoldedGrid(grid, mirror).index]
        for _ in range(2):
            poisson_solve(grid, src, mirror)
        assert counts == {"multipole_boundary": 2, "solve_dirichlet": 2, "stencil_residual": 2}


class TestPlan:
    """The solve plan cached per (dims, h, mirror)."""

    MIRRORS = [(False, False, False), (False, True, True), (True, True, True)]

    @pytest.mark.parametrize("mirror", MIRRORS)
    def test_translated_box_gives_the_same_solve(self, mirror):
        # a spacing whose nodes are not dyadic and a shift that is no node
        # offset: the offsets from the box centre are h (k - (n - 1)/2) on
        # both boxes, so one plan serves both and the solves agree to the bit
        grid = Grid3D((-2.4, -1.95, -2.7), 0.3, (17, 14, 19))
        moved = Grid3D(grid.origin + np.array([0.0371, -0.1234, 0.2718]), grid.h, grid.dims)
        src = np.random.default_rng(8).random(FoldedGrid(grid, mirror).shape)
        assert np.array_equal(poisson_solve(grid, src, mirror),
                              poisson_solve(moved, src, mirror))

    @pytest.mark.parametrize("mirror", MIRRORS)
    def test_plan_arrays_are_read_only(self, mirror):
        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, tuple):
                for item in value:
                    yield from arrays(item)

        plan = _plan((17, 14, 19), 0.25, mirror)
        found = [a for f in dataclasses.fields(plan) for a in arrays(getattr(plan, f.name))]
        assert len(found) >= 10
        for a in found:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 0

    def test_cache_stays_within_its_bound(self):
        bound = _plan.cache_info().maxsize
        assert bound is not None
        for n in range(9, 9 + bound + 3):
            grid = Grid3D((0.0, 0.0, 0.0), 0.25, (n, 8, 10))
            poisson_solve(grid, np.ones(grid.shape))
            assert _plan.cache_info().currsize <= bound
