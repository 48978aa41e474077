import math

import numpy as np
import pytest

from fermisurf import eig
from fermisurf.eig import (
    GUARD_ROOM,
    EigenError,
    apply_hamiltonian,
    dense_hamiltonian,
    lowest_eigenpairs,
    occupied_eigenpairs,
)
from fermisurf.grids import Grid3D, GridError, ScalarField
from fermisurf.tf_molecule import NuclearConfiguration, external_potential


class TestDenseOracle:
    def test_matches_dense_diagonalization(self):
        grid = Grid3D.cube((0, 0, 0), 2.0, 12)
        X, Y, Z = grid.meshgrid()
        v = 0.5 * (X**2 + Y**2 + Z**2) - 1.0
        H = dense_hamiltonian(grid, v)
        exact = np.linalg.eigvalsh(H)[:4]
        pairs, _ = lowest_eigenpairs(
            ScalarField(grid=grid, values=v), 4, tol=1e-9, maxiter=2000
        )
        got = np.array([lam for lam, _ in pairs])
        assert np.allclose(got, exact, rtol=1e-8, atol=1e-10)

    def test_dense_oracle_size_guard(self):
        grid = Grid3D.cube((0, 0, 0), 2.0, 17)
        with pytest.raises(GridError):
            dense_hamiltonian(grid, np.zeros(grid.shape))


class TestPhysicalOracles:
    def test_harmonic_ground_state(self):
        grid = Grid3D.cube((0, 0, 0), 6.0, 49)
        X, Y, Z = grid.meshgrid()
        v = 0.5 * (X**2 + Y**2 + Z**2)
        pairs, _ = lowest_eigenpairs(ScalarField(grid=grid, values=v), 1, tol=1e-7)
        assert pairs[0][0] == pytest.approx(1.5, abs=2e-2)

    def test_hydrogen_ground_state_refines_to_half(self):
        cfg = NuclearConfiguration(positions=[[0.0, 0.0, 0.0]], charges=[1.0])
        vals = []
        for n, half in ((41, 7.0), (81, 7.0)):
            grid = Grid3D.cube((0, 0, 0), half, n)
            v = -external_potential(grid, cfg).values
            pairs, _ = lowest_eigenpairs(ScalarField(grid=grid, values=v), 1, tol=1e-7)
            vals.append(pairs[0][0])
        # O(h^2) approach to -0.5 from below
        assert abs(vals[1] + 0.5) < abs(vals[0] + 0.5)
        assert vals[1] == pytest.approx(-0.5, abs=5e-3)


class TestContracts:
    def test_orthonormality(self):
        grid = Grid3D.cube((0, 0, 0), 5.0, 33)
        X, Y, Z = grid.meshgrid()
        v = 0.5 * (X**2 + Y**2 + Z**2)
        pairs, _ = lowest_eigenpairs(ScalarField(grid=grid, values=v), 4, tol=1e-7)
        vol = grid.cell_volume
        for i, (_, fi) in enumerate(pairs):
            for j, (_, fj) in enumerate(pairs):
                ov = float(np.sum(fi.values * fj.values)) * vol
                assert ov == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)

    def test_apply_hamiltonian_symmetric(self):
        grid = Grid3D.cube((0, 0, 0), 1.0, 7)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(grid.shape)
        a = rng.standard_normal(grid.shape)
        b = rng.standard_normal(grid.shape)
        lhs = np.sum(b * apply_hamiltonian(grid, v, a))
        rhs = np.sum(a * apply_hamiltonian(grid, v, b))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_block_apply_matches_single_applies(self):
        grid = Grid3D.cube((0, 0, 0), 1.0, 9)
        rng = np.random.default_rng(6)
        v = rng.standard_normal(grid.shape)
        block = rng.standard_normal((3, *grid.shape))
        singles = np.stack([apply_hamiltonian(grid, v, psi) for psi in block])
        assert np.array_equal(apply_hamiltonian(grid, v, block), singles)

    def test_stagnation_raises(self):
        grid = Grid3D.cube((0, 0, 0), 3.0, 17)
        X, Y, Z = grid.meshgrid()
        v = 0.5 * (X**2 + Y**2 + Z**2)
        with pytest.raises(EigenError) as exc:
            lowest_eigenpairs(ScalarField(grid=grid, values=v), 3,
                              tol=1e-14, maxiter=2)
        assert exc.value.history

    def test_rejects_nonfinite_potential(self):
        # bypass ScalarField's own construction check to exercise the
        # solver-side guard
        grid = Grid3D.cube((0, 0, 0), 1.0, 7)
        v = np.zeros(grid.shape)
        v[0, 0, 0] = math.inf
        field = ScalarField.__new__(ScalarField)
        object.__setattr__(field, "grid", grid)
        object.__setattr__(field, "values", v)
        object.__setattr__(field, "kind", "potential")
        with pytest.raises(GridError):
            lowest_eigenpairs(field, 1)


def _harmonic(half, n):
    grid = Grid3D.cube((0, 0, 0), half, n)
    X, Y, Z = grid.meshgrid()
    return ScalarField(grid=grid, values=0.5 * (X**2 + Y**2 + Z**2))


class TestOccupied:
    def test_degenerate_shell_grows_block(self, monkeypatch):
        # N = 4, q = 2: the 1s level holds 2 and the 3-fold p shell the
        # other 2, so the block must grow from 2 states until it holds
        # the whole shell
        sizes = []
        solve = eig.lowest_eigenpairs

        def counting(potential, count, **kw):
            sizes.append(count)
            return solve(potential, count, **kw)

        monkeypatch.setattr(eig, "lowest_eigenpairs", counting)
        field = _harmonic(5.0, 21)
        pairs, occ, block = occupied_eigenpairs(field, 4.0, 2.0, 1e-8)
        assert sizes == [2, 3, 4]
        assert len(pairs) == 4
        assert np.allclose(occ, [2.0, 2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0], atol=1e-12)
        assert block.shape == (field.grid.n_points, 5)

    def test_closed_shell_keeps_occupied_block(self):
        pairs, occ, _ = occupied_eigenpairs(_harmonic(5.0, 21), 2.0, 2.0, 1e-8)
        assert len(pairs) == 1
        assert occ.tolist() == [2.0]

    def test_shell_that_cannot_close_raises_with_history(self):
        # on a 5^3 box the 3-fold shell of states 119-121 straddles the
        # largest block that leaves GUARD_ROOM states for the guard
        field = _harmonic(2.0, 5)
        n = 2.0 * (field.grid.n_points - GUARD_ROOM)
        with pytest.raises(EigenError) as exc:
            occupied_eigenpairs(field, n, 2.0, 1e-8)
        assert "does not close" in str(exc.value)
        assert len(exc.value.history) == 1
        assert exc.value.history[0] <= 1e-6
