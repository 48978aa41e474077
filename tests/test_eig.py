import math

import numpy as np
import pytest

from fermisurf import eig
from fermisurf.eig import (
    EigenError,
    apply_hamiltonian,
    guard_eigenpair,
    lowest_eigenpairs,
    occupied_eigenpairs,
)
from fermisurf.grids import FoldedGrid, Grid3D, GridError
from fermisurf.poisson import unfold
from fermisurf.tf_molecule import NuclearConfiguration, external_potential


def dense_hamiltonian(grid: Grid3D, v: np.ndarray) -> np.ndarray:
    """Dense matrix of the grid Hamiltonian; oracle for small boxes only."""
    n = grid.n_points
    if n > 4096:
        raise GridError("dense oracle limited to 16^3 boxes")
    H = np.zeros((n, n))
    eye = np.eye(n)
    for j in range(n):
        H[:, j] = apply_hamiltonian(grid, v, eye[:, j].reshape(grid.shape)).ravel()
    return 0.5 * (H + H.T)


class TestDenseOracle:
    def test_matches_dense_diagonalization(self):
        grid = Grid3D.cube((0, 0, 0), 2.0, 12)
        X, Y, Z = grid.meshgrid()
        v = 0.5 * (X**2 + Y**2 + Z**2) - 1.0
        H = dense_hamiltonian(grid, v)
        exact = np.linalg.eigvalsh(H)[:4]
        got, *_ = lowest_eigenpairs(grid, v, 4, tol=1e-9, maxiter=2000)
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
        eps, *_ = lowest_eigenpairs(grid, v, 1, tol=1e-7)
        assert eps[0] == pytest.approx(1.5, abs=2e-2)

    def test_hydrogen_ground_state_refines_to_half(self):
        cfg = NuclearConfiguration(positions=[[0.0, 0.0, 0.0]], charges=[1.0])
        vals = []
        for n, half in ((41, 7.0), (81, 7.0)):
            grid = Grid3D.cube((0, 0, 0), half, n)
            v = -external_potential(grid, cfg)
            eps, *_ = lowest_eigenpairs(grid, v, 1, tol=1e-7)
            vals.append(eps[0])
        # O(h^2) approach to -0.5 from below
        assert abs(vals[1] + 0.5) < abs(vals[0] + 0.5)
        assert vals[1] == pytest.approx(-0.5, abs=5e-3)


class TestContracts:
    def test_orthonormality(self):
        grid = Grid3D.cube((0, 0, 0), 5.0, 33)
        X, Y, Z = grid.meshgrid()
        v = 0.5 * (X**2 + Y**2 + Z**2)
        _, orbitals, *_ = lowest_eigenpairs(grid, v, 4, tol=1e-7)
        vol = grid.cell_volume
        for i, fi in enumerate(orbitals):
            for j, fj in enumerate(orbitals):
                ov = float(np.sum(fi * fj)) * vol
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

    def test_flat_shifts_match_the_3d_stencil(self):
        # reference: each neighbour added by a shift of the 3D array, in
        # the same order, so the sums agree bit for bit
        grid = Grid3D(origin=(0.0, 0.0, 0.0), h=0.3, dims=(5, 7, 6))
        rng = np.random.default_rng(8)
        v = rng.standard_normal(grid.shape)
        block = rng.standard_normal((2, *grid.shape))
        h2 = grid.h**2
        ref = np.zeros(block.shape)
        ref[..., :-1, :, :] = block[..., 1:, :, :]
        ref[..., 1:, :, :] += block[..., :-1, :, :]
        ref[..., :, :-1, :] += block[..., :, 1:, :]
        ref[..., :, 1:, :] += block[..., :, :-1, :]
        ref[..., :, :, :-1] += block[..., :, :, 1:]
        ref[..., :, :, 1:] += block[..., :, :, :-1]
        ref *= -0.5 / h2
        ref += (v + 3.0 / h2) * block
        assert np.array_equal(apply_hamiltonian(grid, v, block), ref)
        assert np.array_equal(apply_hamiltonian(grid, v, block[1]), ref[1])

    def test_apply_into_strided_rows_matches_fresh_array(self):
        # LOBPCG writes H psi into every other row of its basis block
        grid = Grid3D.cube((0, 0, 0), 1.0, 9)
        rng = np.random.default_rng(7)
        v = rng.standard_normal(grid.shape)
        rows = rng.standard_normal((3, 2, grid.n_points))
        out = rows[:, 1].reshape(-1, *grid.shape)
        psi = rows[:, 0].reshape(-1, *grid.shape)
        fresh = apply_hamiltonian(grid, v, psi)
        assert apply_hamiltonian(grid, v, psi, out=out) is out
        assert np.array_equal(rows[:, 1].reshape(fresh.shape), fresh)

    def test_stagnation_raises(self):
        grid = Grid3D.cube((0, 0, 0), 3.0, 17)
        X, Y, Z = grid.meshgrid()
        v = 0.5 * (X**2 + Y**2 + Z**2)
        with pytest.raises(EigenError) as exc:
            lowest_eigenpairs(grid, v, 3, tol=1e-14, maxiter=2)
        assert exc.value.history

    def test_rejects_nonfinite_potential(self):
        grid = Grid3D.cube((0, 0, 0), 1.0, 7)
        v = np.zeros(grid.shape)
        v[0, 0, 0] = math.inf
        with pytest.raises(GridError):
            lowest_eigenpairs(grid, v, 1)


def _harmonic(half, n):
    grid = Grid3D.cube((0, 0, 0), half, n)
    X, Y, Z = grid.meshgrid()
    return grid, 0.5 * (X**2 + Y**2 + Z**2)


def _occupied(grid, v, n, q, tol):
    """occupied_eigenpairs from a first solve of the ceil(n / q) lowest states."""
    first = eig.lowest_eigenpairs(grid, v, math.ceil(n / q), tol=tol)
    return occupied_eigenpairs(grid, v, n, q, tol, first)


def _levels_1d(grid, omega):
    """Discrete 1D levels of -1/2 d^2/dx^2 + omega^2 x^2 / 2 on one grid axis."""
    x = grid.axes()[0]
    h2 = grid.h**2
    H = (np.diag(1.0 / h2 + 0.5 * omega**2 * x**2)
         - np.diag(np.full(x.size - 1, 0.5 / h2), 1)
         - np.diag(np.full(x.size - 1, 0.5 / h2), -1))
    return np.linalg.eigvalsh(H)


class TestGuard:
    # anisotropic well, frequencies 1, 0.7, 1.3: above the ground state
    # come the y-odd, the x-odd and the z-odd levels, and the discrete
    # spectrum is a sum of 1D levels
    @pytest.fixture(scope="class")
    def well(self):
        grid = Grid3D.cube((0, 0, 0), 5.0, 21)
        X, Y, Z = grid.meshgrid()
        v = 0.5 * (X**2 + 0.49 * Y**2 + 1.69 * Z**2)
        gauss = np.exp(-0.25 * (X**2 + Y**2 + Z**2))
        _, orbitals, *_ = lowest_eigenpairs(grid, v, 1, initial=(gauss.reshape(1, -1), (eig.FULL,)))
        ex, ey, ez = (_levels_1d(grid, w) for w in (1.0, 0.7, 1.3))
        levels = {"y_odd": ex[0] + ey[1] + ez[0], "x_odd": ex[1] + ey[0] + ez[0]}
        return grid, v, orbitals, (X * gauss).ravel(), levels

    def test_random_start_finds_lowest_complement_state(self, well):
        grid, v, orbitals, _, levels = well
        assert levels["y_odd"] == pytest.approx(2.159, abs=1e-3)
        theta, rho, y = guard_eigenpair(grid, v, orbitals)
        assert abs(theta - levels["y_odd"]) <= rho
        orbital = orbitals[0].ravel()
        assert abs(float(np.dot(y, orbital)) * grid.cell_volume) < 1e-10

    def test_smooth_start_settles_on_its_own_sector(self, well):
        # why the guard starts random: LOBPCG keeps a start free of the
        # lowest complement state almost free of it, and the loose guard
        # settles on the x-odd level first
        grid, v, orbitals, x_odd, levels = well
        assert levels["x_odd"] == pytest.approx(2.442, abs=1e-3)
        noise = np.random.default_rng(3).standard_normal(x_odd.size)
        start = x_odd / np.linalg.norm(x_odd) + 0.01 * noise / np.linalg.norm(noise)
        theta, rho, _ = guard_eigenpair(grid, v, orbitals, start)
        assert abs(theta - levels["x_odd"]) <= rho

    def test_continuum_guard_matches_dense_complement(self):
        # a shallow soft Coulomb well on a 12^3 box: one bound state, and
        # the lowest state of its complement (a box-confined p level) at
        # about +0.03 Ha, where the guard's own preconditioner shift aims
        grid = Grid3D.cube((0, 0, 0), 5.5, 12)
        X, Y, Z = grid.meshgrid()
        v = -0.6 / np.sqrt(X**2 + Y**2 + Z**2 + 1.0)
        _, orbitals, *_ = lowest_eigenpairs(grid, v, 1)
        u = orbitals[0].ravel() * math.sqrt(grid.cell_volume)
        q = np.eye(grid.n_points) - np.outer(u, u)
        # Q H Q on the complement; the pair's own direction is lifted far
        # above the spectrum
        compressed = q @ dense_hamiltonian(grid, v) @ q + 100.0 * np.outer(u, u)
        lowest = np.linalg.eigvalsh(compressed)[0]
        assert abs(lowest) < 0.05
        theta, rho, y = guard_eigenpair(grid, v, orbitals)
        assert abs(theta - lowest) <= rho
        assert abs(float(np.dot(y, u)) * math.sqrt(grid.cell_volume)) < 1e-10


class TestShifts:
    def test_wanted_states_and_guard_get_their_own_shift(self, monkeypatch):
        shifts = []
        precondition = eig._preconditioner

        def recording(grid, c_shift, *sector):
            shifts.append(c_shift)
            return precondition(grid, c_shift, *sector)

        monkeypatch.setattr(eig, "_preconditioner", recording)
        # the harmonic well lowered by 2 Ha, so that min V < 0 enters the
        # wanted states' shift; N = 4 grows the block twice, each solve
        # followed by a guard
        grid, v = _harmonic(5.0, 21)
        v -= 2.0
        (eps, *_), *_ = _occupied(grid, v, 4.0, 2.0, 1e-8)
        assert len(eps) == 4
        wanted = 1.0 + 0.1 * max(0.0, -float(v.min()))
        assert wanted == pytest.approx(1.2, abs=1e-12)
        assert shifts == [wanted, eig.GUARD_SHIFT] * 3


class TestOccupied:
    def test_degenerate_shell_grows_block(self, monkeypatch):
        # N = 4, q = 2: the 1s level holds 2 and the 3-fold p shell the
        # other 2, so the block must grow from 2 states until it holds
        # the whole shell
        sizes = []
        solve = eig.lowest_eigenpairs

        def counting(grid, v, count, **kw):
            sizes.append(count)
            return solve(grid, v, count, **kw)

        monkeypatch.setattr(eig, "lowest_eigenpairs", counting)
        grid, v = _harmonic(5.0, 21)
        (eps, *_), occ, guards, _ = _occupied(grid, v, 4.0, 2.0, 1e-8)
        assert sizes == [2, 3, 4]
        assert len(eps) == 4
        assert np.allclose(occ, [2.0, 2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0], atol=1e-12)
        assert list(guards) == [eig.FULL] and guards[eig.FULL].shape == (grid.n_points,)

    def test_closed_shell_keeps_occupied_block(self):
        (eps, *_), occ, *_ = _occupied(*_harmonic(5.0, 21), 2.0, 2.0, 1e-8)
        assert len(eps) == 1
        assert occ.tolist() == [2.0]

    def test_shell_that_cannot_close_raises_with_history(self):
        # the largest block is one state short of the 5^3 grid, so its
        # shell can only straddle the top pair. The top level of a connected
        # grid is simple, so two equal bumps at opposite corners make the
        # pair: one state on each bump, split by tunnelling far below
        # FERMI_DEGENERACY_TOL
        grid, v = _harmonic(2.0, 5)
        v[0, 0, 0] = v[-1, -1, -1] = 100.0
        n = 2.0 * (grid.n_points - 1)
        with pytest.raises(EigenError) as exc:
            _occupied(grid, v, n, 2.0, 1e-8)
        assert "does not close" in str(exc.value)
        assert len(exc.value.history) == 1
        assert exc.value.history[0] <= 1e-6


class TestLobpcg:
    def test_block_two_short_of_grid_matches_dense(self):
        # [X, W, P] has far more rows than the grid has points; the
        # dependent directions are dropped, not fatal
        grid, v = _harmonic(2.0, 5)
        count = grid.n_points - 2
        exact = np.linalg.eigvalsh(dense_hamiltonian(grid, v))[:count]
        eps, _, residuals, _ = lowest_eigenpairs(grid, v, count, tol=1e-9)
        assert np.allclose(eps, exact, rtol=0.0, atol=1e-8)
        assert np.max(residuals) <= 1e-9 * max(1.0, float(np.max(np.abs(exact))))

    def test_converged_warm_start_takes_one_block_apply(self, monkeypatch):
        grid, v = _harmonic(5.0, 21)
        eps, orbitals, *_ = lowest_eigenpairs(grid, v, 3, tol=1e-8)
        vectors = []
        apply = eig.apply_hamiltonian

        def counting(grid, v, psi, **kw):
            vectors.append(len(psi))
            return apply(grid, v, psi, **kw)

        monkeypatch.setattr(eig, "apply_hamiltonian", counting)
        again, *_ = lowest_eigenpairs(grid, v, 3, tol=1e-8, initial=(orbitals, (eig.FULL,) * 3))
        assert vectors == [3]
        assert np.allclose(again, eps, rtol=0.0, atol=1e-12)


class TestInPlaceKernels:
    """The in-place LOBPCG kernels give the floats of their fresh-array forms."""

    @pytest.mark.parametrize("m, q", [(6, 4), (2, 4)])
    def test_chunked_ritz_update_matches_one_matmul(self, m, q):
        # 2n = 10000 is not a multiple of the 4096-column chunk; m < q is
        # the first iteration, whose basis holds X only
        rng = np.random.default_rng(12)
        rows = rng.standard_normal((max(m, q) + 1, 10000))
        coef = rng.standard_normal((m, q))
        expected = coef.T @ rows[:m]
        tail = rows[q:].copy()
        eig._update_rows(coef, rows, np.empty((q, 4096)))
        assert np.array_equal(rows[:q], expected)
        assert np.array_equal(rows[q:], tail)

    def test_in_place_preconditioner_matches_fresh_arrays(self):
        # the apply rounds the rows to float32, transforms them in the two
        # float32 halves of its work rows and copies the image back: the
        # floats of the fresh-array float32 form, in r's own float64 rows
        from fermisurf.poisson import _dst_eigenvalues, sine_transform

        f32 = np.float32
        grid = Grid3D(origin=(0.0, 0.0, 0.0), h=0.3, dims=(5, 7, 6))
        rng = np.random.default_rng(13)
        r = rng.standard_normal((3, grid.n_points))
        c_shift = 1.3
        lx, ly, lz = (0.5 * _dst_eigenvalues(m, grid.h) for m in grid.shape)
        inv = 1.0 / ((lx + c_shift).astype(f32)[:, None, None] + ly.astype(f32)[:, None]
                     + lz.astype(f32))
        t = sine_transform(r.astype(f32).reshape(-1, *grid.shape))
        t *= inv
        fresh = sine_transform(t).reshape(r.shape)
        assert inv.dtype == t.dtype == fresh.dtype == f32
        rows, work = r.copy(), np.empty_like(r)
        assert eig._preconditioner(grid, c_shift)(rows, work) is rows
        assert rows.dtype == np.float64
        assert np.array_equal(rows, fresh.astype(float))
        # float32 only perturbs the search directions: the float64 form
        # agrees to about float32's rounding
        t64 = sine_transform(r.reshape(-1, *grid.shape))
        t64 /= lx[:, None, None] + ly[:, None] + lz + c_shift
        exact = sine_transform(t64).reshape(r.shape)
        assert np.max(np.abs(rows - exact)) <= 1e-6 * np.max(np.abs(exact))

    def test_guard_leaves_its_start_unchanged(self):
        # the constraint projection runs in the basis rows, not in the start
        grid, v = _harmonic(5.0, 21)
        _, orbitals, *_ = lowest_eigenpairs(grid, v, 1)
        rng = np.random.default_rng(14)
        start = rng.standard_normal(grid.n_points) + orbitals[0].ravel()
        kept = start.copy()
        guard_eigenpair(grid, v, orbitals, start)
        assert np.array_equal(start, kept)


def _anisotropic(half, n):
    """The well of frequencies 1, 0.7 and 1.3, mirror-symmetric in x, y and z."""
    grid = Grid3D.cube((0, 0, 0), half, n)
    X, Y, Z = grid.meshgrid()
    return grid, 0.5 * (X**2 + 0.49 * Y**2 + 1.69 * Z**2)


def _on_box(grid, orbitals, sectors):
    """The fold orbitals of a sectored solve, unfolded to the box with their parities."""
    return np.stack([unfold(grid, orb, s) for orb, s in zip(orbitals, sectors)])


class TestSectors:
    """Mirror-parity sectors solved on their folded grids."""

    MIRROR = (True, True, True)

    def _fold(self, grid, v):
        return v[FoldedGrid(grid, self.MIRROR).index]

    def _start(self, grid, rows, sectors):
        """The warm start (fold rows, sectors) of the box rows, each in its sector."""
        return np.stack([self._fold(grid, r.reshape(grid.shape)) for r in rows]), sectors

    def test_sectored_pairs_and_density_match_full_box(self):
        # Gaussians times 1, y, x, z, y^2 and xy put one start in each of
        # the sectors of the six lowest levels (1.47 up to 3.13 Ha)
        grid, v = _anisotropic(5.0, 21)
        X, Y, Z = grid.meshgrid()
        gauss = np.exp(-0.5 * (X**2 + Y**2 + Z**2))
        initial = self._start(grid, [gauss * m for m in (1.0, Y, X, Z, Y * Y, X * Y)],
                              ((1, 1, 1), (1, -1, 1), (-1, 1, 1), (1, 1, -1), (1, 1, 1),
                               (-1, -1, 1)))
        tol = 1e-8
        full_eps, full, *_ = lowest_eigenpairs(grid, v, 6, tol=tol)
        eps, folded, residuals, sectors = lowest_eigenpairs(
            grid, self._fold(grid, v), 6, tol=tol, initial=initial, mirror=self.MIRROR)
        assert folded.shape == (6, 11, 11, 11)
        orbitals = _on_box(grid, folded, sectors)
        assert np.all(np.diff(eps) >= 0.0)
        assert np.allclose(eps, full_eps, rtol=0.0, atol=tol)
        assert np.max(residuals) <= tol * max(1.0, float(np.max(np.abs(eps))))
        vol = grid.cell_volume
        gram = orbitals.reshape(6, -1) @ orbitals.reshape(6, -1).T * vol
        assert np.allclose(gram, np.eye(6), rtol=0.0, atol=1e-12)
        rho, rho_full = (np.einsum("kxyz,kxyz->xyz", o, o) for o in (orbitals, full))
        assert np.max(np.abs(rho - rho_full)) <= tol * np.max(rho_full)
        # every orbital has its sector's parities exactly
        for orb, s in zip(orbitals, sectors):
            for axis, p in enumerate(s):
                assert np.array_equal(np.flip(orb, axis), p * orb)

    def test_block_spanning_sectors_matches_dense(self):
        # a random mirror-symmetric potential has no degenerate levels; the
        # dense eigenvectors, perturbed, start the ten lowest in the sectors
        # of their parities
        grid = Grid3D.cube((0, 0, 0), 2.0, 9)
        rng = np.random.default_rng(21)
        v = rng.standard_normal(grid.shape)
        for axis in range(3):
            v = v + np.flip(v, axis)
        vals, vecs = np.linalg.eigh(dense_hamiltonian(grid, v))
        count = 10
        rows = vecs[:, :count].T + 1e-3 * rng.standard_normal((count, grid.n_points))
        parities = [tuple(int(np.sign(np.sum(vec * np.flip(vec, axis)))) for axis in range(3))
                    for vec in vecs[:, :count].T.reshape(count, *grid.shape)]
        initial = self._start(grid, rows, tuple(parities))
        eps, folded, _, sectors = lowest_eigenpairs(grid, self._fold(grid, v), count, tol=1e-9,
                                                    initial=initial, mirror=self.MIRROR)
        orbitals = _on_box(grid, folded, sectors)
        assert np.allclose(eps, vals[:count], rtol=0.0, atol=1e-8)
        assert len(set(sectors)) >= 4
        overlaps = np.abs(orbitals.reshape(count, -1) @ vecs[:, :count]) * grid.cell_volume**0.5
        assert np.allclose(np.diag(overlaps), 1.0, rtol=0.0, atol=1e-7)

    def test_fold_rows_in_their_sectors_restart_converged(self, monkeypatch):
        # a result's own orbitals and sectors, passed back as the warm
        # start, are taken as they are: one block apply per sector
        grid, v = _anisotropic(5.0, 21)
        X, Y, Z = grid.meshgrid()
        gauss = np.exp(-0.5 * (X**2 + Y**2 + Z**2))
        fv = self._fold(grid, v)
        eps, orbitals, _, sectors = lowest_eigenpairs(
            grid, fv, 3, tol=1e-8,
            initial=self._start(grid, [gauss, Y * gauss, X * gauss],
                                ((1, 1, 1), (1, -1, 1), (-1, 1, 1))),
            mirror=self.MIRROR)
        assert sectors == ((1, 1, 1), (1, -1, 1), (-1, 1, 1))
        applies = []
        apply = eig.apply_hamiltonian

        def counting(grid, v, psi, **kw):
            applies.append((kw["sector"], len(psi)))
            return apply(grid, v, psi, **kw)

        monkeypatch.setattr(eig, "apply_hamiltonian", counting)
        again, _, _, same = lowest_eigenpairs(grid, fv, 3, tol=1e-8, initial=(orbitals, sectors),
                                              mirror=self.MIRROR)
        assert same == sectors
        assert sorted(applies) == sorted((s, 1) for s in sectors)
        assert np.allclose(again, eps, rtol=0.0, atol=1e-12)

    def test_first_count_in_wrong_sector_is_grown_by_the_guard(self):
        # N = 4, q = 2 fills the ground state (+,+,+) and the y-odd level
        # (+,-,+); the first block starts in (+,+,+) and the z-odd sector
        # (+,+,-) instead, so the y-odd sector's guard finds its level below
        # eps_F and the block grows there
        grid, v = _anisotropic(5.0, 21)
        X, Y, Z = grid.meshgrid()
        gauss = np.exp(-0.5 * (X**2 + Y**2 + Z**2))
        tol = 1e-8
        fv = self._fold(grid, v)
        first = lowest_eigenpairs(grid, fv, 2, tol=tol,
                                  initial=self._start(grid, [gauss, Z * gauss],
                                                      ((1, 1, 1), (1, 1, -1))),
                                  mirror=self.MIRROR)
        (eps, folded, _, sectors), occ, _, margin = occupied_eigenpairs(
            grid, fv, 4.0, 2.0, tol, first, mirror=self.MIRROR)
        (full_eps, full_orbitals, *_), full_occ, *_ = _occupied(grid, v, 4.0, 2.0, tol)
        assert len(eps) == 3 and margin > 0.0
        assert sectors == ((1, 1, 1), (1, -1, 1), (1, 1, -1))
        assert occ.tolist() == [2.0, 2.0, 0.0] and full_occ.tolist() == [2.0, 2.0]
        assert np.allclose(eps[:2], full_eps, rtol=0.0, atol=tol)
        orbitals = _on_box(grid, folded, sectors)
        rho = np.einsum("k,kxyz,kxyz->xyz", occ, orbitals, orbitals)
        rho_full = np.einsum("k,kxyz,kxyz->xyz", full_occ, full_orbitals, full_orbitals)
        assert np.max(np.abs(rho - rho_full)) <= 10 * tol * np.max(rho_full)

    def test_smallest_sector_guard_matches_the_box_guard(self, monkeypatch):
        # the ground state (+,+,+) and the y-odd level (+,-,+) held, as at
        # N = 4: the lowest state outside them is the x-odd level, in a
        # sector that holds no orbital. Each sector's guard is constrained
        # by that sector's orbitals only, and the smallest theta - rho of
        # the eight agrees with the one box guard's
        grid, v = _anisotropic(5.0, 21)
        X, Y, Z = grid.meshgrid()
        gauss = np.exp(-0.5 * (X**2 + Y**2 + Z**2))
        tol = 1e-8
        constraints = {}
        solve = eig.lobpcg

        def recording(grid, v, x, c_shift, *args, **kw):
            if c_shift == eig.GUARD_SHIFT:
                y = args[2]
                constraints[args[3]] = 0 if y is None else len(y)
            return solve(grid, v, x, c_shift, *args, **kw)

        first = lowest_eigenpairs(grid, self._fold(grid, v), 2, tol=tol,
                                  initial=self._start(grid, [gauss, Y * gauss],
                                                      ((1, 1, 1), (1, -1, 1))),
                                  mirror=self.MIRROR)
        (eps, *_), _, _, margin = _occupied(grid, v, 4.0, 2.0, tol)
        monkeypatch.setattr(eig, "lobpcg", recording)
        (sector_eps, *_), _, guards, sector_margin = occupied_eigenpairs(
            grid, self._fold(grid, v), 4.0, 2.0, tol, first, mirror=self.MIRROR)
        assert first[3] == ((1, 1, 1), (1, -1, 1))
        assert np.allclose(sector_eps, eps, rtol=0.0, atol=tol)
        assert abs(sector_margin - margin) <= eig.GUARD_TOL
        # every sector ran one guard; those with no orbital ran it unconstrained
        assert set(guards) == set(constraints) == set(eig._sectors(self.MIRROR))
        assert constraints == {s: int(s in first[3]) for s in eig._sectors(self.MIRROR)}

    def test_even_length_axis_is_refused(self):
        grid = Grid3D(origin=(0.0, 0.0, 0.0), h=0.5, dims=(9, 9, 10))
        with pytest.raises(GridError, match="odd"):
            lowest_eigenpairs(grid, np.zeros(grid.shape), 1, mirror=(False, False, True))

    def test_potential_off_the_fold_is_refused(self):
        grid, v = _anisotropic(2.0, 9)
        with pytest.raises(GridError, match="fold"):
            lowest_eigenpairs(grid, v, 1, mirror=self.MIRROR)

    def test_start_row_off_the_fold_is_refused(self):
        # a box row on a mirrored problem is not sorted into a sector
        grid, v = _anisotropic(2.0, 9)
        with pytest.raises(GridError, match="one value per node of the fold"):
            lowest_eigenpairs(grid, self._fold(grid, v), 1,
                              initial=(np.ones((1, grid.n_points)), ((1, 1, 1),)),
                              mirror=self.MIRROR)

    @pytest.mark.parametrize("sector", [(1, 1, 0), (2, 1, 1), eig.FULL])
    def test_start_sector_off_the_mirrored_axes_is_refused(self, sector):
        grid, v = _anisotropic(2.0, 9)
        fv = self._fold(grid, v)
        with pytest.raises(GridError, match="not a sector"):
            lowest_eigenpairs(grid, fv, 1, initial=(np.ones((1, fv.size)), (sector,)),
                              mirror=self.MIRROR)

    def test_sectored_solve_holds_8k_plus_one_and_a_half_folded_arrays(self, monkeypatch):
        # two states in the (+,+,+) sector of a 61^3 box: LOBPCG works on
        # its 31^3 folded grid, and its peak is the k = 2 budget of that grid
        import tracemalloc

        grid, v = _anisotropic(6.0, 61)
        X, Y, Z = grid.meshgrid()
        gauss = np.exp(-0.5 * (X**2 + Y**2 + Z**2))
        initial = self._start(grid, [gauss, (X * X - Y * Y) * gauss], ((1, 1, 1), (1, 1, 1)))
        v = np.ascontiguousarray(self._fold(grid, v))
        del X, Y, Z, gauss
        peaks = []
        solve = eig.lobpcg

        def measured(grid, v, x, *args, **kw):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = solve(grid, v, x, *args, **kw)
            peaks.append((tracemalloc.get_traced_memory()[1] - before, x.shape))
            return result

        monkeypatch.setattr(eig, "lobpcg", measured)
        tracemalloc.start()
        try:
            lowest_eigenpairs(grid, v, 2, tol=1e-6, initial=initial, mirror=self.MIRROR)
        finally:
            tracemalloc.stop()
        ((peak, (k, n)),) = peaks
        assert (k, n) == (2, 31**3)
        # the Ritz scratch, the Gram pair and face arrays fit in one array of slack
        assert peak <= (8 * k + 1.5 + 1) * 8 * n
