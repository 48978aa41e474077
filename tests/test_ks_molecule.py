import math
import tracemalloc

import numpy as np
import pytest

from fermisurf.bo import GridPolicy, diatomic
from fermisurf.ks_common import MIX_DEPTH
from fermisurf.ks_molecule import scf_molecule
from fermisurf.ks_radial import scf_atom
from fermisurf.tf_molecule import NuclearConfiguration
from fermisurf.xc import make_functional


@pytest.fixture(scope="module")
def lda():
    return make_functional("lda_exchange")


@pytest.fixture(scope="module")
def hydrogen_state(lda):
    cfg = NuclearConfiguration(positions=[[0.0, 0.0, 0.0]], charges=[1.0])
    grid = GridPolicy(spacing=0.25, margin_factor=7.0).build(cfg)
    return scf_molecule(cfg, 1.0, lda, grid)


@pytest.fixture(scope="module")
def mirrored_h2_state(lda):
    # nuclei at -2h and +2h about the box's centre node: every axis folds,
    # and each SCF step's wanted states are solved in the (+,+,+) sector
    from fermisurf import ks_molecule

    cfg = diatomic(1.0, 1.0, 1.2)
    grid = GridPolicy(spacing=0.3).build(cfg)
    flags = set()
    solve = ks_molecule.lowest_eigenpairs

    def recording(grid, v, count, **kw):
        flags.add(kw["mirror"])
        return solve(grid, v, count, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ks_molecule, "lowest_eigenpairs", recording)
        state = scf_molecule(cfg, 2.0, lda, grid)
    return state, flags


@pytest.fixture(scope="module")
def h2_state(lda):
    # separation is a multiple of the spacing so both nuclei sit on nodes
    cfg = NuclearConfiguration(positions=[[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]],
                               charges=[1.0, 1.0])
    grid = GridPolicy(spacing=0.3).build(cfg)
    return scf_molecule(cfg, 2.0, lda, grid), cfg, grid


class TestHydrogen:
    def test_matches_radial_solver(self, hydrogen_state, lda):
        radial = scf_atom(1.0, 1.0, lda)
        gap = abs(hydrogen_state.energy["total"] - radial.energy["total"])
        assert gap < 1e-2

    def test_orbital_orthonormality(self, hydrogen_state):
        vol = hydrogen_state.rho0.grid.cell_volume
        orbs = [o.values.ravel() for o in hydrogen_state.orbitals]
        for i, a in enumerate(orbs):
            for j, b in enumerate(orbs):
                ov = float(np.dot(a, b)) * vol
                assert ov == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)

    def test_energy_decomposition_identity(self, hydrogen_state):
        e = hydrogen_state.energy
        total = e["kinetic"] + e["external"] + e["hartree"] - e["xc"]
        assert abs(total - e["total"]) <= 1e-10 * max(1.0, abs(e["total"]))

    def test_density_nonnegative_and_normalized(self, hydrogen_state):
        rho = hydrogen_state.rho0
        assert np.all(rho.values >= 0.0)
        assert rho.integrate() == pytest.approx(1.0, rel=1e-6)


class TestDiatomic:
    def test_homonuclear_density_mirror_symmetric(self, lda):
        # grid built symmetric about the bond midplane, nuclei on nodes
        from fermisurf.grids import Grid3D

        cfg = NuclearConfiguration(
            positions=[[-0.75, 0.0, 0.0], [0.75, 0.0, 0.0]],
            charges=[1.0, 1.0],
        )
        grid = Grid3D.cube((0.0, 0.0, 0.0), 6.75, 55)
        state = scf_molecule(cfg, 2.0, lda, grid)
        vals = state.rho0.values
        assert np.allclose(vals, vals[::-1], atol=1e-7 * vals.max())
        assert np.allclose(vals, vals[:, ::-1, :], atol=1e-7 * vals.max())

    def test_binding_energy_negative(self, h2_state, lda):
        state, cfg, grid = h2_state
        from fermisurf.bo import bo_ks

        sample = bo_ks(cfg, lda, GridPolicy(spacing=0.3))
        assert sample.D < 0.0  # LDA hydrogen pair binds

    def test_stationarity_residuals_reported(self, h2_state):
        state, _, _ = h2_state
        res = state.meta["stationarity"]
        assert len(res) >= 1
        assert max(res) < 1e-6

    def test_mirrored_stationarity_residuals_reported(self, mirrored_h2_state):
        # the SCF stops on the density change alone, so the folded warm
        # starts must not leave the returned orbitals off stationarity
        state, flags = mirrored_h2_state
        assert flags == {(True, True, True)}
        res = state.meta["stationarity"]
        assert len(res) >= 1
        assert max(res) < 1e-6

    def test_mirrored_eigen_residuals_within_last_eigensolve_tolerance(self, mirrored_h2_state):
        from fermisurf.ks_molecule import EIG_TOL

        state, _ = mirrored_h2_state
        res = state.meta["eigen_residual"]
        assert len(res) == len(state.orbitals) == len(state.meta["stationarity"])
        tol = max(EIG_TOL, 0.1 * state.scf_history[-2])
        assert max(res) <= tol * max(1.0, float(np.max(np.abs(state.eigenvalues))))
        rho = state.rho0.values
        for axis in range(3):  # the unfolded density is symmetric to the bit
            assert np.array_equal(np.flip(rho, axis), rho)

    def test_eigen_residuals_within_last_eigensolve_tolerance(self, h2_state):
        from fermisurf.ks_molecule import EIG_TOL

        state, _, _ = h2_state
        res = state.meta["eigen_residual"]
        assert len(res) == len(state.orbitals) == len(state.meta["stationarity"])
        tol = max(EIG_TOL, 0.1 * state.scf_history[-2])
        assert max(res) <= tol * max(1.0, float(np.max(np.abs(state.eigenvalues))))

    def test_stationarity_uses_potential_of_returned_density(self, h2_state, lda):
        from fermisurf.eig import apply_hamiltonian
        from fermisurf.poisson import fold, mirror_axes, poisson_solve, unfold
        from fermisurf.tf_molecule import external_potential

        state, cfg, grid = h2_state
        rho = state.rho0.values
        v_ext = external_potential(grid, cfg)
        # the bond lies on the box's centre line in x, so the SCF solves
        # its Hartree potentials on the fold along y and z
        mirror = mirror_axes(v_ext, rho)
        assert mirror == (False, True, True)
        u = unfold(grid, poisson_solve(grid, fold(grid, rho, mirror), mirror), mirror)
        v = -v_ext + u - lda.derivative(rho)
        expected = [
            float(np.linalg.norm(apply_hamiltonian(grid, v, o.values) - e * o.values))
            * grid.cell_volume**0.5
            for e, o in zip(state.eigenvalues, state.orbitals)
        ]
        assert np.allclose(state.meta["stationarity"], expected, rtol=1e-10, atol=0.0)

    def test_meta_records_block_and_shell_margin(self, h2_state):
        from fermisurf.ks_common import FERMI_DEGENERACY_TOL

        state, _, _ = h2_state
        assert state.meta["block_size"] == len(state.orbitals) == 1
        assert state.meta["shell_margin"] > FERMI_DEGENERACY_TOL

    def test_occupations_respect_bound(self, h2_state):
        state, _, _ = h2_state
        assert np.all(state.occupations <= state.q + 1e-12)
        assert state.n_electrons == pytest.approx(2.0, abs=1e-9)


class TestBlockSize:
    """The block size is SCF state; the guard runs on the first and the converged step."""

    def test_open_shell_atom_converges_with_fractional_p_shell(self, lda):
        # a block that restarted at ceil(N / q) every step flipped between
        # 3, 4 and 5 states and kept the SCF from converging
        cfg = NuclearConfiguration(positions=[[0.0, 0.0, 0.0]], charges=[6.0])
        grid = GridPolicy(spacing=0.3).build(cfg)
        assert grid.shape == (27, 27, 27)
        state = scf_molecule(cfg, 6.0, lda, grid)
        assert np.allclose(state.occupations, [2.0, 2.0, 2 / 3, 2 / 3, 2 / 3], atol=1e-12)
        assert np.ptp(state.eigenvalues[2:]) <= 1e-6
        assert state.meta["block_size"] == 5

    @staticmethod
    def _h2(lda):
        cfg = NuclearConfiguration(positions=[[0.0, 0.0, 0.0], [1.6, 0.0, 0.0]],
                                   charges=[1.0, 1.0])
        return cfg, GridPolicy(spacing=0.4).build(cfg)

    def test_closed_shell_runs_guard_twice(self, lda, monkeypatch):
        from fermisurf import eig

        runs = []
        guard = eig.guard_eigenpair

        def counting(*args, **kwargs):
            runs.append(1)
            return guard(*args, **kwargs)

        monkeypatch.setattr(eig, "guard_eigenpair", counting)
        cfg, grid = self._h2(lda)
        state = scf_molecule(cfg, 2.0, lda, grid)
        assert len(state.scf_history) > 2
        assert len(runs) == 2

    def test_unsettled_guard_at_convergence_raises_with_history(self, lda, monkeypatch):
        from fermisurf import eig

        runs = []
        guard = eig.guard_eigenpair

        def one_iteration_at_convergence(*args, **kwargs):
            runs.append(1)
            if len(runs) == 2:
                monkeypatch.setattr(eig, "GUARD_MAXITER", 1)
            return guard(*args, **kwargs)

        monkeypatch.setattr(eig, "guard_eigenpair", one_iteration_at_convergence)
        cfg, grid = self._h2(lda)
        with pytest.raises(eig.EigenError) as exc:
            scf_molecule(cfg, 2.0, lda, grid)
        assert len(runs) == 2
        assert "guard" in str(exc.value)
        assert exc.value.history

    def test_grown_block_at_convergence_continues_and_checks_again(self, lda, monkeypatch):
        from fermisurf import ks_molecule
        from fermisurf.eig import lowest_eigenpairs
        from fermisurf.ks_common import aufbau_occupations

        sizes = []
        check = ks_molecule.occupied_eigenpairs

        def grows_once(grid, v, n, q, tol, solved, guard=None, mirror=(False,) * 3):
            sizes.append(len(solved[0]))
            eps, orbitals, residuals, occ, guard, margin = check(grid, v, n, q, tol,
                                                                 solved, guard, mirror)
            if len(sizes) == 2:  # the first check at convergence reports one more state
                eps, orbitals, residuals = lowest_eigenpairs(grid, v, len(eps) + 1, tol=tol)
                occ = aufbau_occupations(eps, np.full(len(eps), q), n)
            return eps, orbitals, residuals, occ, guard, margin

        cfg, grid = self._h2(lda)
        plain = scf_molecule(cfg, 2.0, lda, grid)
        monkeypatch.setattr(ks_molecule, "occupied_eigenpairs", grows_once)
        state = scf_molecule(cfg, 2.0, lda, grid)
        # first step, the stubbed check, then a second check at the grown size
        assert sizes == [1, 1, 2]
        assert len(state.scf_history) > len(plain.scf_history)
        assert state.scf_history[-1] < 1e-6
        assert state.occupations.tolist() == [2.0]
        assert state.energy["total"] == pytest.approx(plain.energy["total"], abs=1e-6)


class TestNoSector:
    """Problems with no mirrored odd-length axis take the full box, as before sectors.

    The fingerprints were recorded before the eigensolver had sectors: the
    SCF residual history and the eigen residual follow every iteration
    of the run, so they pin its path far below the energy's noise.
    """

    @staticmethod
    def _solve(monkeypatch, lda, cfg, n, grid):
        from fermisurf import ks_molecule

        flags = set()
        solve, poisson = ks_molecule.lowest_eigenpairs, ks_molecule.poisson_solve

        def eigensolve(grid, v, count, **kw):
            flags.add(kw["mirror"])
            return solve(grid, v, count, **kw)

        def poisson_solve(grid, source, mirror):
            flags.add(mirror)
            return poisson(grid, source, mirror)

        monkeypatch.setattr(ks_molecule, "lowest_eigenpairs", eigensolve)
        monkeypatch.setattr(ks_molecule, "poisson_solve", poisson_solve)
        state = scf_molecule(cfg, n, lda, grid)
        assert flags == {(False, False, False)}
        return state

    @pytest.mark.parametrize("case", ["off_axis", "even_length"])
    def test_takes_no_sector_and_keeps_its_path(self, lda, monkeypatch, case):
        from fermisurf.grids import Grid3D

        if case == "off_axis":
            # no box-centre plane is a mirror plane of the pair
            cfg = NuclearConfiguration(positions=[[0.0, 0.0, 0.0], [0.8, 0.7, 0.3]],
                                       charges=[1.0, 1.0])
            n, grid = 2.0, GridPolicy(spacing=0.5).build(cfg)
            history = [0.6803149437694838, 0.1832612305688068, 0.014954155392809736,
                       0.0016997150040634883, 0.0005854609352581072, 1.8789968589385935e-05,
                       4.469082303105304e-06, 5.852779008457312e-07]
            residual, total = 2.938238824796624e-08, -1.8633913125301953
        else:
            # an atom at the centre of an even box: symmetric about every
            # centre plane, but no plane holds nodes
            cfg = NuclearConfiguration(positions=[[0.0, 0.0, 0.0]], charges=[1.0])
            n, grid = 1.0, Grid3D(origin=(-6.75,) * 3, h=0.5, dims=(28, 28, 28))
            history = [0.4426484663048128, 0.13967022760570508, 0.0032605737241794028,
                       0.0009635369098099156, 0.0005375970890624056, 1.6963746805866584e-05,
                       4.1557703204323095e-06, 2.065363637482829e-06, 3.0644514846933886e-07]
            residual, total = 1.5408088229966176e-08, -0.38310266513780544
        state = self._solve(monkeypatch, lda, cfg, n, grid)
        assert len(state.scf_history) == len(history)
        assert np.allclose(state.scf_history, history, rtol=1e-6, atol=0.0)
        assert state.meta["eigen_residual"] == pytest.approx((residual,), rel=1e-6)
        assert state.energy["total"] == pytest.approx(total, rel=1e-12)


class TestContracts:
    def test_rejects_n_above_z(self, lda):
        cfg = NuclearConfiguration(positions=[[0.0, 0.0, 0.0]], charges=[1.0])
        grid = GridPolicy(spacing=0.4).build(cfg)
        with pytest.raises(ValueError):
            scf_molecule(cfg, 2.0, lda, grid)

    def test_rejects_a_start_density_off_the_grid(self, lda):
        cfg = NuclearConfiguration(positions=[[0.0, 0.0, 0.0]], charges=[1.0])
        grid = GridPolicy(spacing=0.4).build(cfg)
        with pytest.raises(ValueError, match="rho"):
            scf_molecule(cfg, 1.0, lda, grid, rho=np.ones(grid.n_points))


class TestMemory:
    def test_second_solve_peak_within_the_step_budget(self, lda):
        cfg = diatomic(1.0, 1.0, 1.4)
        grid = GridPolicy(spacing=0.5).build(cfg)
        assert grid.shape == (31, 31, 31)
        scf_molecule(cfg, 2.0, lda, grid)  # the universal profile is cached once
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            scf_molecule(cfg, 2.0, lda, grid)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the converged step's guard: v_ext, rho, rho_out, v_eff, the mixer's
        # history, the guard's start and the occupied block (count = 1)
        # held by the SCF, which the guard reads in place as its
        # constraints, and one k = 1 LOBPCG solve (8k + 1.5: basis, residual
        # rows, work, the preconditioner's float32 inverse eigenvalues, H
        # scratch)
        count, k = 1, 1
        budget = 4 + (2 * MIX_DEPTH + 2) + 1 + count + (8 * k + 1.5)
        # one grid array of slack: the Ritz scratch, face arrays, masks
        assert peak <= (budget + 1) * 8 * math.prod(grid.dims)


class TestVariationalEnergy:
    """The total is the KS functional of the returned orbitals.

    Its error is second order in the SCF residual, so the default tol
    already gives the converged total: the band-sum form with the output
    potential stopped 5.9e-7 Ha (C) and 3.9e-8 Ha (H2) short of it.
    """

    @pytest.mark.parametrize("cfg, n, h", [
        (NuclearConfiguration(positions=[[0.0, 0.0, 0.0]], charges=[6.0]), 6.0, 0.3),
        (diatomic(1.0, 1.0, 1.4), 2.0, 0.35),  # the benchmark's H2 point
    ], ids=["C", "H2"])
    def test_default_tol_total_matches_tight_tol(self, lda, cfg, n, h):
        grid = GridPolicy(spacing=h).build(cfg)
        loose, tight = (scf_molecule(cfg, n, lda, grid, tol=t).energy["total"]
                        for t in (1e-6, 1e-10))
        assert abs(loose - tight) <= 1e-8

    def test_radial_atom_default_tol_total_matches_tight_tol(self, lda):
        loose, tight = (scf_atom(6.0, 6.0, lda, tol=t).energy["total"]
                        for t in (1e-6, 1e-10))
        assert abs(loose - tight) <= 1e-8
