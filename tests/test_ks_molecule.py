import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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


def _mirrored_h2():
    # nuclei at -2h and +2h about the box's centre node: every axis folds
    cfg = diatomic(1.0, 1.0, 1.2)
    return cfg, GridPolicy(spacing=0.3).build(cfg)


@pytest.fixture(scope="module")
def mirrored_h2_state(lda):
    # each SCF step's wanted states are solved in the (+,+,+) sector; also
    # returns the eigensolves' mirror flags and the Poisson sources' shapes
    from fermisurf import ks_molecule

    cfg, grid = _mirrored_h2()
    flags, shapes = set(), set()
    solve, poisson = ks_molecule.lowest_eigenpairs, ks_molecule.poisson_solve

    def recording(grid, v, count, **kw):
        flags.add(kw["mirror"])
        return solve(grid, v, count, **kw)

    def recording_poisson(grid, source, mirror):
        shapes.add(np.shape(source))
        return poisson(grid, source, mirror)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ks_molecule, "lowest_eigenpairs", recording)
        mp.setattr(ks_molecule, "poisson_solve", recording_poisson)
        state = scf_molecule(cfg, 2.0, lda, grid)
    return state, flags, shapes


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
        state, flags, _ = mirrored_h2_state
        assert flags == {(True, True, True)}
        res = state.meta["stationarity"]
        assert len(res) >= 1
        assert max(res) < 1e-6

    def test_mirrored_eigen_residuals_within_last_eigensolve_tolerance(self, mirrored_h2_state):
        from fermisurf.ks_molecule import EIG_TOL

        state, _, _ = mirrored_h2_state
        res = state.meta["eigen_residual"]
        assert len(res) == len(state.orbitals) == len(state.meta["stationarity"])
        tol = max(EIG_TOL, 0.1 * state.scf_history[-2])
        assert max(res) <= tol * max(1.0, float(np.max(np.abs(state.eigenvalues))))
        rho = state.rho0.values
        for axis in range(3):  # the unfolded density is symmetric to the bit
            assert np.array_equal(np.flip(rho, axis), rho)

    def test_mirrored_scf_matches_the_full_box(self, mirrored_h2_state, lda, monkeypatch):
        # the same SCF with no axis folded: the fold changes only rounding
        from fermisurf import ks_molecule
        from fermisurf.grids import FoldedGrid

        state, _, shapes = mirrored_h2_state
        cfg, grid = _mirrored_h2()
        assert shapes == {FoldedGrid(grid, (True,) * 3).shape}
        monkeypatch.setattr(ks_molecule, "nuclear_mirror_axes", lambda *args: (False,) * 3)
        full = scf_molecule(cfg, 2.0, lda, grid)
        assert len(full.scf_history) == len(state.scf_history)
        assert state.energy["total"] == pytest.approx(full.energy["total"], abs=1e-12)
        rho = full.rho0.values
        assert np.max(np.abs(state.rho0.values - rho)) <= 1e-9 * np.max(rho)

    def test_asymmetric_start_is_folded_by_its_slice(self, mirrored_h2_state, lda, monkeypatch):
        # a start bumped off the x mirror plane only: the SCF takes its
        # fold, so it runs the symmetric problem and lands where the
        # default start does
        from fermisurf import ks_molecule
        from fermisurf.grids import FoldedGrid
        from fermisurf.tf_molecule import atomic_superposition

        state, _, _ = mirrored_h2_state
        cfg, grid = _mirrored_h2()
        X, Y, Z = grid.meshgrid()
        rho = atomic_superposition(grid, cfg) * (1.0 + 0.3 * np.exp(-((X - 0.9) ** 2 + Y**2 + Z**2)))
        assert not np.array_equal(np.flip(rho, 0), rho)
        kept = rho.copy()
        charges, potential = [], ks_molecule._effective_potential

        def recording(folded, rho, v_ext, xc):
            charges.append(folded.integrate(rho))
            return potential(folded, rho, v_ext, xc)

        monkeypatch.setattr(ks_molecule, "_effective_potential", recording)
        bumped = scf_molecule(cfg, 2.0, lda, grid, rho=rho)
        # the fold is scaled to N, not the box, and the caller's array is read only
        assert charges[0] == pytest.approx(2.0, rel=1e-12)
        assert np.array_equal(rho, kept)
        rho0 = bumped.rho0.values
        for axis in range(3):
            assert np.array_equal(np.flip(rho0, axis), rho0)
        assert bumped.energy["total"] == pytest.approx(state.energy["total"], abs=1e-6)

    def test_eigen_residuals_within_last_eigensolve_tolerance(self, h2_state):
        from fermisurf.ks_molecule import EIG_TOL

        state, _, _ = h2_state
        res = state.meta["eigen_residual"]
        assert len(res) == len(state.orbitals) == len(state.meta["stationarity"])
        tol = max(EIG_TOL, 0.1 * state.scf_history[-2])
        assert max(res) <= tol * max(1.0, float(np.max(np.abs(state.eigenvalues))))

    def test_stationarity_uses_potential_of_returned_density(self, h2_state, lda):
        from fermisurf.eig import apply_hamiltonian, residual_norms
        from fermisurf.grids import FoldedGrid
        from fermisurf.poisson import poisson_solve, unfold
        from fermisurf.tf_molecule import external_potential

        state, cfg, grid = h2_state
        rho = state.rho0.values
        v_ext = external_potential(grid, cfg)
        # the bond lies on the box's centre line in x, so the SCF forms its
        # potentials and orbitals on the fold along y and z
        mirror = (False, True, True)
        assert tuple(np.array_equal(np.flip(rho, axis), rho) for axis in range(3)) == mirror
        fold = FoldedGrid(grid, mirror).index
        u = poisson_solve(grid, rho[fold], mirror)
        v = -v_ext[fold] + u - lda.derivative(rho[fold])
        # each orbital's sector, read off its flips; the SCF applies H to
        # its sector's rows, so that is where the norms agree to rounding
        sectors = [tuple(0 if not m else 1 if np.array_equal(np.flip(o.values, axis), o.values)
                         else -1 for axis, m in enumerate(mirror)) for o in state.orbitals]
        expected = residual_norms(grid, v, state.eigenvalues,
                                  [o.values[fold] for o in state.orbitals], sectors)
        assert np.allclose(state.meta["stationarity"], expected, rtol=1e-10, atol=0.0)
        # the fold is an isometry: H on the box gives the same norms, up to
        # the rounding of residuals about 1e-7 below |H psi|
        v_box = unfold(grid, v, mirror)
        on_box = [
            float(np.linalg.norm(apply_hamiltonian(grid, v_box, o.values) - e * o.values))
            * grid.cell_volume**0.5
            for e, o in zip(state.eigenvalues, state.orbitals)
        ]
        assert np.allclose(state.meta["stationarity"], on_box, rtol=1e-7, atol=0.0)

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
        # the guards run at two shell checks, the first step's and the
        # converged step's; each check runs one guard per mirror sector
        from fermisurf import ks_molecule

        checks = []
        check = ks_molecule.occupied_eigenpairs

        def counting(*args, **kwargs):
            checks.append(1)
            return check(*args, **kwargs)

        monkeypatch.setattr(ks_molecule, "occupied_eigenpairs", counting)
        cfg, grid = self._h2(lda)
        state = scf_molecule(cfg, 2.0, lda, grid)
        assert len(state.scf_history) > 2
        assert len(checks) == 2

    def test_unsettled_guard_at_convergence_raises_with_history(self, lda, monkeypatch):
        from fermisurf import eig, ks_molecule

        checks = []
        check = ks_molecule.occupied_eigenpairs

        def one_iteration_at_convergence(*args, **kwargs):
            checks.append(1)
            if len(checks) == 2:
                monkeypatch.setattr(eig, "GUARD_MAXITER", 1)
            return check(*args, **kwargs)

        monkeypatch.setattr(ks_molecule, "occupied_eigenpairs", one_iteration_at_convergence)
        cfg, grid = self._h2(lda)
        with pytest.raises(eig.EigenError) as exc:
            scf_molecule(cfg, 2.0, lda, grid)
        assert len(checks) == 2
        assert "guard" in str(exc.value)
        assert exc.value.history

    def test_grown_block_at_convergence_continues_and_checks_again(self, lda, monkeypatch):
        from fermisurf import ks_molecule
        from fermisurf.eig import lowest_eigenpairs
        from fermisurf.ks_common import aufbau_occupations

        sizes = []
        check = ks_molecule.occupied_eigenpairs

        def grows_once(grid, v, n, q, tol, solved, guards=None, mirror=(False,) * 3):
            sizes.append(len(solved[0]))
            solved, occ, guards, margin = check(grid, v, n, q, tol, solved, guards, mirror)
            if len(sizes) == 2:  # the first check at convergence reports one more state
                solved = lowest_eigenpairs(grid, v, len(solved[0]) + 1, tol=tol, mirror=mirror)
                occ = aufbau_occupations(solved[0], np.full(len(solved[0]), q), n)
            return solved, occ, guards, margin

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


# one SCF in a fresh interpreter, which prints its fingerprint and the
# mirror flags of every eigensolve and Poisson solve as JSON
_NO_SECTOR_RUN = """
import json

from fermisurf import ks_molecule
from fermisurf.grids import Grid3D
from fermisurf.tf_molecule import NuclearConfiguration
from fermisurf.xc import make_functional

flags = set()
solve, poisson = ks_molecule.lowest_eigenpairs, ks_molecule.poisson_solve


def eigensolve(grid, v, count, **kw):
    flags.add(kw["mirror"])
    return solve(grid, v, count, **kw)


def poisson_solve(grid, source, mirror):
    flags.add(mirror)
    return poisson(grid, source, mirror)


ks_molecule.lowest_eigenpairs, ks_molecule.poisson_solve = eigensolve, poisson_solve
state = ks_molecule.scf_molecule(
    NuclearConfiguration(positions={positions!r}, charges={charges!r}), {n!r},
    make_functional("lda_exchange"), Grid3D(origin={origin!r}, h={h!r}, dims={dims!r}))
print(json.dumps({{"flags": sorted(flags), "history": state.scf_history,
                  "residual": state.meta["eigen_residual"],
                  "total": state.energy["total"]}}))
"""


class TestNoSector:
    """Problems with no mirrored odd-length axis take the full box, as before sectors.

    The SCF residual history and the eigen residual follow every iteration
    of the run, so they pin its path far below the energy's noise. They
    also follow the rounding of BLAS products, which changes with the
    thread count, so each case runs in a subprocess with BLAS at one
    thread, where the fingerprints were recorded.
    """

    @staticmethod
    def _solve(cfg, n, grid):
        import fermisurf

        src = str(Path(fermisurf.__file__).resolve().parent.parent)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = _NO_SECTOR_RUN.format(
            positions=cfg.positions.tolist(), charges=cfg.charges.tolist(), n=n,
            origin=grid.origin.tolist(), h=grid.h, dims=grid.dims)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=300, check=True)
        run = json.loads(out.stdout.splitlines()[-1])
        assert run["flags"] == [[False, False, False]]
        return run

    @pytest.mark.parametrize("case", ["off_axis", "even_length"])
    def test_takes_no_sector_and_keeps_its_path(self, case):
        from fermisurf.grids import Grid3D

        if case == "off_axis":
            # no box-centre plane is a mirror plane of the pair
            cfg = NuclearConfiguration(positions=[[0.0, 0.0, 0.0], [0.8, 0.7, 0.3]],
                                       charges=[1.0, 1.0])
            n, grid = 2.0, GridPolicy(spacing=0.5).build(cfg)
            history = [0.6803149437691614, 0.18326123057183724, 0.014954155277226013,
                       0.001699714861031318, 0.0005854609158466443, 1.878996059019378e-05,
                       4.469078425109079e-06, 5.852773268203731e-07]
            residual, total = 2.9381937634601582e-08, -1.8633913125301953
        else:
            # an atom at the centre of an even box: symmetric about every
            # centre plane, but no plane holds nodes
            cfg = NuclearConfiguration(positions=[[0.0, 0.0, 0.0]], charges=[1.0])
            n, grid = 1.0, Grid3D(origin=(-6.75,) * 3, h=0.5, dims=(28, 28, 28))
            history = [0.4426484663035297, 0.13967022756825007, 0.0032605738383794953,
                       0.00096353695239421, 0.0005375971255356157, 1.696373772113656e-05,
                       4.1557783925332806e-06, 2.0653676986017187e-06, 3.0644462175769725e-07]
            residual, total = 1.5408107027000888e-08, -0.38310266513780544
        run = self._solve(cfg, n, grid)
        assert len(run["history"]) == len(history)
        assert np.allclose(run["history"], history, rtol=1e-6, atol=0.0)
        assert run["residual"] == pytest.approx([residual], rel=1e-6)
        assert run["total"] == pytest.approx(total, rel=1e-12)


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


class TestStart:
    def test_start_sectors_are_the_monomials_parities(self):
        # an atom at the centre node of the 27^3 box folds every axis: the
        # monomials 1, x, y, z and x^2 about the centre planes pick the
        # parities of their powers
        from fermisurf.eig import _nodes
        from fermisurf.grids import FoldedGrid
        from fermisurf.ks_molecule import _density_start
        from fermisurf.tf_molecule import atomic_superposition, nuclear_mirror_axes

        cfg = NuclearConfiguration(positions=[[0.0, 0.0, 0.0]], charges=[6.0])
        grid = GridPolicy(spacing=0.3).build(cfg)
        assert grid.shape == (27, 27, 27)
        assert nuclear_mirror_axes(grid, cfg) == (True, True, True)
        folded = FoldedGrid(grid, (True, True, True))
        rows, sectors = _density_start(folded, atomic_superposition(folded, cfg), 5)
        assert sectors == ((1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1), (1, 1, 1))
        assert rows.shape == (5, math.prod(folded.shape))
        for row, s in zip(rows, sectors):
            assert np.all(np.isfinite(row))
            # the unit monomial term lies on the sector's nodes, the noise is 0.1
            assert np.linalg.norm(row.reshape(folded.shape)[_nodes(s)]) >= 0.9


class TestMemory:
    def test_no_box_array_before_the_first_eigensolve(self, lda):
        # from the entry of the SCF to its first eigensolve, a mirrored SCF
        # holds fold arrays only; the start density is the caller's, as
        # bo_ks passes its atomic references' superposition
        from fermisurf import ks_molecule
        from fermisurf.grids import FoldedGrid
        from fermisurf.tf_molecule import atomic_superposition

        class FirstEigensolve(Exception):
            pass

        cfg = diatomic(1.0, 1.0, 1.4)
        grid = GridPolicy(spacing=0.5).build(cfg)
        assert grid.shape == (31, 31, 31)
        rho = atomic_superposition(grid, cfg)
        flags, peaks = set(), []

        def stop(grid, v, count, **kw):
            flags.add(kw["mirror"])
            peaks.append(tracemalloc.get_traced_memory()[1])
            raise FirstEigensolve

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ks_molecule, "lowest_eigenpairs", stop)
            with pytest.raises(FirstEigensolve):  # builds the Poisson plan once
                scf_molecule(cfg, 2.0, lda, grid, rho=rho)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                with pytest.raises(FirstEigensolve):
                    scf_molecule(cfg, 2.0, lda, grid, rho=rho)
                peak = peaks[-1] - before
            finally:
                tracemalloc.stop()
        assert flags == {(False, True, True)}
        fold = math.prod(FoldedGrid(grid, (False, True, True)).shape)
        # rho's fold and v_ext's values, the count = 1 start rows, and the
        # Hartree solve of v_eff: u, the interior source, its right-hand
        # side and the solve's work array
        count = 1
        budget = 2 + count + 4
        # one fold array of slack: face arrays, the monomials' axes
        assert peak <= (budget + 1) * 8 * fold

    def test_second_solve_peak_within_the_step_budget(self, lda):
        from fermisurf import ks_molecule
        from fermisurf.grids import FoldedGrid

        cfg = diatomic(1.0, 1.0, 1.4)
        grid = GridPolicy(spacing=0.5).build(cfg)
        assert grid.shape == (31, 31, 31)
        scf_molecule(cfg, 2.0, lda, grid)  # the universal profile is cached once
        flags, poisson = set(), ks_molecule.poisson_solve

        def recording(grid, source, mirror):
            flags.add(mirror)
            return poisson(grid, source, mirror)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ks_molecule, "poisson_solve", recording)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                scf_molecule(cfg, 2.0, lda, grid)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        # the nuclei lie off the x centre plane, so the SCF folds in y and z
        assert flags == {(False, True, True)}
        box = math.prod(grid.dims)
        fold = math.prod(FoldedGrid(grid, (False, True, True)).shape) / box
        # the converged step's shell check, which runs one guard per
        # sector. On the fold: v_ext's values, rho, rho_out, v_eff, the
        # mixer's history and the occupied block (count = 1). Per guard, on
        # its sector's folded grid (at most the fold): one k = 1 LOBPCG
        # solve (8k + 1.5: basis, residual rows, work, the preconditioner's
        # float32 inverse eigenvalues, H scratch), its constraint rows (at
        # most count), the potential of an odd sector and the new guard
        # vector. Between steps the SCF keeps each sector's guard vector,
        # one box array in all, since the sectors' folded grids partition
        # the box
        count, k = 1, 1
        budget = (4 + 2 * MIX_DEPTH + 2 + count + 8 * k + 1.5 + count + 2) * fold + 1
        # one box array of slack: the Ritz scratch, face arrays, masks
        assert peak <= (budget + 1) * 8 * box


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
