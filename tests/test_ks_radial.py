import tracemalloc

import numpy as np
import pytest

from fermisurf.grids import FoldedGrid, Grid3D
from fermisurf.ks_common import MIX_ALPHA, MIX_DEPTH, AndersonMixer, aufbau_occupations
from fermisurf.ks_radial import _radial_levels, scf_atom
from fermisurf.tf_atom import atomic_tf
from fermisurf.xc import make_functional


@pytest.fixture(scope="module")
def lda():
    return make_functional("lda_exchange")


class TestAufbau:
    def test_fills_lowest_first(self):
        occ = aufbau_occupations(np.array([-2.0, -1.0, -0.5]),
                                 np.array([2.0, 2.0, 2.0]), 3.0)
        assert np.allclose(occ, [2.0, 1.0, 0.0])

    def test_degenerate_levels_share_by_capacity(self):
        occ = aufbau_occupations(np.array([-1.0, -1.0 + 1e-9, -0.2]),
                                 np.array([2.0, 6.0, 2.0]), 4.0)
        assert occ[0] == pytest.approx(1.0)
        assert occ[1] == pytest.approx(3.0)

    def test_occupations_within_bounds(self):
        occ = aufbau_occupations(np.array([-3.0, -2.0, -1.0]),
                                 np.array([2.0, 2.0, 2.0]), 5.5)
        assert np.all(occ >= 0.0) and np.all(occ <= 2.0)
        assert occ.sum() == pytest.approx(5.5)


class TestAndersonMixer:
    def test_first_call_is_plain_damping(self):
        rng = np.random.default_rng(0)
        x, fx = rng.random(7), rng.random(7)
        assert np.allclose(AndersonMixer().mix(x, fx), x + MIX_ALPHA * (fx - x),
                           rtol=0, atol=1e-15)

    def test_step_matches_textbook_anderson(self):
        rng = np.random.default_rng(1)
        mixer = AndersonMixer()
        xs, rs = [], []
        for _ in range(MIX_DEPTH + 3):
            x, fx = rng.random(12), rng.random(12)
            out = mixer.mix(x, fx)
            xs.append(x)
            rs.append(fx - x)
        # least squares over the last MIX_DEPTH differences only
        dX = np.stack([xs[k + 1] - xs[k] for k in range(-MIX_DEPTH - 1, -1)], axis=1)
        dR = np.stack([rs[k + 1] - rs[k] for k in range(-MIX_DEPTH - 1, -1)], axis=1)
        g, *_ = np.linalg.lstsq(dR, rs[-1], rcond=None)
        expected = xs[-1] - dX @ g + MIX_ALPHA * (rs[-1] - dR @ g)
        assert np.linalg.norm(out - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_singular_gram_falls_back_to_plain_damping(self):
        # equal residual differences make dR^T dR exactly singular
        rng = np.random.default_rng(3)
        d = rng.standard_normal(9)
        x = rng.standard_normal(9)
        mixer = AndersonMixer()
        for k in range(3):
            out = mixer.mix(x, x + k * d)
        assert np.array_equal(out, x + MIX_ALPHA * (2 * d))

    def test_overflowing_step_falls_back_to_plain_damping(self):
        # a residual difference of 1e-10 gives g of about 1e10, and g times
        # an iterate difference of 1e300 overflows
        mixer = AndersonMixer()
        mixer.mix(np.zeros(2), np.array([0.0, 1.0]))
        x = np.array([1e300, 0.0])
        fx = np.array([1e300, 1.0 + 1e-10])
        with np.errstate(over="ignore", invalid="ignore"):
            out = mixer.mix(x, fx)
        assert np.array_equal(out, x + MIX_ALPHA * (fx - x))

    def test_output_is_a_fresh_array(self):
        # the mixer keeps its damped step, so plain damping must return a copy
        rng = np.random.default_rng(4)
        mixer = AndersonMixer()
        x = rng.random((3, 4))
        outs = [mixer.mix(x, rng.random((3, 4))) for _ in range(MIX_DEPTH + 2)]
        assert all(o.shape == x.shape for o in outs)
        assert len({id(o) for o in outs}) == len(outs)
        assert not any(np.shares_memory(a, b) for a in outs for b in outs if a is not b)

    def test_steady_state_call_allocates_only_its_output(self):
        # the damped steps and residuals are written into the rings, so a
        # call past the first MIX_DEPTH + 1 makes one x-sized array, its
        # output; the slack is one face of the 31^3 box
        rng = np.random.default_rng(5)
        shape = (31, 31, 31)
        mixer = AndersonMixer()
        for _ in range(MIX_DEPTH + 2):
            mixer.mix(rng.random(shape), rng.random(shape))
        x, fx = rng.random(shape), rng.random(shape)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = mixer.mix(x, fx)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out.shape == shape
        assert peak <= out.nbytes + 8 * 31 * 31

    @pytest.mark.parametrize("mirror", [(False, True, True), (True, True, True)])
    def test_weights_mix_a_fold_as_its_grid_array(self, mirror):
        # symmetric grid arrays and their folds: the weighted mixer on the
        # folds takes the plain mixer's coefficients on the grid arrays
        grid = Grid3D((-2.0, -1.625, -2.25), 0.25, (17, 14, 19))  # odd and even axes
        fg = FoldedGrid(grid, mirror)
        rng = np.random.default_rng(6)

        def symmetric():
            a = rng.standard_normal(grid.shape)
            for axis in (i for i, m in enumerate(mirror) if m):
                a = a + np.flip(a, axis)
            return a

        plain, weighted = AndersonMixer(), AndersonMixer(fg.weights)
        for call in range(2 * MIX_DEPTH + 2):
            x, fx = symmetric(), symmetric()
            out = plain.mix(x, fx)
            out_fold = weighted.mix(x[fg.index], fx[fg.index])
            k, m = call % (MIX_DEPTH + 1), min(call + 1, MIX_DEPTH + 1)
            a, b = plain._weights(k, m), weighted._weights(k, m)
            assert (a is None) == (b is None) == (call == 0)
            if call:
                assert np.allclose(b, a, rtol=1e-10, atol=1e-12), call
            assert np.max(np.abs(out_fold - out[fg.index])) <= 1e-12 * np.max(np.abs(out))

    def test_beats_plain_damping_on_linear_contraction(self):
        rng = np.random.default_rng(2)
        n = 40
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = Q @ np.diag(np.linspace(0.0, 0.95, n)) @ Q.T
        b = rng.standard_normal(n)

        def calls_to_converge(step):
            x = np.zeros(n)
            for k in range(1, 2000):
                fx = A @ x + b
                if np.linalg.norm(fx - x) < 1e-10:
                    return k
                x = step(x, fx)
            return 2000

        mixer = AndersonMixer()
        anderson = calls_to_converge(mixer.mix)
        damped = calls_to_converge(lambda x, fx: x + MIX_ALPHA * (fx - x))
        assert anderson < damped


class TestAtoms:
    def test_neon_shell_structure(self, lda):
        state = scf_atom(10.0, 10.0, lda)
        occupied = state.occupations[state.occupations > 1e-8]
        assert np.allclose(sorted(occupied), [2.0, 2.0, 6.0])
        assert state.energy["total"] < -100.0

    def test_empty_atom(self, lda):
        state = scf_atom(2.0, 0.0, lda)
        assert state.energy["total"] == 0.0
        assert state.n_electrons == 0.0

    def test_energy_monotone_in_electron_number(self, lda):
        e_partial = scf_atom(2.0, 1.5, lda).energy["total"]
        e_full = scf_atom(2.0, 2.0, lda).energy["total"]
        assert e_full <= e_partial

    def test_lda_below_rhf(self, lda):
        # adding a negative exchange term lowers the total energy
        rhf = make_functional("zero")
        e_rhf = scf_atom(2.0, 2.0, rhf).energy["total"]
        e_lda = scf_atom(2.0, 2.0, lda).energy["total"]
        assert e_lda < e_rhf

    def test_energy_decomposition_identity(self, lda):
        state = scf_atom(2.0, 2.0, lda)
        e = state.energy
        total = e["kinetic"] + e["external"] + e["hartree"] - e["xc"]
        assert abs(total - e["total"]) <= 1e-10 * max(1.0, abs(e["total"]))

    def test_helium_lda_reference_value(self, lda):
        # exchange-only LDA helium ground state is near -2.72 Hartree
        state = scf_atom(2.0, 2.0, lda)
        assert state.energy["total"] == pytest.approx(-2.7233, abs=5e-3)

    def test_fractional_occupation_at_fermi_level(self, lda):
        state = scf_atom(3.0, 3.0, lda)  # 1s^2 2s^1
        occ = np.sort(state.occupations[state.occupations > 1e-8])
        assert occ[0] == pytest.approx(1.0, abs=1e-6)
        assert occ[-1] == pytest.approx(2.0, abs=1e-6)

    def test_rejects_overcharged(self, lda):
        with pytest.raises(ValueError):
            scf_atom(2.0, 3.0, lda)


class TestBasisSizing:
    def test_growth_passes_solve_only_the_changed_ell(self, monkeypatch):
        # on the z = 55 TF potential the passes grow counts from [1, 1] to
        # [7, 6, 4, 2, 1]; each pass solves again only the ell whose count
        # changed, and every level is the one a fresh solve at the final
        # counts gives, to the bit
        import scipy.linalg

        h = 0.004
        r = h * np.arange(1, int(round(30.0 / h)) + 1)
        v = -atomic_tf(55.0).phi_at(r)
        solve = scipy.linalg.eigh_tridiagonal
        calls = []

        def counting(diag, off, **kw):
            calls.append(kw["select_range"][1] + 1)
            return solve(diag, off, **kw)

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counting)
        counts = [1, 1]
        levels, eig, occ = _radial_levels(r, h, v, counts, 2.0, 55.0)
        assert counts == [7, 6, 4, 2, 1]
        # every pass solving every ell took 29 calls here
        assert len(calls) == 20
        monkeypatch.undo()
        off = np.full(len(r) - 1, -0.5 / h**2)
        fresh = []
        for ell, count in enumerate(counts):
            diag = 1.0 / h**2 + 0.5 * ell * (ell + 1) / r**2 + v
            vals, vecs = solve(diag, off, select="i", select_range=(0, count - 1))
            fresh += [(float(e), ell, u / np.sqrt(h)) for e, u in zip(vals, vecs.T)]
        assert len(levels) == len(fresh)
        for (e, ell, u), (e0, ell0, u0) in zip(levels, fresh):
            assert (e, ell) == (e0, ell0) and np.array_equal(u, u0)
        assert np.array_equal(eig, [lv[0] for lv in fresh])

    def test_cs_tf_potential_sizes_its_basis(self):
        # the z = 55 TF potential, on a grid coarser than the default: its
        # sixth s level holds the 55th electron, one s level more than the
        # fixed basis of five levels per ell had solved
        from scipy.linalg import eigh_tridiagonal

        h = 0.004
        r = h * np.arange(1, int(round(30.0 / h)) + 1)
        v = -atomic_tf(55.0).phi_at(r)
        counts = [1, 1]
        levels, eig, occ = _radial_levels(r, h, v, counts, 2.0, 55.0)
        ells = np.array([lv[1] for lv in levels])
        assert np.count_nonzero(occ[ells == 0] > 0.0) == 6
        top = np.cumsum(counts) - 1
        assert np.all(occ[top] == 0.0)  # each ell's highest solved level
        assert occ[top[-1] - counts[-1] + 1] == 0.0  # the last ell's lowest
        # a generous fixed basis: ten levels for each ell <= 6
        off = np.full(len(r) - 1, -0.5 / h**2)
        ref_eig, ref_ell = [], []
        for ell in range(7):
            diag = 1.0 / h**2 + 0.5 * ell * (ell + 1) / r**2 + v
            ref_eig += list(eigh_tridiagonal(diag, off, eigvals_only=True,
                                             select="i", select_range=(0, 9)))
            ref_ell += [ell] * 10
        ref_ell = np.array(ref_ell)
        ref_occ = aufbau_occupations(np.array(ref_eig), 2.0 * (2 * ref_ell + 1), 55.0)
        for ell in range(7):
            got, want = occ[ells == ell], ref_occ[ref_ell == ell]
            n = np.count_nonzero(want)
            assert np.count_nonzero(got) == n
            assert np.allclose(got[:n], want[:n], rtol=0.0, atol=1e-12)
