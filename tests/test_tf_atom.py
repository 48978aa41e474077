import math

import numpy as np
import pytest

import fermisurf.tf_atom
from fermisurf.constants import SOMMERFELD_C, TF_LENGTH_B
from fermisurf.tf_atom import (
    DENSITY_BLOCK,
    MATCH_MAXITER,
    MATCH_NOISE,
    X0,
    X_MATCH,
    ShootingError,
    _forward_to_match,
    _integrate_backward,
    _rhs,
    _series_y,
    _tail_y,
    atomic_screened_tf,
    atomic_tf,
    slope_energy_constant,
    solve_universal,
    tf_density,
    universal_profile,
)

B_REFERENCE = -1.5880710
# J. P. Boyd, J. Comput. Appl. Math. 244:90 (2013)
B_LITERATURE = -1.588071022611375


class TestUniversalProfile:
    def test_initial_slope(self):
        u = universal_profile()
        assert u.slope_B == pytest.approx(B_REFERENCE, abs=1e-5)

    def test_boundary_condition(self):
        u = universal_profile()
        assert u.y(1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_strictly_decreasing_positive(self):
        u = universal_profile()
        xs = np.geomspace(1e-3, 50.0, 400)
        ys = np.array([u.y(x) for x in xs])
        assert np.all(ys > 0.0)
        assert np.all(np.diff(ys) < 0.0)

    def test_tail_approaches_144_over_x_cubed(self):
        u = universal_profile()
        x = 0.9 * u.x_max
        assert u.y(x) * x**3 == pytest.approx(144.0, rel=0.05)

    def test_particular_solution_integrator_check(self):
        # y = 144/x^3 solves y'' = y^(3/2)/sqrt(x) identically; the
        # integrator started on it must stay on it
        x0, x1 = 4.0, 16.0
        y0, yp0 = 144.0 / x0**3, -3.0 * 144.0 / x0**4

        def rhs(x, s):
            return [s[1], s[0] ** 1.5 / math.sqrt(x)]

        res = fermisurf.tf_atom.solve_ivp(rhs, (x0, x1), [y0, yp0], rtol=1e-12, atol=1e-14)
        assert res.status == 0 and res.t[-1] == x1
        assert np.allclose(res.y[0], 144.0 / res.t**3, rtol=1e-8)
        # the dense output between step ends stays on it too
        xs = np.concatenate([np.linspace(a, b, 7)[1:-1] for a, b in zip(res.t, res.t[1:])])
        assert np.allclose(res.sol(xs)[0], 144.0 / xs**3, rtol=1e-8)

    def test_forward_integration_leaves_separatrix_off_slope(self):
        # the forward guard: a slope 0.05 off the separatrix leaves it before
        # X_MATCH, so the shot cannot be matched and raises with no history.
        # Shallower -> y' turns positive near x = 1.69, so y blows up;
        # steeper -> y crosses zero near x = 2.16
        for slope, what in ((B_REFERENCE + 0.05, "turned up"), (B_REFERENCE - 0.05, "hit zero")):
            with pytest.raises(ShootingError, match=f"{what} at x = [12]\\.") as err:
                _forward_to_match(slope)
            assert err.value.history == []

    def test_stepper_raises_when_the_step_underflows(self):
        # without the stop rule the shot runs into the singularity of
        # y'' = y^(3/2)/sqrt(x), where no step above 10 ulp meets rtol
        y0 = _series_y(X0, B_REFERENCE + 0.05)
        with pytest.raises(ShootingError, match="10 ulp"):
            fermisurf.tf_atom.solve_ivp(_rhs, (X0, 80.0), y0, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("guess", [-1.587, -1.589])
    def test_match_converges_from_a_start_1e3_off(self, guess, monkeypatch):
        # the match needs no bracket: a start 1e-3 off the known slope, about
        # 1e8 times SLOPE_GUESS's own error, converges within MATCH_MAXITER
        # (7 iterates measured)
        monkeypatch.setattr(fermisurf.tf_atom, "SLOPE_GUESS", guess)
        assert abs(solve_universal().slope_B - B_LITERATURE) <= 1e-11

    def test_start_off_the_separatrix_raises_from_the_forward_guard(self, monkeypatch):
        monkeypatch.setattr(fermisurf.tf_atom, "SLOPE_GUESS", B_REFERENCE + 0.05)
        with pytest.raises(ShootingError, match="turned up") as err:
            solve_universal()
        assert err.value.history == []


class TestStepper:
    """The in-house DOP853: its stop rule, and its steps against scipy's DOP853."""

    @staticmethod
    def _scipy_shot(y0, t_span, atol):
        from scipy.integrate import solve_ivp

        return solve_ivp(_rhs, t_span, list(y0), method="DOP853", rtol=1e-12, atol=atol,
                         dense_output=True)

    def test_forward_dense_output_matches_scipy(self):
        u = universal_profile()
        ref = self._scipy_shot(_series_y(X0, u.slope_B), (X0, X_MATCH), 1e-14)
        got = _forward_to_match(u.slope_B)
        xs = np.geomspace(X0, X_MATCH, 1201)[1:]
        assert np.max(np.abs(got.sol(xs) - ref.sol(xs))) <= 1e-12

    def test_backward_dense_output_matches_scipy(self):
        # DOP853's error estimate cancels far out, so from the sixth step on
        # the two step sequences differ by ~4e-10 relative: the shots then
        # agree to their own noise floor (1.1e-11 measured), not to rounding
        u = universal_profile()
        ref = self._scipy_shot(_tail_y(u.x_max, u.tail_c), (u.x_max, X_MATCH), 1e-16)
        got = _integrate_backward(u.tail_c, u.x_max)
        xs = np.geomspace(X_MATCH, u.x_max, 1201)[1:]
        assert np.max(np.abs(got.sol(xs) - ref.sol(xs))) <= MATCH_NOISE

    def test_stop_rule_ends_after_the_first_step_it_flags(self):
        # on the exact solution 144/x^3 the rule flags every step end past
        # x = 10; the run ends at the first of them, and every step up to
        # there is the unstopped run's
        x0, x1 = 4.0, 16.0
        y0 = [144.0 / x0**3, -3.0 * 144.0 / x0**4]
        full = fermisurf.tf_atom.solve_ivp(_rhs, (x0, x1), y0, rtol=1e-12, atol=1e-14)
        cut = fermisurf.tf_atom.solve_ivp(_rhs, (x0, x1), y0, rtol=1e-12, atol=1e-14,
                                          stop=lambda s: 7 if s[0] < 144.0 / 10.0**3 else 0)
        assert full.status == 0 and cut.status == 7
        assert cut.t[-2] < 10.0 <= cut.t[-1] < x1
        n = cut.t.size
        assert np.array_equal(cut.t, full.t[:n]) and np.array_equal(cut.y, full.y[:, :n])

    def test_vectorised_profile_equals_scalar_calls(self):
        u = universal_profile()
        xs = np.concatenate([
            u._fwd.t, u._bwd.t, [X0, X_MATCH, u.x_max],
            np.geomspace(1e-4, 2.0 * u.x_max, 500),
        ])
        assert np.array_equal(u.y(xs), [u.y(x) for x in xs])


class TestMatchedShooting:
    def test_slope_matches_literature_value(self):
        # 1.19e-9 when the slope came from classifying shots at x = 80 and
        # 8.3e-10 with the small-x series cut after x^(7/2)
        assert abs(universal_profile().slope_B - B_LITERATURE) <= 1e-11

    def test_derivative_continuous_at_match_point(self):
        u = universal_profile()
        jump = u._fwd.sol(X_MATCH)[1] - u._bwd.sol(X_MATCH)[1]
        assert abs(jump) <= 1e-10

    def test_far_cutoff_does_not_move_slope(self):
        near = solve_universal(x_max=5e3)
        assert abs(near.slope_B - universal_profile().slope_B) <= 1e-12

    def test_integration_count(self, monkeypatch):
        # counted by the direction of t_span, as the benchmark counts them
        calls = {"forward": 0, "backward": 0}
        original = fermisurf.tf_atom.solve_ivp

        def counting(fun, t_span, *args, **kwargs):
            calls["forward" if t_span[1] > t_span[0] else "backward"] += 1
            return original(fun, t_span, *args, **kwargs)

        monkeypatch.setattr(fermisurf.tf_atom, "solve_ivp", counting)
        solve_universal()
        # the first shot pair, the Jacobian's pair and one pair per iterate:
        # three residuals (1.3e-5, 1.4e-10, 1.4e-11) from the known start
        assert calls["forward"] <= 4
        assert calls["backward"] <= 4

    def test_match_without_noise_floor_wanders_in_the_noise(self, monkeypatch):
        # with no floor to stop at, the iterates after the fourth only follow
        # the integrators' noise, and the match raises with that history
        monkeypatch.setattr(fermisurf.tf_atom, "MATCH_NOISE", 0.0)
        with pytest.raises(ShootingError, match="not converged") as err:
            solve_universal()
        history = err.value.history
        assert len(history) == MATCH_MAXITER
        assert max(history[4:]) <= 1e-10

    def test_series_branch_matches_pointwise_series(self):
        u = universal_profile()
        xs = np.geomspace(1e-9, 0.999 * X0, 900)
        pointwise = np.maximum([_series_y(v, u.slope_B)[0] for v in xs], 0.0)
        assert np.array_equal(u.y(xs), pointwise)


class TestAtomicSolution:
    def test_energy_constant_two_routes(self):
        # route 1: slope relation e_TF = (3/7)|B|/b; route 2: functional
        # quadrature of the solved atom
        u = universal_profile()
        e_slope = slope_energy_constant(u.slope_B)
        sol = atomic_tf(1.0)
        e_quad = -sol.energy
        assert e_quad == pytest.approx(e_slope, rel=1e-3)

    def test_charge_normalization(self):
        for z in (1.0, 6.0):
            sol = atomic_tf(z)
            assert sol.grid.integrate(sol.rho.values) == pytest.approx(z, rel=1e-6)

    def test_neutral_mu_zero(self):
        assert atomic_tf(3.0).mu == 0.0

    def test_z_scaling_of_density(self):
        sol1 = atomic_tf(1.0)
        sol8 = atomic_tf(8.0)
        r = np.geomspace(0.05, 2.0, 40)
        lhs = sol8.rho_at(r)
        rhs = 8.0**2 * sol1.rho_at(8.0 ** (1.0 / 3.0) * r)
        assert np.allclose(lhs, rhs, rtol=1e-4)

    def test_energy_scaling(self):
        e1 = atomic_tf(1.0).energy
        e27 = atomic_tf(27.0).energy
        assert e27 == pytest.approx(27.0 ** (7.0 / 3.0) * e1, rel=1e-6)

    def test_sommerfeld_majorant_pointwise(self):
        sol = atomic_tf(1.0)
        r = sol.grid.nodes
        majorant = SOMMERFELD_C / r**4
        assert np.all(sol.phi.values <= majorant * (1.0 + 1e-9))

    def test_phi_strictly_decreasing(self):
        sol = atomic_tf(2.0)
        assert np.all(np.diff(sol.phi.values) < 0.0)


class TestScreened:
    def test_two_term_quadrature_oracle(self):
        # Phi_{j,r}(r) - phi(r) equals the potential of the charge beyond r
        # evaluated at r, i.e. int_{s>r} rho(s) 4 pi s^2 / s ds
        sol = atomic_tf(1.0)
        r_cut = 1.0
        phi_r = atomic_screened_tf(sol, r_cut)
        nodes = sol.grid.nodes
        k = int(np.searchsorted(nodes, r_cut))
        contrib = sol.grid.weights * sol.rho.values
        outside = nodes > r_cut
        oracle = float(np.sum(contrib[outside] / nodes[outside]))
        phi_at = np.interp(r_cut, nodes, sol.phi.values)
        scr_at = np.interp(r_cut, nodes, phi_r)
        assert scr_at - phi_at == pytest.approx(oracle, rel=1e-3)
        del k

    def test_small_r_limit_is_bare_nucleus(self):
        sol = atomic_tf(1.0)
        r_cut = 1e-3
        scr = atomic_screened_tf(sol, r_cut)
        at = np.interp(r_cut, sol.grid.nodes, scr)
        # almost no charge inside: Phi(r) ~ z/r minus the full-cloud potential
        # at the origin offset; dominated by z/r
        assert at == pytest.approx(1.0 / r_cut, rel=5e-2)

    def test_sup_r4_bounded_by_sommerfeld_scale(self):
        sol = atomic_tf(1.0)
        window = np.geomspace(2.0, 8.0, 6)
        vals = np.array([
            abs(np.interp(r, sol.grid.nodes, atomic_screened_tf(sol, r))) * r**4
            for r in window
        ])
        assert np.all(vals <= SOMMERFELD_C * 1.5)
        assert np.all(vals > 0.0)

    def test_constants_relation(self):
        assert TF_LENGTH_B == pytest.approx(0.5 * (3 * np.pi / 4) ** (2 / 3))
        assert SOMMERFELD_C == pytest.approx(81.0 * np.pi**2 / 8.0)


class TestDensityKernel:
    @staticmethod
    def _closed_form(phi, mu):
        return (2.0 * np.maximum(phi - mu, 0.0)) ** 1.5 / (3.0 * math.pi**2)

    @pytest.mark.parametrize("mu", [0.0, 0.37, -1.5])
    def test_matches_closed_form_within_4_ulp(self, mu):
        rng = np.random.default_rng(11)
        # signed values over many decades, plus exact zeros and mu itself
        phi = rng.standard_normal((17, 19, 23)) * np.exp(rng.uniform(-20, 20, (17, 19, 23)))
        phi.flat[:50] = 0.0
        phi.flat[50:100] = mu
        phi.setflags(write=False)
        before = phi.copy()
        got = tf_density(phi, mu)
        ref = self._closed_form(phi, mu)
        assert np.array_equal(phi, before)
        assert got.shape == phi.shape
        assert np.array_equal(got == 0.0, ref == 0.0)
        assert np.all(np.abs(got - ref) <= 4.0 * np.finfo(float).eps * ref)

    def test_slope_output(self):
        # the slope is d rho / d phi = (3/2) sqrt(2 [phi - mu]_+) * 2 / (3 pi^2),
        # summed over the nodes; asking for it leaves rho unchanged to the bit.
        # The size is no multiple of the block, so the sum spans a part block
        phi = np.random.default_rng(5).uniform(-1.0, 4.0, (33, 34, 35))
        got, slope = tf_density(phi, 0.37, slope_sum=True)
        assert np.array_equal(got, tf_density(phi, 0.37))
        ref = np.sqrt(2.0 * np.maximum(phi - 0.37, 0.0)) / math.pi**2
        assert slope == pytest.approx(float(ref.sum()), rel=1e-13, abs=0.0)

    def test_blocked_law_matches_the_slope_path_bit_for_bit(self):
        # the blocked t sqrt(t) over a size that is no multiple of the block
        # gives the floats of the whole-array law t *= sqrt(t); t *= c
        n = 3 * DENSITY_BLOCK + 7
        phi = np.random.default_rng(9).uniform(-1.0, 4.0, n)
        t = np.maximum(phi - 0.37, 0.0)
        t *= np.sqrt(t)
        t *= 2.0 * math.sqrt(2.0) / (3.0 * math.pi**2)
        assert np.array_equal(tf_density(phi, 0.37), t)
        assert np.array_equal(tf_density(phi, 0.37, slope_sum=True)[0], t)

    @pytest.mark.parametrize("phi", [2.5, np.array(2.5), -1.0, np.array(-1.0)])
    def test_scalar_and_0d_input(self, phi):
        got = tf_density(phi, 0.25)
        assert np.ndim(got) == 0
        assert float(got) == pytest.approx(float(self._closed_form(phi, 0.25)), rel=1e-15)
