"""Atomic Thomas-Fermi solutions.

The neutral atom reduces to the universal ODE y'' = y^(3/2) / sqrt(x) with
y(0) = 1, y(infinity) = 0. It is solved by one matched shooting: a forward
integration from the small-x series with initial slope B and a backward
integration from the Sommerfeld tail 144 x^-3 (1 + c x^-XI) with amplitude
c meet at X_MATCH, where y and y' must agree. The forward solution alone
cannot be trusted at large x, because perturbations grow like x^7.77.
Atomic quantities for any charge follow by the exact scaling
rho_z(x) = z^2 rho_1(z^(1/3) x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .constants import TF_C, TF_LENGTH_B, XI
from .coulomb import radial_hartree_potential
from .grids import GridError, RadialGrid, ScalarField, SolverError

#: Dimensionless Sommerfeld tail of the universal profile: y -> 144 / x^3.
Y_TAIL = 144.0

X0 = 1e-3  # start of the forward integration; the series covers [0, X0)
X_MATCH = 5.0  # where the forward and backward shootings meet
SLOPE_BRACKET = (-1.8, -1.4)  # straddles the critical initial slope
X_CLASSIFY = 80.0  # a forward shot crosses zero or blows up before here
MATCH_BASIN = 1e-4  # slope bracket width from which the match converges
TAIL_GUESS = -13.05  # first tail amplitude (c = -13.0489 at x_max = 1e5)
MATCH_STEPS = (1e-6, 1e-3)  # finite-difference steps in (B, c)
MATCH_MAXITER = 8
MATCH_NOISE = 1e-10  # match residuals below this are integration noise


class ShootingError(SolverError):
    """Universal-profile shooting failure; carries its history.

    The history holds the match residual max |(y, y')_fwd - (y, y')_bwd|
    at X_MATCH of each Newton iterate; it is empty when the slope bracket
    failed before the match began.
    """


def tf_density(phi, mu: float = 0.0, slope=None):
    """TF density law rho = (2 [phi - mu]_+)^(3/2) / (3 pi^2).

    Evaluated as 2^(3/2) t sqrt(t) / (3 pi^2), t = [phi - mu]_+, in one
    fresh array: a float power costs several times a square root. If
    `slope`, an array shaped like phi, is given, d rho / d phi =
    (3/2) 2^(3/2) sqrt(t) / (3 pi^2) is written into it; rho is the same
    to the bit either way.
    """
    c = 2.0 * math.sqrt(2.0) / (3.0 * math.pi**2)
    t = np.subtract(phi, mu, out=np.empty(np.shape(phi)))
    np.maximum(t, 0.0, out=t)
    if slope is None:
        t *= np.sqrt(t)
    else:
        t *= np.sqrt(t, out=slope)
        slope *= 1.5 * c
    t *= c
    return t[()]


def tf_residual(rho: np.ndarray, phi: np.ndarray, mu: float) -> float:
    """Sup norm of the TF equation residual (5/3) c rho^(2/3) - [phi - mu]_+."""
    resid = TF_C * (5.0 / 3.0) * rho ** (2.0 / 3.0) - np.maximum(phi - mu, 0.0)
    return float(np.max(np.abs(resid)))


def tf_energy(grid, rho: np.ndarray, v: np.ndarray, u: np.ndarray) -> float:
    """TF functional c int rho^(5/3) - int v rho + D(rho), u the Hartree potential."""
    return grid.integrate(TF_C * rho ** (5.0 / 3.0) - v * rho + 0.5 * rho * u)


def _series_y(x, slope: float):
    """Small-x series of the universal solution (removes the sqrt singularity).

    Kept through x^(9/2): at X0 the first omitted term changes y' by 1e-13,
    where stopping at x^(7/2) biased the matched slope by 8e-10.
    """
    b = slope
    a9 = 2.0 / 27.0 - b**3 / 252.0
    y = (
        1.0
        + b * x
        + (4.0 / 3.0) * x**1.5
        + 0.4 * b * x**2.5
        + x**3 / 3.0
        + (3.0 * b * b / 70.0) * x**3.5
        + (2.0 * b / 15.0) * x**4
        + a9 * x**4.5
    )
    dy = (
        b
        + 2.0 * x**0.5
        + b * x**1.5
        + x**2
        + (3.0 * b * b / 20.0) * x**2.5
        + (8.0 * b / 15.0) * x**3
        + 4.5 * a9 * x**3.5
    )
    return y, dy


def _rhs(x, state):
    y = max(state[0], 0.0)
    return [state[1], y**1.5 / math.sqrt(x)]


def _integrate_forward(slope: float, x0: float, x_end: float, dense: bool = False):
    y0, dy0 = _series_y(x0, slope)

    def hit_zero(x, s):
        return s[0]

    hit_zero.terminal = True
    hit_zero.direction = -1

    def blow_up(x, s):
        return s[0] - 2.0

    blow_up.terminal = True
    blow_up.direction = 1

    return solve_ivp(
        _rhs,
        (x0, x_end),
        [y0, dy0],
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        events=(hit_zero, blow_up),
        dense_output=dense,
    )


def _tail_y(x, c):
    """One-correction Sommerfeld tail and its derivative."""
    y = Y_TAIL * x**-3 * (1.0 + c * x**-XI)
    dy = Y_TAIL * (-3.0 * x**-4 + c * (-3.0 - XI) * x ** (-4.0 - XI))
    return y, dy


def _integrate_backward(c: float, x_far: float):
    y0, dy0 = _tail_y(x_far, c)
    return solve_ivp(
        _rhs,
        (x_far, X_MATCH),
        [y0, dy0],
        method="DOP853",
        rtol=1e-12,
        atol=1e-16,
        dense_output=True,
    )


@dataclass(frozen=True)
class UniversalTF:
    """Universal TF profile y(x) with y(0) = 1, decreasing to the 144/x^3 tail."""

    slope_B: float
    tail_c: float
    x_max: float
    _fwd: object
    _bwd: object

    def y(self, x):
        """Profile value(s); accepts scalars or arrays."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(xs)
        lo = xs < X0
        mid = (~lo) & (xs <= X_MATCH)
        hi_num = (xs > X_MATCH) & (xs <= self.x_max)
        far = xs > self.x_max
        if np.any(lo):
            out[lo] = _series_y(xs[lo], self.slope_B)[0]
        if np.any(mid):
            out[mid] = self._fwd.sol(xs[mid])[0]
        if np.any(hi_num):
            out[hi_num] = self._bwd.sol(xs[hi_num])[0]
        if np.any(far):
            out[far] = _tail_y(xs[far], self.tail_c)[0]
        out = np.maximum(out, 0.0)
        return out if np.ndim(x) else float(out[0])


def _crosses_zero(slope: float) -> bool:
    """Classify a forward shot: True below the critical slope, False above."""
    return len(_integrate_forward(slope, X0, X_CLASSIFY).t_events[0]) > 0


def _forward_to_match(slope: float):
    fwd = _integrate_forward(slope, X0, X_MATCH, dense=True)
    if fwd.t[-1] < X_MATCH:
        raise ShootingError("forward integration terminated before the match point", [])
    return fwd


def solve_universal(x_max: float = 1e5, tol: float = 1e-11) -> UniversalTF:
    """Matched shooting solution of the universal TF equation.

    Bracket phase: a forward shot below the critical slope crosses zero,
    one above it blows up. Bisection on that dichotomy narrows
    SLOPE_BRACKET to MATCH_BASIN (12 shots). Match phase: Newton on (B, c)
    for y_fwd = y_bwd and y'_fwd = y'_bwd at X_MATCH, the backward shot
    starting on the tail at x_max. The Jacobian is formed once by finite
    differences and then updated by Broyden; every slope iterate stays
    inside the bracket.

    Stops when the Newton step is at most tol in B and tol |c| in c, so tol
    bounds the estimated distance of the returned slope from the matched
    one. Stops early when the match residual stalls at the integrators'
    noise floor MATCH_NOISE. Raises ShootingError with the residual history
    when neither happens within MATCH_MAXITER iterates.
    """
    if x_max < 50.0:
        raise ValueError("x_max must be >= 50")
    if tol <= 0.0:
        raise ValueError("tol must be positive")

    lo, hi = SLOPE_BRACKET
    while hi - lo > MATCH_BASIN:
        mid = 0.5 * (lo + hi)
        if _crosses_zero(mid):
            lo = mid
        else:
            hi = mid
    # an end the bisection never moved has not been classified yet
    if (lo == SLOPE_BRACKET[0] and not _crosses_zero(lo)) or (
        hi == SLOPE_BRACKET[1] and _crosses_zero(hi)
    ):
        raise ShootingError("initial bracket does not straddle the critical slope", [])

    slope, c = 0.5 * (lo + hi), TAIL_GUESS
    fwd, bwd = _forward_to_match(slope), _integrate_backward(c, x_max)
    resid = fwd.sol(X_MATCH) - bwd.sol(X_MATCH)
    db, dc = MATCH_STEPS
    jac = np.column_stack((
        (_forward_to_match(slope + db).sol(X_MATCH) - fwd.sol(X_MATCH)) / db,
        (bwd.sol(X_MATCH) - _integrate_backward(c + dc, x_max).sol(X_MATCH)) / dc,
    ))
    history = []
    for _ in range(MATCH_MAXITER):
        history.append(np.max(np.abs(resid)))
        step = -np.linalg.solve(jac, resid)
        if abs(step[0]) <= tol and abs(step[1]) <= tol * abs(c):
            break
        if len(history) > 1 and MATCH_NOISE >= history[-1] > 0.5 * history[-2]:
            break  # stalled at the noise floor
        new_slope = slope + step[0]
        if not lo < new_slope < hi:
            new_slope = 0.5 * (slope + (lo if new_slope <= lo else hi))
        s = np.array([new_slope - slope, step[1]])
        slope, c = new_slope, c + step[1]
        fwd, bwd = _forward_to_match(slope), _integrate_backward(c, x_max)
        new_resid = fwd.sol(X_MATCH) - bwd.sol(X_MATCH)
        jac += np.outer(new_resid - resid - jac @ s, s) / (s @ s)
        resid = new_resid
    else:
        raise ShootingError(
            f"shooting match not converged in {MATCH_MAXITER} iterates", history
        )

    return UniversalTF(
        slope_B=slope,
        tail_c=c,
        x_max=x_max,
        _fwd=fwd,
        _bwd=bwd,
    )


_UNIVERSAL_CACHE: dict = {}


def universal_profile() -> UniversalTF:
    """Module-level cached universal profile at default settings."""
    if "u" not in _UNIVERSAL_CACHE:
        _UNIVERSAL_CACHE["u"] = solve_universal()
    return _UNIVERSAL_CACHE["u"]


def slope_energy_constant(slope_B: float) -> float:
    """e_TF with E(z) = -e_TF z^(7/3), from the initial-slope relation."""
    return (3.0 / 7.0) * abs(slope_B) / TF_LENGTH_B


@dataclass(frozen=True)
class AtomicTFSolution:
    """Neutral atomic TF solution on a radial grid (mu = 0)."""

    z: float
    grid: RadialGrid
    rho: ScalarField
    phi: ScalarField
    energy: float
    mu: float
    profile: UniversalTF

    def phi_at(self, r):
        """TF potential at arbitrary radii, from the universal profile."""
        r = np.asarray(r, dtype=float)
        x = r * self.z ** (1.0 / 3.0) / TF_LENGTH_B
        return self.z * self.profile.y(x) / r

    def rho_at(self, r):
        return tf_density(self.phi_at(r))

    def charge_within(self, r: float) -> float:
        """Electron charge inside radius r: the weighted sum over nodes <= r."""
        contrib = self.grid.weights * self.rho.values
        return float(np.sum(contrib[self.grid.nodes <= r]))


def default_atomic_grid(z: float, n: int = 3001, r_max_factor: float = 2000.0):
    scale = z ** (-1.0 / 3.0)
    return RadialGrid.logarithmic(1e-7 * scale, r_max_factor * scale, n)


def atomic_tf(z: float, grid: RadialGrid | None = None) -> AtomicTFSolution:
    """Neutral atomic TF solution for charge z.

    Energy is evaluated by quadrature of the TF functional; the exact
    scaling E(z) = z^(7/3) E(1) is inherited from the universal profile.
    """
    if z <= 0.0:
        raise ValueError("z must be positive")
    if grid is None:
        grid = default_atomic_grid(z)
    scale = z ** (-1.0 / 3.0)
    if grid.r_max < 20.0 * scale:
        raise GridError("grid too short: must cover well beyond the TF length z^(-1/3)")

    u = universal_profile()
    r = grid.nodes
    x = r / (TF_LENGTH_B * scale)
    y = u.y(x)
    phi = z * y / r
    rho = tf_density(phi)

    charge = grid.integrate(rho)
    if charge < 0.999 * z:
        raise GridError(
            f"grid captures only {charge / z:.4%} of the charge; extend r_max"
        )

    rho_f = ScalarField(grid=grid, values=rho, kind="density")
    energy = tf_energy(grid, rho, z / r, radial_hartree_potential(rho_f))

    return AtomicTFSolution(
        z=z,
        grid=grid,
        rho=rho_f,
        phi=ScalarField(grid=grid, values=phi, kind="potential"),
        energy=energy,
        mu=0.0,
        profile=u,
    )


def atomic_screened_tf(sol: AtomicTFSolution, r: float) -> ScalarField:
    """Screened potential z/|x| minus the Coulomb field of the charge inside r.

    Evaluated on the solution's radial grid via Newton's theorem.
    """
    grid = sol.grid
    if not (0.0 < r <= grid.r_max):
        raise GridError("screening radius must lie inside the grid")
    ball = ScalarField(grid=grid, values=np.where(grid.nodes <= r, sol.rho.values, 0.0))
    values = sol.z / grid.nodes - radial_hartree_potential(ball)
    return ScalarField(grid=grid, values=values, kind="potential")
