"""Atomic Thomas-Fermi solutions.

The neutral atom reduces to the universal ODE y'' = y^(3/2) / sqrt(x) with
y(0) = 1, y(infinity) = 0. It is solved by one matched shooting: a forward
integration from the small-x series with initial slope B and a backward
integration from the Sommerfeld tail 144 x^-3 (1 + c x^-XI) with amplitude
c meet at X_MATCH, where y and y' must agree. The forward solution alone
cannot be trusted at large x, because perturbations grow like x^7.77.
Atomic quantities for any charge follow by the exact scaling
rho_z(x) = z^2 rho_1(z^(1/3) x).

Both shootings run the in-house DOP853 stepper `solve_ivp` at the end of
this module: the Runge-Kutta pair of order 8(5,3) with 7th-order dense
output of Hairer, Norsett & Wanner (Solving Ordinary Differential
Equations I, 2nd ed., Sec. II.10), with the initial step, error norm and
step control of scipy.integrate's DOP853. Every integration keeps its
dense output. The match starts from the known B and c, a forward shot
stops once it leaves the separatrix (y <= 0 or y' > 0), and the match
stops once its residual is at the integrators' noise floor. So importing
the package needs only numpy; scipy loads on the first call to `scf_atom`, `min_distance_search` or `gamma_limit`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .constants import TF_C, TF_LENGTH_B, XI
from .coulomb import radial_hartree_potential
from .grids import GridError, RadialGrid, ScalarField, SolverError, weighted_sum

#: Dimensionless Sommerfeld tail of the universal profile: y -> 144 / x^3.
Y_TAIL = 144.0

X0 = 1e-3  # start of the forward integration; the series covers [0, X0)
X_MATCH = 5.0  # where the forward and backward shootings meet
# first critical slope, J. P. Boyd, J. Comput. Appl. Math. 244:90 (2013);
# ten digits, so every x_max >= 5e3 lands on the same slope to 1e-12
SLOPE_GUESS = -1.5880710226
TAIL_GUESS = -13.05  # first tail amplitude (c = -13.0489 at x_max = 1e5)
MATCH_STEPS = (1e-6, 1e-3)  # finite-difference steps in (B, c)
MATCH_MAXITER = 8
MATCH_NOISE = 1e-10  # the match stops at a residual below this: integration noise
DENSITY_BLOCK = 2**14  # elements per cache-sized block of `tf_law`'s t sqrt(t)


class ShootingError(SolverError):
    """Universal-profile shooting failure; carries its history.

    The history holds the match residual max |(y, y')_fwd - (y, y')_bwd|
    at X_MATCH of each Newton iterate; it is empty when a shot failed
    before the first residual was formed.
    """


def tf_density(phi, mu: float = 0.0, slope_sum=False):
    """TF density law rho = (2 [phi - mu]_+)^(3/2) / (3 pi^2).

    Evaluated by `tf_law` on phi - mu, formed in one fresh array. With
    `slope_sum`, (rho, s) is returned, s the sum over the nodes of the
    slope d rho / d phi = (3/2) 2^(3/2) sqrt(t) / (3 pi^2), summed block by
    block, so no slope array is made and rho is the same to the bit.
    slope_sum may instead be one weight vector per axis of phi: each node's
    slope is then weighed by the product of its weights (`FoldedGrid`).
    """
    return tf_law(np.subtract(phi, mu, out=np.empty(np.shape(phi))), slope_sum)


def tf_law(t: np.ndarray, slope_sum=False):
    """The TF law of `tf_density` applied in place to t = phi - mu.

    t is clipped to [t]_+ and turned into 2^(3/2) t sqrt(t) / (3 pi^2): a
    float power costs several times a square root. sqrt(t) goes through a
    scratch of about DENSITY_BLOCK elements, whole rows of t's last axis at
    a time; the slope is summed per row. Returns t (a scalar for a 0-d t),
    or (t, slope sum) as `tf_density`.
    """
    c = 2.0 * math.sqrt(2.0) / (3.0 * math.pi**2)
    np.maximum(t, 0.0, out=t)
    rows = t.reshape(-1, t.shape[-1] if t.ndim else 1)
    k = max(1, DENSITY_BLOCK // rows.shape[1])
    scratch = np.empty((min(k, len(rows)), rows.shape[1]))
    weights = (np.ones(len(rows)), np.ones(rows.shape[1])) if slope_sum is True else slope_sum
    sums = np.empty(len(rows))
    for i in range(0, len(rows), k):
        block = rows[i:i + k]
        root = np.sqrt(block, out=scratch[:len(block)])
        block *= root
        block *= c
        if weights is not False:
            sums[i:i + k] = root @ weights[-1]
    if weights is False:
        return t[()]
    return t[()], 1.5 * c * weighted_sum(sums, weights[:-1])


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


def _forward_to_match(slope: float):
    """Forward shot to X_MATCH; raises once it hits zero or turns up.

    y'' >= 0 keeps y' nondecreasing, so a shot with y' > 0 can only blow up.
    """
    y0, dy0 = _series_y(X0, slope)
    fwd = solve_ivp(
        _rhs,
        (X0, X_MATCH),
        [y0, dy0],
        rtol=1e-12,
        atol=1e-14,
        stop=lambda s: 1 if s[0] <= 0.0 else 2 if s[1] > 0.0 else 0,  # 1 hit zero, 2 turned up
    )
    if fwd.status:
        what = "hit zero" if fwd.status == 1 else "turned up"
        raise ShootingError(f"forward shot with slope {slope!r} {what} at x = "
                            f"{fwd.t[-1]:.3g}, before the match point", [])
    return fwd


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
        rtol=1e-12,
        atol=1e-16,
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


def solve_universal(x_max: float = 1e5) -> UniversalTF:
    """Matched shooting solution of the universal TF equation.

    Newton on (B, c) for y_fwd = y_bwd and y'_fwd = y'_bwd at X_MATCH, the
    backward shot starting on the tail at x_max. It starts from the known
    values SLOPE_GUESS and TAIL_GUESS, 1.2e-11 and 1.1e-3 from the answer,
    so the first residual is 1.3e-5 and no bracket on B is needed. The
    Jacobian is formed once by finite differences and then updated by
    Broyden. A slope iterate whose forward shot leaves the separatrix
    before X_MATCH raises ShootingError.

    Stops at the first iterate whose match residual is at the integrators'
    noise floor MATCH_NOISE, where a Newton step would only follow the
    noise: backward shots jitter by 1.4e-11 rms at X_MATCH as c moves by
    1e-9. Raises ShootingError with the residual history when no iterate
    reaches it within MATCH_MAXITER.
    """
    if x_max < 50.0:
        raise ValueError("x_max must be >= 50")

    slope, c = SLOPE_GUESS, TAIL_GUESS
    fwd, bwd = _forward_to_match(slope), _integrate_backward(c, x_max)
    resid = fwd.y[:, -1] - bwd.y[:, -1]
    db, dc = MATCH_STEPS
    jac = np.column_stack((
        (_forward_to_match(slope + db).y[:, -1] - fwd.y[:, -1]) / db,
        (bwd.y[:, -1] - _integrate_backward(c + dc, x_max).y[:, -1]) / dc,
    ))
    history = []
    for _ in range(MATCH_MAXITER):
        history.append(np.max(np.abs(resid)))
        if history[-1] <= MATCH_NOISE:
            break  # at the noise floor: a step would be integration noise
        step = -np.linalg.solve(jac, resid)
        slope, c = slope + step[0], c + step[1]
        fwd, bwd = _forward_to_match(slope), _integrate_backward(c, x_max)
        new_resid = fwd.y[:, -1] - bwd.y[:, -1]
        jac += np.outer(new_resid - resid - jac @ step, step) / (step @ step)
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


@functools.cache
def universal_profile() -> UniversalTF:
    """The universal profile at default settings, solved once per process."""
    return solve_universal()


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
    if not 0.0 < z < math.inf:
        raise ValueError("z must be positive and finite")
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

    energy = tf_energy(grid, rho, z / r, radial_hartree_potential(grid, rho))

    return AtomicTFSolution(
        z=z,
        grid=grid,
        rho=ScalarField(grid=grid, values=rho, kind="density"),
        phi=ScalarField(grid=grid, values=phi, kind="potential"),
        energy=energy,
        mu=0.0,
        profile=u,
    )


def atomic_screened_tf(sol: AtomicTFSolution, r: float) -> np.ndarray:
    """Screened potential z/|x| minus the Coulomb field of the charge inside r.

    Evaluated at the nodes of the solution's radial grid via Newton's theorem.
    """
    grid = sol.grid
    if not (0.0 < r <= grid.r_max):
        raise GridError("screening radius must lie inside the grid")
    ball = np.where(grid.nodes <= r, sol.rho.values, 0.0)
    return sol.z / grid.nodes - radial_hartree_potential(grid, ball)


# -- DOP853 (see the module docstring) ---------------------------------------
#
# Python floats throughout: the profile ODE has two components, where a numpy
# call costs more than the arithmetic it does. One literal table, as in
# Hairer's dop853.f: nodes _C; stage rows _A_ROWS as {column: a_ij}, where
# row 12 holds the weights B and rows 13-15 the stages only the dense output
# needs; the 5th-order error weights _E5_ROW; B minus the 3rd-order weights,
# _BHH_ROW; the rows _D_ROWS of the interpolant's top four coefficients.

_C = (
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0, 0.1,
    0.2, 0.777777777777777777777777777778,
)
_A_ROWS = (
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
)
_E5_ROW = {
    0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
    6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
    8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
    10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1,
}
# B minus the 3rd-order weights, nonzero only in these columns
_BHH_ROW = {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
            11: 0.220588235294117647058823529412e-1}
_D_ROWS = (
    {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
)

_N_STAGES = 12
_A = tuple(tuple(row.get(j, 0.0) for j in range(i)) for i, row in enumerate(_A_ROWS))
_B = _A[_N_STAGES]
_E5 = tuple(_E5_ROW.get(j, 0.0) for j in range(_N_STAGES))
_E3 = tuple(b - _BHH_ROW.get(j, 0.0) for j, b in enumerate(_B))
_D = tuple(tuple(row.get(j, 0.0) for j in range(16)) for row in _D_ROWS)

_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0  # the error estimate is O(h^8)


@dataclass(frozen=True)
class ODEResult:
    """Steps and dense output of one `solve_ivp` integration.

    y has one row per component. status is 0 when t_span[1] was reached,
    else the nonzero value the stop rule returned at t[-1], where it ended
    the integration. sol interpolates every step.
    """

    t: np.ndarray
    y: np.ndarray
    status: int
    sol: DenseOutput


def _rms(values) -> float:
    return math.sqrt(sum(v * v for v in values) / len(values))


def _initial_step(fun, t, y, f, span, rtol, atol):
    """First step length from the Taylor estimate of Hairer et al., Sec. II.4."""
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([v / s for v, s in zip(f, scale)])
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, abs(span))
    h = math.copysign(h0, span)
    f1 = fun(t + h, [v + h * d for v, d in zip(y, f)])
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, abs(span))


def _rk_stages(fun, t, y, f, h):
    """The 12 stage derivatives of one step, per component, and y(t + h)."""
    k = [[v] for v in f]
    for c, row in zip(_C[1:_N_STAGES], _A[1:_N_STAGES]):
        arg = [v + h * sum(map(mul, row, kc)) for v, kc in zip(y, k)]
        for kc, v in zip(k, fun(t + c * h, arg)):
            kc.append(v)
    return k, [v + h * sum(map(mul, _B, kc)) for v, kc in zip(y, k)]


def _error_norm(k, h, y, y_new, rtol, atol) -> float:
    """DOP853's combined 5th/3rd-order error estimate in the RMS norm."""
    e5 = e3 = 0.0
    for kc, a, b in zip(k, y, y_new):
        scale = atol + max(abs(a), abs(b)) * rtol
        e5 += (sum(map(mul, _E5, kc)) / scale) ** 2
        e3 += (sum(map(mul, _E3, kc)) / scale) ** 2
    if e5 == 0.0 and e3 == 0.0:
        return 0.0
    return abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * len(y))


def _interpolant(fun, t_old, h, y_old, y, k):
    """Coefficients F_0..F_6 of one step's dense output, per component.

    k holds the 13 stage derivatives of the step (the last is f at its
    end); the three extra stages are formed here.
    """
    k = [list(kc) for kc in k]
    for c, row in zip(_C[_N_STAGES + 1:], _A[_N_STAGES + 1:]):
        arg = [v + h * sum(map(mul, row, kc)) for v, kc in zip(y_old, k)]
        for kc, v in zip(k, fun(t_old + c * h, arg)):
            kc.append(v)
    coefs = []
    for a, b, kc in zip(y_old, y, k):
        dy = b - a
        coefs.append([dy, h * kc[0] - dy, 2.0 * dy - h * (kc[_N_STAGES] + kc[0])]
                     + [h * sum(map(mul, row, kc)) for row in _D])
    return coefs


def _horner(coefs, x):
    """x (F_0 + (1-x) (F_1 + x (F_2 + (1-x) (F_3 + ...)))); x may be an array."""
    value = coefs[6] * x
    for j in range(5, -1, -1):
        value = (value + coefs[j]) * (x if j % 2 == 0 else 1.0 - x)
    return value


class DenseOutput:
    """The 7th-order interpolant of every step of one integration.

    Called like scipy's OdeSolution: a scalar t gives an (n,) state, an
    array of m points an (n, m) array. A point on a step boundary takes the
    step that ends there. One searchsorted picks the steps and one Horner
    pass evaluates them. The three extra stages each step needs are formed
    on the first call, so an integration whose dense output is never read
    does not pay for them.
    """

    def __init__(self, fun, steps, ts):
        descending = ts[-1] < ts[0]
        self._fun = fun
        self._steps = steps[::-1] if descending else steps
        self._bounds = np.array(ts[::-1] if descending else ts)
        self._side = "right" if descending else "left"
        self._table = None

    def _build(self):
        t_old = np.array([s[0] for s in self._steps])
        h = np.array([s[1] for s in self._steps])
        y_old = np.array([s[2] for s in self._steps]).T
        coefs = np.array([_interpolant(self._fun, *s) for s in self._steps])
        return t_old, h, y_old, coefs.transpose(2, 1, 0)  # (7, n, steps)

    def __call__(self, t):
        if self._table is None:
            self._table = self._build()
        t_old, h, y_old, coefs = self._table
        t = np.asarray(t, dtype=float)
        ts = np.atleast_1d(t)
        seg = np.searchsorted(self._bounds, ts, side=self._side) - 1
        np.clip(seg, 0, len(h) - 1, out=seg)
        y = y_old[:, seg] + _horner(coefs[:, :, seg], (ts - t_old[seg]) / h[seg])
        return y[:, 0] if t.ndim == 0 else y


def solve_ivp(fun, t_span, y0, *, rtol, atol, stop=None):
    """Integrate y' = fun(t, y) from t_span[0] to t_span[1] with DOP853.

    fun takes and returns a sequence of floats. stop, if given, is called
    as stop(y) on the end state of each accepted step; the integration ends
    after the first step where it returns nonzero, and that value is the
    result's status. status 0 means t_span[1] was reached. The result keeps
    every step for its dense output, whose extra stages are formed only
    when it is first called. Raises ShootingError when the step size falls
    below 10 ulp of t, which a singularity of the solution forces.
    """
    t, t_end = (float(v) for v in t_span)
    direction = 1.0 if t_end > t else -1.0
    y = [float(v) for v in y0]
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_end - t, rtol, atol)
    ts, ys, steps = [t], [y], []
    status = 0
    while status == 0 and direction * (t - t_end) < 0.0:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise ShootingError(f"integration step fell below 10 ulp at t = {t!r}", [])
            t_new = t + direction * h_abs
            if direction * (t_new - t_end) > 0.0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            k, y_new = _rk_stages(fun, t, y, f, h)
            err = _error_norm(k, h, y, y_new, rtol, atol)
            if err < 1.0:
                factor = _MAX_FACTOR
                if err > 0.0:
                    factor = min(_MAX_FACTOR, _SAFETY * err**_ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**_ERROR_EXPONENT)
            rejected = True
        f = fun(t_new, y_new)
        for kc, v in zip(k, f):
            kc.append(v)
        steps.append((t, h, y, y_new, k))
        t, y = t_new, y_new
        ts.append(t)
        ys.append(y)
        if stop is not None:
            status = stop(y)
    return ODEResult(
        t=np.array(ts),
        y=np.array(ys).T,
        status=status,
        sol=DenseOutput(fun, steps, ts),
    )
