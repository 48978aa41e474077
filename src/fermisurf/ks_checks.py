"""Numerical inequality checks on converged KS states.

These evaluate, on solver output, the exchange bound
E_xc(rho) <= eps int rho^(5/3) + 2 c_eps tr(gamma), c_eps = max(1, eps^-3/2)
(for functionals normalized so sup g'(t)/(t^b- + t^b+) <= 1) and the
z^(7/3) scaling of energies and kinetic energies across a z ladder.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ks_common import KSState
from .tf_atom import slope_energy_constant, universal_profile
from .xc import XCFunctional, exchange_energy


@dataclass(frozen=True)
class ExchangeBoundReport:
    margins: tuple  # rhs - E_xc of the normalized functional, per eps
    passed: bool


def check_exchange_bound(state: KSState, xc: XCFunctional, eps_values) -> ExchangeBoundReport:
    """Evaluate the exchange inequality on the converged density.

    The functional is rescaled so its derivative envelope sup is <= 1.
    """
    xc_n, _ = xc.normalized()
    rho = state.rho0
    lhs = exchange_energy(rho, xc_n)
    rho53 = rho.grid.integrate(rho.values ** (5.0 / 3.0))
    tr_gamma = state.n_electrons
    margins = []
    for eps in eps_values:
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        c_eps = max(1.0, eps ** -1.5)
        margins.append(eps * rho53 + 2.0 * c_eps * tr_gamma - lhs)
    return ExchangeBoundReport(
        margins=tuple(margins),
        passed=bool(all(m >= 0.0 for m in margins)),
    )


@dataclass(frozen=True)
class KineticScalingReport:
    z_values: tuple
    totals: tuple
    kinetic_over_z73: tuple
    all_nonpositive: bool
    kinetic_ratio_spread: float  # max/min of kinetic / z^(7/3)
    tf_gap_over_z73: tuple  # |E_KS - E_TF| / z^(7/3), per z
    gap_decreasing: bool


def kinetic_scaling_check(states: dict) -> KineticScalingReport:
    """states: mapping z -> KSState for at least 3 increasing z."""
    zs = sorted(states)
    if len(zs) < 3:
        raise ValueError("need at least 3 converged states")
    e_tf = slope_energy_constant(universal_profile().slope_B)
    totals, kin73, gaps = [], [], []
    for z in zs:
        st = states[z]
        z73 = z ** (7.0 / 3.0)
        totals.append(st.energy["total"])
        kin73.append(st.energy["kinetic"] / z73)
        gaps.append(abs(st.energy["total"] - (-e_tf * z73)) / z73)
    spread = max(kin73) / min(kin73) if min(kin73) > 0 else float("inf")
    decreasing = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    return KineticScalingReport(
        z_values=tuple(float(z) for z in zs),
        totals=tuple(totals),
        kinetic_over_z73=tuple(kin73),
        all_nonpositive=bool(all(t <= 0.0 for t in totals)),
        kinetic_ratio_spread=float(spread),
        tf_gap_over_z73=tuple(gaps),
        gap_decreasing=bool(decreasing),
    )
