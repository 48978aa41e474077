"""Direct search for the minimal-energy nuclear configuration.

Minimizes E(R) = E_elec(R) + U_R over nuclear positions with translation
and rotation pinned (nucleus 1 at the origin, nucleus 2 on the positive
x-axis). Uses Nelder-Mead restarts; a stagnating search returns the best
configuration found, flagged rather than raised.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bo import GridPolicy
from .eig import EigenError
from .ks_common import SCFError
from .ks_molecule import scf_molecule
from .tf_molecule import NuclearConfiguration, atomic_references
from .xc import XCFunctional

_HARD_FLOOR = 0.25  # reject near-coincident nuclei outright


@dataclass(frozen=True)
class MinSearchResult:
    config: NuclearConfiguration
    R_M: float  # minimal internuclear distance at the optimum
    E_mol: float  # electronic + nuclear repulsion
    converged: bool
    n_evals: int
    history: tuple  # (R_min, E) per accepted evaluation


def _params_to_config(params, charges) -> NuclearConfiguration:
    K = len(charges)
    positions = np.zeros((K, 3))
    positions[1, 0] = params[0]
    for k in range(2, K):
        positions[k] = params[1 + 3 * (k - 2): 4 + 3 * (k - 2)]
    return NuclearConfiguration(positions=positions, charges=charges)


def _config_to_params(config: NuclearConfiguration) -> np.ndarray:
    K = config.K
    params = np.zeros(1 + 3 * max(0, K - 2))
    params[0] = float(np.linalg.norm(config.positions[1] - config.positions[0]))
    shifted = config.positions - config.positions[0]
    for k in range(2, K):
        params[1 + 3 * (k - 2): 4 + 3 * (k - 2)] = shifted[k]
    return params


def min_distance_search(
    charges,
    xc: XCFunctional,
    policy: GridPolicy,
    q: float = 2.0,
    initial: NuclearConfiguration | None = None,
    restarts: int = 3,
    maxiter: int = 60,
    xatol: float = 0.02,
    fatol: float = 1e-4,
    seed: int = 3,
    **scf_kw,
) -> MinSearchResult:
    """Search for the KS-LDA energy minimum over nuclear positions.

    Returns the best configuration found with its minimal internuclear
    distance R_M. Restarts stop once the best point comes from a restart
    that converged; otherwise `converged` is False and a warning is
    emitted. A trial geometry whose SCF or eigensolve fails scores a
    penalty.
    """
    charges = np.asarray(charges, dtype=float)
    K = len(charges)
    if K < 2:
        raise ValueError("need at least two nuclei")
    n_electrons = float(charges.sum())
    history = []
    evals = {"n": 0}

    def energy(params):
        if params[0] < _HARD_FLOOR:
            return 1e6 * (1.0 + (_HARD_FLOOR - params[0]))
        try:
            cfg = _params_to_config(params, charges)
        except ValueError:
            return 1e6
        if cfg.R_min < _HARD_FLOOR:
            return 1e6 * (1.0 + (_HARD_FLOOR - cfg.R_min))
        grid = policy.build(cfg)
        try:
            state = scf_molecule(cfg, n_electrons, xc, grid, q=q, **scf_kw)
        except (SCFError, EigenError):
            return 1e6
        evals["n"] += 1
        e = state.energy["total"] + cfg.U_R
        history.append((cfg.R_min, e))
        return e

    if initial is not None:
        x0 = _config_to_params(initial)
    else:
        # start near the sum of TF length scales of the pair
        x0 = np.full(1 + 3 * max(0, K - 2), 0.0)
        x0[0] = 1.0 + float(charges[:2].min()) ** (-1.0 / 3.0)
        for k in range(2, K):
            x0[1 + 3 * (k - 2)] = (k - 1) * x0[0]
            x0[2 + 3 * (k - 2)] = 0.7 * x0[0]

    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)
    best = None
    for attempt in range(max(1, restarts)):
        start = x0 if attempt == 0 else x0 * (1.0 + 0.25 * rng.standard_normal(x0.shape))
        start[0] = max(start[0], 2.0 * _HARD_FLOOR)
        res = minimize(
            energy,
            start,
            method="Nelder-Mead",
            options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol,
                     "adaptive": True},
        )
        if best is None or res.fun < best.fun:
            best = res
        # a restart that settles on the penalty plateau above the best
        # point found so far does not make that point converged
        if best.success:
            break
    converged = bool(best.success)
    if not converged:
        warnings.warn(
            "position search stagnated; returning best configuration found",
            RuntimeWarning,
            stacklevel=2,
        )
    cfg = _params_to_config(best.x, charges)
    return MinSearchResult(
        config=cfg,
        R_M=cfg.R_min,
        E_mol=float(best.fun),
        converged=converged,
        n_evals=evals["n"],
        history=tuple(history),
    )


@dataclass(frozen=True)
class SubadditivityReport:
    charges: tuple
    split: tuple  # (charges_a, charges_b)
    e_whole: float
    e_parts: float
    gap: float  # e_whole - e_parts (subadditive when <= tol)
    passed: bool


def subadditivity_check(
    result: MinSearchResult,
    xc: XCFunctional,
    policy: GridPolicy,
    q: float = 2.0,
    tol: float = 1e-3,
) -> SubadditivityReport:
    """Check E(Z) <= E(Z_a) + E(Z_b) for the atom/atom split of a diatomic.

    The fragment references are solved on grids matched to the optimal
    molecular grid (same spacing and dims, same sub-cell nuclear offsets),
    so discretization errors cancel in the comparison. The fragment SCF
    solves run at the `scf_molecule` defaults with occupation bound q; the
    check passes when E(Z) - E(Z_a) - E(Z_b) <= tol.
    """
    cfg = result.config
    if cfg.K != 2:
        raise ValueError("subadditivity split implemented for diatomics")
    e_parts = sum(e for _, e in atomic_references(
        cfg, policy.build(cfg),
        lambda single, agrid: scf_molecule(
            single, single.Z, xc, agrid, q=q
        ).energy["total"],
    ))
    gap = result.E_mol - e_parts
    return SubadditivityReport(
        charges=tuple(float(z) for z in cfg.charges),
        split=((float(cfg.charges[0]),), (float(cfg.charges[1]),)),
        e_whole=result.E_mol,
        e_parts=e_parts,
        gap=gap,
        passed=bool(gap <= tol),
    )
