"""Command-line front end: JSON config in, CSV/JSON datasets out.

Subcommands cover the atomic and molecular solvers, Born-Oppenheimer
scans, the scaling-limit ladder, screened-potential comparisons, cross
terms, geometry search, and a self-check. Exit codes: 0 success, 2 config
error, 3 solver error (structured JSON diagnostics on stderr). Runs are
deterministic for a given config; floats are emitted with 17 significant
digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .bo import GammaEstimate, GridPolicy, bo_ks, bo_tf, diatomic, gamma_limit
from .cache import SolutionCache
from .eig import EigenError
from .fitting import FitError
from .grids import GridError
from .ks_common import SCFError
from .ks_molecule import scf_molecule
from .ks_radial import scf_atom
from .minsearch import min_distance_search
from .outside import qij_tf
from .screening import screened_compare
from .tf_atom import ShootingError, atomic_tf, tf_residual, universal_profile
from .tf_molecule import ConvergenceError, NuclearConfiguration, solve_tf
from .xc import XCFunctional, XCValidationError, make_functional

BO_HEADER = "R_min,theory,xc,q,D,grid_h,residual,E_mol,E_atoms,U_R"

_SOLVER_ERRORS = (ConvergenceError, SCFError, EigenError, ShootingError,
                  ArithmeticError, FitError)


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    return "%.17g" % float(x)


def _csv_rows(path: Path, header: str, rows) -> None:
    lines = [header]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def _load_config(path: str, allowed: dict, required: set) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = required - set(raw)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    merged = dict(allowed)
    merged.update(raw)
    return merged


_GRID_KEYS = {"spacing": None, "margin_factor": 6.0, "levels": 1}


def _grid_policy(cfg_grid) -> GridPolicy:
    if not isinstance(cfg_grid, dict):
        raise ConfigError("'grid' must be an object")
    unknown = set(cfg_grid) - set(_GRID_KEYS)
    if unknown:
        raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
    merged = dict(_GRID_KEYS)
    merged.update(cfg_grid)
    if merged["spacing"] is None:
        raise ConfigError("grid.spacing is required")
    try:
        return GridPolicy(
            spacing=float(merged["spacing"]),
            margin_factor=float(merged["margin_factor"]),
            levels=int(merged["levels"]),
        )
    except (TypeError, ValueError, GridError) as exc:
        raise ConfigError(f"bad grid policy: {exc}") from exc


_XC_KEYS = {"kind": None, "c": None, "beta": None}


def _xc_kwargs(cfg_xc, strict_mode: bool) -> dict:
    """make_functional keywords for the 'xc' object (picklable for workers)."""
    if not isinstance(cfg_xc, dict):
        raise ConfigError("'xc' must be an object")
    unknown = set(cfg_xc) - set(_XC_KEYS)
    if unknown:
        raise ConfigError(f"unknown xc keys: {sorted(unknown)}")
    kind = cfg_xc.get("kind")
    if kind is None:
        raise ConfigError("xc.kind is required")
    kw = {"kind": str(kind), "strict_mode": strict_mode}
    if cfg_xc.get("c") is not None:
        kw["c"] = float(cfg_xc["c"])
    if cfg_xc.get("beta") is not None:
        kw["beta"] = float(cfg_xc["beta"])
    return kw


def _xc_functional(cfg_xc, strict_mode: bool) -> XCFunctional:
    kw = _xc_kwargs(cfg_xc, strict_mode)
    try:
        return make_functional(**kw)
    except (XCValidationError, ValueError) as exc:
        raise ConfigError(f"bad xc config: {exc}") from exc


def _nuclear_config(cfg) -> NuclearConfiguration:
    try:
        return NuclearConfiguration(
            positions=cfg["positions"], charges=cfg["charges"]
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad nuclear configuration: {exc}") from exc


# ---------------------------------------------------------------- commands


def _cmd_tf_atom(args) -> int:
    cfg = _load_config(args.config, {"z": None, "fit_window": None}, {"z"})
    z = float(cfg["z"])
    if z <= 0:
        raise ConfigError("z must be positive")
    sol = atomic_tf(z)
    window = cfg["fit_window"]
    if window is None:
        scale = z ** (-1.0 / 3.0)
        window = (10.0 * scale, 100.0 * scale)
    from .fitting import powerlaw_fit

    fit = powerlaw_fit(sol.grid.nodes, np.maximum(sol.phi.values, 1e-300),
                       window=(float(window[0]), float(window[1])))
    e_tf = -sol.energy / z ** (7.0 / 3.0)
    resid = tf_residual(sol.rho.values, sol.phi.values, sol.mu)
    rows = [[z, sol.energy, e_tf, sol.mu, fit.exponent, fit.r_squared,
             float(sol.grid.nodes[1] - sol.grid.nodes[0]), resid]]
    out = Path(args.out) / "tf_atom.csv"
    _csv_rows(out, "z,energy,e_tf,mu,tail_exponent,tail_r2,grid_h,residual", rows)
    print(f"tf-atom z={z:g} energy={sol.energy:.8g} e_tf={e_tf:.8g} -> {out}")
    return 0


def _cmd_tf_molecule(args) -> int:
    cfg = _load_config(
        args.config,
        {"positions": None, "charges": None, "n": None, "grid": None},
        {"positions", "charges", "grid"},
    )
    config = _nuclear_config(cfg)
    policy = _grid_policy(cfg["grid"])
    n = float(cfg["n"]) if cfg["n"] is not None else config.Z
    if n <= 0:
        raise ConfigError("n must be positive")
    grid = policy.build(config)
    sol = solve_tf(config, n, grid)
    rows = [[config.R_min if config.K > 1 else 0.0, n, sol.energy, sol.mu,
             grid.h, sol.residual, config.U_R]]
    out = Path(args.out) / "tf_molecule.csv"
    _csv_rows(out, "R_min,n,energy,mu,grid_h,residual,U_R", rows)
    print(f"tf-molecule K={config.K} energy={sol.energy:.8g} "
          f"mu={sol.mu:.6g} -> {out}")
    return 0


def _cmd_ks_atom(args) -> int:
    cfg = _load_config(
        args.config,
        {"z": None, "n": None, "xc": None, "q": 2.0, "lmax": 3,
         "per_ell": 5, "tol": 1e-6},
        {"z", "xc"},
    )
    z = float(cfg["z"])
    n = float(cfg["n"]) if cfg["n"] is not None else z
    xc = _xc_functional(cfg["xc"], args.strict_xc)
    state = scf_atom(z, n, xc, q=float(cfg["q"]), lmax=int(cfg["lmax"]),
                     per_ell=int(cfg["per_ell"]), tol=float(cfg["tol"]))
    resid = state.scf_history[-1] if state.scf_history else 0.0
    grid_h = float(state.rho0.grid.nodes[1] - state.rho0.grid.nodes[0])
    e = state.energy
    rows = [[z, n, xc.name, state.q, e["total"], e["kinetic"], e["external"],
             e["hartree"], e["xc"], grid_h, resid]]
    out = Path(args.out) / "ks_atom.csv"
    _csv_rows(out, "z,n,xc,q,total,kinetic,external,hartree,xc_energy,"
                   "grid_h,residual", rows)
    print(f"ks-atom z={z:g} n={n:g} total={e['total']:.8g} -> {out}")
    return 0


def _cmd_ks_molecule(args) -> int:
    cfg = _load_config(
        args.config,
        {"positions": None, "charges": None, "n": None, "xc": None,
         "q": 2.0, "grid": None, "tol": 1e-6},
        {"positions", "charges", "xc", "grid"},
    )
    config = _nuclear_config(cfg)
    policy = _grid_policy(cfg["grid"])
    xc = _xc_functional(cfg["xc"], args.strict_xc)
    n = float(cfg["n"]) if cfg["n"] is not None else config.Z
    grid = policy.build(config)
    state = scf_molecule(config, n, xc, grid, q=float(cfg["q"]),
                         tol=float(cfg["tol"]))
    resid = state.scf_history[-1] if state.scf_history else 0.0
    e = state.energy
    rows = [[config.R_min if config.K > 1 else 0.0, n, xc.name, state.q,
             e["total"], e["total"] + config.U_R, grid.h, resid, config.U_R]]
    out = Path(args.out) / "ks_molecule.csv"
    _csv_rows(out, "R_min,n,xc,q,E_elec,E_total,grid_h,residual,U_R", rows)
    print(f"ks-molecule K={config.K} E_elec={e['total']:.8g} -> {out}")
    return 0


def _bo_point(point: dict) -> dict:
    """One scan point; module-level so worker processes can pickle it."""
    config = diatomic(*point["charges"], point["R"])
    policy = GridPolicy(spacing=point["spacing"],
                        margin_factor=point["margin_factor"],
                        levels=point["levels"])

    def solve():
        if point["theory"] == "tf":
            s = bo_tf(config, policy)
        else:
            xc = make_functional(**point["xc_kw"])
            s = bo_ks(config, xc, policy, q=point["q"])
        return {"R_min": s.R_min, "D": s.D, "grid_h": s.grid_h,
                "residual": s.residual, "E_mol": s.E_mol,
                "E_atoms": s.E_atoms, "U_R": s.U_R}

    if point.get("cache_dir"):
        cache = SolutionCache(point["cache_dir"])
        inputs = {k: v for k, v in point.items() if k != "cache_dir"}
        scalars, _ = cache.get_or_solve("bo_point", inputs, solve)
        return scalars
    return solve()


def _cmd_bo_scan(args) -> int:
    if args.workers < 1:
        raise ConfigError("workers must be >= 1")
    cfg = _load_config(
        args.config,
        {"charges": None, "R_values": None, "theory": "tf", "xc": None,
         "q": 2.0, "grid": None},
        {"charges", "R_values", "grid"},
    )
    charges = [float(z) for z in cfg["charges"]]
    if len(charges) != 2:
        raise ConfigError("bo-scan is a diatomic sweep: exactly 2 charges")
    theory = str(cfg["theory"])
    if theory not in ("tf", "ks"):
        raise ConfigError("theory must be 'tf' or 'ks'")
    xc_kw = {"kind": "zero"}
    xc_name = ""
    q = float(cfg["q"])
    if theory == "ks":
        if cfg["xc"] is None:
            raise ConfigError("ks scans need an 'xc' object")
        xc_name = _xc_functional(cfg["xc"], args.strict_xc).name  # validate early
        xc_kw = _xc_kwargs(cfg["xc"], args.strict_xc)
    policy = _grid_policy(cfg["grid"])
    rs = sorted(float(r) for r in cfg["R_values"])
    if not rs or any(r <= 0 for r in rs):
        raise ConfigError("R_values must be positive")

    cache_dir = args.cache_dir or os.environ.get("FERMISURF_CACHE")
    points = [
        {"charges": charges, "R": r, "theory": theory, "xc_kw": xc_kw,
         "q": q, "spacing": policy.spacing,
         "margin_factor": policy.margin_factor, "levels": policy.levels,
         "cache_dir": cache_dir}
        for r in rs
    ]
    if args.workers > 1 and len(points) > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_bo_point, points))
    else:
        results = [_bo_point(p) for p in points]

    rows = [
        [res["R_min"], theory, xc_name, q if theory == "ks" else 0.0,
         res["D"], res["grid_h"], res["residual"], res["E_mol"],
         res["E_atoms"], res["U_R"]]
        for res in results
    ]
    out = Path(args.out) / "bo_scan.csv"
    _csv_rows(out, BO_HEADER, rows)
    for res in results:
        print(f"bo-scan R={res['R_min']:g} D={res['D']:.8g}")
    print(f"bo-scan wrote {len(rows)} rows -> {out}")
    return 0


def _cmd_gamma(args) -> int:
    cfg = _load_config(
        args.config,
        {"charges": None, "R": 1.0, "l_values": None, "grid": None},
        {"charges", "l_values", "grid"},
    )
    charges = [float(z) for z in cfg["charges"]]
    if len(charges) != 2:
        raise ConfigError("gamma handles diatomic base configurations")
    R = float(cfg["R"])
    if R <= 0:
        raise ConfigError("R must be positive")
    policy = _grid_policy(cfg["grid"])
    config = NuclearConfiguration(
        positions=[[0.0, 0.0, 0.0], [R, 0.0, 0.0]], charges=charges
    )
    est: GammaEstimate = gamma_limit(config, cfg["l_values"], policy)
    rows = [
        [l, y, s.D, s.grid_h, s.residual]
        for l, y, s in zip(est.l_values, est.ladder, est.samples)
    ]
    out = Path(args.out) / "gamma.csv"
    _csv_rows(out, "l,ladder,D,grid_h,residual", rows)
    summary = {"R": est.R, "value": est.value, "error": est.error,
               "model": est.model}
    (Path(args.out) / "gamma.json").write_text(
        json.dumps(summary, sort_keys=True, indent=1) + "\n"
    )
    print(f"gamma R={R:g} value={est.value:.6g} +- {est.error:.3g} -> {out}")
    return 0


def _cmd_screened(args) -> int:
    cfg = _load_config(
        args.config,
        {"positions": None, "charges": None, "r_values": None, "xc": None,
         "q": 2.0, "grid": None, "eps": 0.5},
        {"positions", "charges", "r_values", "xc", "grid"},
    )
    config = _nuclear_config(cfg)
    policy = _grid_policy(cfg["grid"])
    xc = _xc_functional(cfg["xc"], args.strict_xc)
    grid = policy.build(config)
    state = scf_molecule(config, config.Z, xc, grid, q=float(cfg["q"]))
    tf_sol = solve_tf(config, config.Z, grid)
    prof = screened_compare(config, state.rho0, tf_sol.rho,
                            cfg["r_values"], eps=float(cfg["eps"]))
    rows = [
        [r, d, p, pt, grid.h, tf_sol.residual]
        for r, d, p, pt in zip(prof.r_values, prof.sup_diff, prof.sup_phi,
                               prof.sup_phi_tf)
    ]
    out = Path(args.out) / "screened.csv"
    _csv_rows(out, "r,sup_diff,sup_phi,sup_phi_tf,grid_h,residual", rows)
    if prof.fit is not None:
        summary = {"exponent": prof.fit.exponent,
                   "r_squared": prof.fit.r_squared,
                   "window": list(prof.fit.window)}
        (Path(args.out) / "screened.json").write_text(
            json.dumps(summary, sort_keys=True, indent=1) + "\n"
        )
    print(f"screened {len(rows)} radii -> {out}")
    return 0


def _cmd_qij(args) -> int:
    cfg = _load_config(
        args.config,
        {"positions": None, "charges": None, "r": None},
        {"positions", "charges", "r"},
    )
    config = _nuclear_config(cfg)
    if config.K < 2:
        raise ConfigError("qij needs at least two nuclei")
    r = float(cfg["r"])
    if not 0.0 < r <= config.R_min / 2.0:
        raise ConfigError("need 0 < r <= R_min/2")
    atoms = [atomic_tf(float(z)) for z in config.charges]
    Q = qij_tf(atoms, config, r)
    grid_h = float(atoms[0].grid.nodes[1] - atoms[0].grid.nodes[0])
    resid = max(tf_residual(a.rho.values, a.phi.values, a.mu) for a in atoms)
    rows = [
        [i, j, Q[i, j], r, grid_h, resid]
        for i in range(config.K)
        for j in range(i + 1, config.K)
    ]
    out = Path(args.out) / "qij.csv"
    _csv_rows(out, "i,j,Q_ij,r,grid_h,residual", rows)
    print(f"qij K={config.K} r={r:g} -> {out}")
    return 0


def _cmd_minsearch(args) -> int:
    cfg = _load_config(
        args.config,
        {"charges": None, "xc": None, "q": 2.0, "grid": None,
         "restarts": 3, "maxiter": 60, "seed": 3},
        {"charges", "xc", "grid"},
    )
    xc = _xc_functional(cfg["xc"], args.strict_xc)
    policy = _grid_policy(cfg["grid"])
    res = min_distance_search(
        [float(z) for z in cfg["charges"]], xc, policy, q=float(cfg["q"]),
        restarts=int(cfg["restarts"]), maxiter=int(cfg["maxiter"]),
        seed=int(cfg["seed"]),
    )
    rows = [[res.R_M, res.E_mol, int(res.converged), res.n_evals,
             policy.spacing, 0.0]]
    out = Path(args.out) / "minsearch.csv"
    _csv_rows(out, "R_M,E_mol,converged,n_evals,grid_h,residual", rows)
    summary = {
        "R_M": res.R_M,
        "E_mol": res.E_mol,
        "converged": res.converged,
        "positions": res.config.positions.tolist(),
        "charges": res.config.charges.tolist(),
    }
    (Path(args.out) / "minsearch.json").write_text(
        json.dumps(summary, sort_keys=True, indent=1) + "\n"
    )
    print(f"minsearch R_M={res.R_M:.6g} E={res.E_mol:.8g} "
          f"converged={res.converged} -> {out}")
    return 0


def _cmd_selfcheck(args) -> int:
    import tempfile

    from .grids import Grid3D, ScalarField
    from .outside import UniformBall
    from .poisson import poisson_solve
    from .xc import LDA_EXCHANGE_COEF

    checks = []

    u = universal_profile()
    checks.append(("universal profile y(0) boundary", abs(u.y(1e-8) - 1.0) < 1e-4))

    grid = Grid3D(origin=(-4.0, -4.0, -4.0), h=0.25, dims=(33, 33, 33))
    X, Y, Z = grid.meshgrid()
    rr = np.sqrt(X**2 + Y**2 + Z**2)
    a, qtot = 1.0, 2.0
    rho = np.where(rr <= a, qtot / (4.0 / 3.0 * np.pi * a**3), 0.0)
    field = ScalarField(grid=grid, values=rho)
    sol = poisson_solve(field)
    q_disc = grid.integrate(rho)  # staircase ball carries slightly != qtot
    far = np.abs(rr - 3.0) < 0.05
    ok = np.allclose(sol.values[far], q_disc / rr[far], rtol=2e-2)
    checks.append(("uniform-ball Poisson matches point charge outside", ok))

    zero = poisson_solve(ScalarField(grid=grid, values=np.zeros(grid.shape)))
    checks.append(("zero source gives zero potential",
                   float(np.max(np.abs(zero.values))) < 1e-12))

    expected = 0.75 * (3.0 / np.pi) ** (1.0 / 3.0)
    checks.append(("LDA exchange coefficient", abs(LDA_EXCHANGE_COEF - expected) < 1e-15))

    pair = NuclearConfiguration(
        positions=[[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]], charges=[2.0, 2.0]
    )
    balls = [UniformBall(z=2.0, a=0.5), UniformBall(z=2.0, a=0.5)]
    Q = qij_tf(balls, pair, 0.8)
    checks.append(("uniform balls fully screened: Q = 0", abs(Q[0, 1]) < 1e-12))

    with tempfile.TemporaryDirectory() as d:
        cache = SolutionCache(d)
        calls = {"n": 0}

        def thunk():
            calls["n"] += 1
            return {"x": 1.25}

        key_inputs = {"a": 1}
        cache.get_or_solve("selfcheck", key_inputs, thunk)
        val, hit = cache.get_or_solve("selfcheck", key_inputs, thunk)
        checks.append(("cache round-trip hit", hit and calls["n"] == 1
                       and val == {"x": 1.25}))

    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"selfcheck: {'ok  ' if ok else 'FAIL'} {name}")
    if failed:
        raise ArithmeticError(f"selfcheck failures: {failed}")
    print(f"selfcheck: {len(checks)} checks passed")
    return 0


_FLAGS = {
    "--cache": dict(dest="cache_dir", default=None,
                    help="cache directory (default: FERMISURF_CACHE or none)"),
    "--workers": dict(type=int, default=1,
                      help="worker processes for scan points"),
    "--strict-xc": dict(action="store_true",
                        help="enforce the strict admissibility class on xc"),
}

# handler and the optional flags it reads; None: no config, no flags
_COMMANDS = {
    "tf-atom": (_cmd_tf_atom, ()),
    "tf-molecule": (_cmd_tf_molecule, ()),
    "ks-atom": (_cmd_ks_atom, ("--strict-xc",)),
    "ks-molecule": (_cmd_ks_molecule, ("--strict-xc",)),
    "bo-scan": (_cmd_bo_scan, ("--cache", "--workers", "--strict-xc")),
    "gamma": (_cmd_gamma, ()),
    "screened": (_cmd_screened, ("--strict-xc",)),
    "qij": (_cmd_qij, ()),
    "minsearch": (_cmd_minsearch, ("--strict-xc",)),
    "selfcheck": (_cmd_selfcheck, None),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermisurf",
        description="Thomas-Fermi / Kohn-Sham LDA molecular solver suite",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        if flags is None:
            continue
        p.add_argument("--config", required=True,
                       help="path to the JSON run configuration")
        p.add_argument("--out", default=".", help="output directory")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, _ = _COMMANDS[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        _emit_error("config", str(exc))
        return 2
    # solver errors before ValueError: FitError subclasses ValueError
    except _SOLVER_ERRORS as exc:
        _emit_error("solver", str(exc), kind=type(exc).__name__,
                    history=getattr(exc, "history", None))
        return 3
    except (GridError, XCValidationError, ValueError) as exc:
        _emit_error("config", str(exc))
        return 2


def _emit_error(category: str, message: str, kind: str | None = None,
                history=None) -> None:
    payload = {"error": category, "message": message}
    if kind:
        payload["type"] = kind
    if history:
        payload["history"] = [float(v) for v in history[-5:]]
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
