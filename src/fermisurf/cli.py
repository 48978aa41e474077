"""Command-line front end: JSON config in, CSV/JSON datasets out.

Subcommands cover the atomic and molecular solvers, Born-Oppenheimer
scans, the scaling-limit ladder, screened-potential comparisons, cross
terms and geometry search. Exit codes: 0 success, 2 config error, 3 solver
error (structured JSON diagnostics on stderr). Runs are deterministic for
a given config; floats are emitted with 17 significant digits so reruns
are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .bo import GridPolicy, bo_ks, bo_tf, diatomic, gamma_limit
from .cache import SolutionCache
from .fitting import FitError, powerlaw_fit
from .grids import GridError, SolverError
from .ks_molecule import scf_molecule
from .ks_radial import scf_atom
from .minsearch import min_distance_search
from .outside import qij_tf
from .screening import screened_compare
from .tf_atom import atomic_tf, tf_residual
from .tf_molecule import MIN_MARGIN, NuclearConfiguration, solve_tf
from .xc import XCValidationError, make_functional

BO_HEADER = "R_min,theory,xc,q,D,grid_h,residual,E_mol,E_atoms,U_R"
# the BOSample fields of one scan point, in BO_HEADER order
_BO_FIELDS = ("R_min", "D", "grid_h", "residual", "E_mol", "E_atoms", "U_R")

_SOLVER_ERRORS = (SolverError, ArithmeticError, FitError)

#: default of a config key that must be given
REQUIRED = object()


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    return "%.17g" % float(x)


def _write(out: Path, name: str, header: str, rows, summary=None) -> Path:
    """Write out/name.csv, and out/name.json from `summary`; return the CSV path."""
    out.mkdir(parents=True, exist_ok=True)
    lines = [header] + [",".join(_fmt(v) for v in row) for row in rows]
    path = out / f"{name}.csv"
    path.write_text("\n".join(lines) + "\n", newline="\n")
    if summary is not None:
        (out / f"{name}.json").write_text(
            json.dumps(summary, sort_keys=True, indent=1) + "\n"
        )
    return path


def _fields(raw, spec: dict, what: str) -> dict:
    """Check the JSON object `raw` against `spec` and convert its values.

    `spec` maps each key to (converter, default or REQUIRED). Unknown keys,
    missing required keys and values a converter rejects are config errors
    that name the key; an absent or null optional key takes its default.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = set(raw) - set(spec)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    fields = {key: default for key, (_, default) in spec.items()}
    for key, value in raw.items():
        convert, default = spec[key]
        if value is None and default is not REQUIRED:
            continue
        try:
            fields[key] = convert(value)
        # ValueError covers GridError, XCValidationError and a nested ConfigError
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad {what} key {key!r}: {exc}") from exc
    missing = sorted(key for key, value in fields.items() if value is REQUIRED)
    if missing:
        raise ConfigError(f"missing {what} keys: {missing}")
    return fields


def _floats(value, length=None) -> list:
    """A JSON list of numbers, of exactly `length` entries if one is given."""
    if not isinstance(value, list) or length not in (None, len(value)):
        count = f"{length} " if length else ""
        raise TypeError(f"expected a list of {count}numbers")
    return [float(v) for v in value]


def _positives(value, length=None) -> list:
    """A nonempty JSON list of positive finite numbers (see `_floats`)."""
    numbers = _floats(value, length)
    if not numbers or not all(0.0 < v < np.inf for v in numbers):
        raise ValueError("expected positive finite numbers")
    return numbers


def _charge_pair(value) -> list:
    return _positives(value, 2)


def _positions(value) -> list:
    """A nonempty JSON list of finite [x, y, z] points."""
    if not isinstance(value, list) or not value:
        raise TypeError("expected a list of [x, y, z] points")
    points = [_floats(p, 3) for p in value]
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    return points


def _integer(value) -> int:
    """An integral number; int() would truncate 1.5 to 1."""
    if isinstance(value, int):
        return int(value)
    number = float(value)
    if not number.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(number)


def _at_least(low: int):
    def convert(value) -> int:
        number = _integer(value)
        if number < low:
            raise ValueError(f"must be >= {low}, got {number}")
        return number

    return convert


def _positive(value) -> float:
    number = float(value)
    if not 0.0 < number < np.inf:
        raise ValueError(f"must be positive and finite, got {value!r}")
    return number


def _nonnegative(value) -> float:
    number = float(value)
    if not 0.0 <= number < np.inf:
        raise ValueError(f"must be nonnegative and finite, got {value!r}")
    return number


def _window(value) -> list:
    lo, hi = _floats(value, 2)
    if not 0.0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    return [lo, hi]


_GRID = {"spacing": (float, REQUIRED), "margin_factor": (float, MIN_MARGIN)}
_XC = {"kind": (str, REQUIRED), "c": (float, None), "beta": (float, None)}


def _grid(value) -> GridPolicy:
    return GridPolicy(**_fields(value, _GRID, "grid"))


def _xc(value) -> dict:
    """make_functional keywords of the 'xc' object, checked by one build."""
    kw = {k: v for k, v in _fields(value, _XC, "xc").items() if v is not None}
    make_functional(**kw)
    return kw


# ---------------------------------------------------------------- commands


def _cmd_tf_atom(cfg, args, out: Path) -> None:
    z = cfg["z"]
    sol = atomic_tf(z)
    scale = z ** (-1.0 / 3.0)
    window = cfg["fit_window"] or (10.0 * scale, 100.0 * scale)
    fit = powerlaw_fit(sol.grid.nodes, np.maximum(sol.phi.values, 1e-300),
                       window=window)
    e_tf = -sol.energy / z ** (7.0 / 3.0)
    resid = tf_residual(sol.rho.values, sol.phi.values, sol.mu)
    rows = [[z, sol.energy, e_tf, sol.mu, fit.exponent, fit.r_squared,
             float(sol.grid.nodes[1] - sol.grid.nodes[0]), resid]]
    path = _write(out, "tf_atom",
                  "z,energy,e_tf,mu,tail_exponent,tail_r2,grid_h,residual", rows)
    print(f"tf-atom z={z:g} energy={sol.energy:.8g} e_tf={e_tf:.8g} -> {path}")


def _cmd_tf_molecule(cfg, args, out: Path) -> None:
    config = NuclearConfiguration(cfg["positions"], cfg["charges"])
    n = config.Z if cfg["n"] is None else cfg["n"]
    grid = cfg["grid"].build(config)
    sol = solve_tf(config, n, grid)
    rows = [[config.R_min if config.K > 1 else 0.0, n, sol.energy, sol.mu,
             grid.h, sol.residual, config.U_R]]
    path = _write(out, "tf_molecule", "R_min,n,energy,mu,grid_h,residual,U_R", rows)
    print(f"tf-molecule K={config.K} energy={sol.energy:.8g} "
          f"mu={sol.mu:.6g} -> {path}")


def _cmd_ks_atom(cfg, args, out: Path) -> None:
    z = cfg["z"]
    n = z if cfg["n"] is None else cfg["n"]
    if n > z:
        raise ConfigError("n must be <= z (existence regime)")
    xc = make_functional(**cfg["xc"], strict_mode=args.strict_xc)
    state = scf_atom(z, n, xc, q=cfg["q"], tol=cfg["tol"])
    resid = state.scf_history[-1] if state.scf_history else 0.0
    grid_h = float(state.rho0.grid.nodes[1] - state.rho0.grid.nodes[0])
    e = state.energy
    rows = [[z, n, xc.name, state.q, e["total"], e["kinetic"], e["external"],
             e["hartree"], e["xc"], grid_h, resid]]
    path = _write(out, "ks_atom", "z,n,xc,q,total,kinetic,external,hartree,"
                  "xc_energy,grid_h,residual", rows)
    print(f"ks-atom z={z:g} n={n:g} total={e['total']:.8g} -> {path}")


def _cmd_ks_molecule(cfg, args, out: Path) -> None:
    config = NuclearConfiguration(cfg["positions"], cfg["charges"])
    xc = make_functional(**cfg["xc"], strict_mode=args.strict_xc)
    n = config.Z if cfg["n"] is None else cfg["n"]
    if n > config.Z:
        raise ConfigError("n must be <= the sum of the charges (existence regime)")
    grid = cfg["grid"].build(config)
    state = scf_molecule(config, n, xc, grid, q=cfg["q"], tol=cfg["tol"])
    resid = state.scf_history[-1] if state.scf_history else 0.0
    e = state.energy
    rows = [[config.R_min if config.K > 1 else 0.0, n, xc.name, state.q,
             e["total"], e["total"] + config.U_R, grid.h, resid, config.U_R]]
    path = _write(out, "ks_molecule",
                  "R_min,n,xc,q,E_elec,E_total,grid_h,residual,U_R", rows)
    print(f"ks-molecule K={config.K} E_elec={e['total']:.8g} -> {path}")


def _bo_point(point: dict) -> dict:
    """One scan point; module-level so worker processes can pickle it."""
    config = diatomic(*point["charges"], point["R"])
    policy = GridPolicy(**point["grid"])

    def solve():
        if point["theory"] == "tf":
            s = bo_tf(config, policy)
        else:
            s = bo_ks(config, make_functional(**point["xc"]), policy, q=point["q"])
        return {name: getattr(s, name) for name in _BO_FIELDS}

    if point.get("cache_dir"):
        cache = SolutionCache(point["cache_dir"])
        inputs = {k: v for k, v in point.items() if k != "cache_dir"}
        scalars, _ = cache.get_or_solve("bo_point", inputs, solve)
        return scalars
    return solve()


def _cmd_bo_scan(cfg, args, out: Path) -> None:
    if args.workers < 1:
        raise ConfigError("workers must be >= 1")
    theory, q = cfg["theory"], cfg["q"]
    if theory not in ("tf", "ks"):
        raise ConfigError("theory must be 'tf' or 'ks'")
    xc, xc_name = {"kind": "zero"}, ""
    if theory == "ks":
        if cfg["xc"] is None:
            raise ConfigError("ks scans need an 'xc' object")
        xc = dict(cfg["xc"], strict_mode=args.strict_xc)
        xc_name = make_functional(**xc).name  # validate early
    rs = sorted(cfg["R_values"])

    cache_dir = args.cache_dir or os.environ.get("FERMISURF_CACHE")
    points = [
        {"charges": cfg["charges"], "R": r, "theory": theory, "xc": xc, "q": q,
         "grid": asdict(cfg["grid"]), "cache_dir": cache_dir}
        for r in rs
    ]
    if args.workers > 1 and len(points) > 1:
        with ProcessPoolExecutor(max_workers=min(args.workers, len(points))) as pool:
            results = list(pool.map(_bo_point, points))
    else:
        results = [_bo_point(p) for p in points]

    rows = [
        [res["R_min"], theory, xc_name, q if theory == "ks" else 0.0,
         *(res[name] for name in _BO_FIELDS[1:])]
        for res in results
    ]
    path = _write(out, "bo_scan", BO_HEADER, rows)
    for res in results:
        print(f"bo-scan R={res['R_min']:g} D={res['D']:.8g}")
    print(f"bo-scan wrote {len(rows)} rows -> {path}")


def _cmd_gamma(cfg, args, out: Path) -> None:
    R = cfg["R"]
    est = gamma_limit(diatomic(*cfg["charges"], R), cfg["l_values"], cfg["grid"])
    rows = [
        [l, y, s.D, s.grid_h, s.residual]
        for l, y, s in zip(est.l_values, est.ladder, est.samples)
    ]
    summary = {"R": est.R, "value": est.value, "error": est.error,
               "model": est.model}
    path = _write(out, "gamma", "l,ladder,D,grid_h,residual", rows, summary)
    print(f"gamma R={R:g} value={est.value:.6g} +- {est.error:.3g} -> {path}")


def _cmd_screened(cfg, args, out: Path) -> None:
    config = NuclearConfiguration(cfg["positions"], cfg["charges"])
    rs = cfg["r_values"]
    # screened_compare checks the same window, but only after both solves
    if config.K >= 2 and max(rs) > config.R_min / 4.0 + 1e-12:
        raise ConfigError("r_values must be <= R_min/4 for two or more nuclei")
    xc = make_functional(**cfg["xc"], strict_mode=args.strict_xc)
    grid = cfg["grid"].build(config)
    state = scf_molecule(config, config.Z, xc, grid, q=cfg["q"])
    tf_sol = solve_tf(config, config.Z, grid)
    prof = screened_compare(config, state.rho0, tf_sol.rho, rs)
    rows = [
        [r, d, p, pt, grid.h, tf_sol.residual]
        for r, d, p, pt in zip(prof.r_values, prof.sup_diff, prof.sup_phi,
                               prof.sup_phi_tf)
    ]
    summary = None
    if prof.fit is not None:
        summary = {"exponent": prof.fit.exponent,
                   "r_squared": prof.fit.r_squared,
                   "window": list(prof.fit.window)}
    path = _write(out, "screened", "r,sup_diff,sup_phi,sup_phi_tf,grid_h,residual",
                  rows, summary)
    print(f"screened {len(rows)} radii -> {path}")


def _cmd_qij(cfg, args, out: Path) -> None:
    config = NuclearConfiguration(cfg["positions"], cfg["charges"])
    if config.K < 2:
        raise ConfigError("qij needs at least two positions")
    r = cfg["r"]
    if r > config.R_min / 2.0:
        raise ConfigError("need r <= R_min/2")
    atoms = [atomic_tf(float(z)) for z in config.charges]
    Q = qij_tf(atoms, config, r)
    grid_h = float(atoms[0].grid.nodes[1] - atoms[0].grid.nodes[0])
    resid = max(tf_residual(a.rho.values, a.phi.values, a.mu) for a in atoms)
    rows = [
        [i, j, Q[i, j], r, grid_h, resid]
        for i in range(config.K)
        for j in range(i + 1, config.K)
    ]
    path = _write(out, "qij", "i,j,Q_ij,r,grid_h,residual", rows)
    print(f"qij K={config.K} r={r:g} -> {path}")


def _cmd_minsearch(cfg, args, out: Path) -> None:
    if len(cfg["charges"]) < 2:
        raise ConfigError("minsearch needs at least two charges")
    xc = make_functional(**cfg["xc"], strict_mode=args.strict_xc)
    res = min_distance_search(cfg["charges"], xc, cfg["grid"], q=cfg["q"],
                              restarts=cfg["restarts"], maxiter=cfg["maxiter"],
                              seed=cfg["seed"])
    rows = [[res.R_M, res.E_mol, int(res.converged), res.n_evals,
             cfg["grid"].spacing, 0.0]]
    summary = {"R_M": res.R_M, "E_mol": res.E_mol, "converged": res.converged,
               "positions": res.config.positions.tolist(),
               "charges": res.config.charges.tolist()}
    path = _write(out, "minsearch", "R_M,E_mol,converged,n_evals,grid_h,residual",
                  rows, summary)
    print(f"minsearch R_M={res.R_M:.6g} E={res.E_mol:.8g} "
          f"converged={res.converged} -> {path}")


_FLAGS = {
    "--cache": dict(dest="cache_dir", default=None,
                    help="cache directory (default: FERMISURF_CACHE or none)"),
    "--workers": dict(type=int, default=1,
                      help="worker processes for scan points"),
    "--strict-xc": dict(action="store_true",
                        help="enforce the strict admissibility class on xc"),
}

_NUCLEI = {"positions": (_positions, REQUIRED), "charges": (_positives, REQUIRED)}

# name: (handler, config spec {key: (converter, default or REQUIRED)},
# optional flags it reads)
_COMMANDS = {
    "tf-atom": (_cmd_tf_atom, {"z": (_positive, REQUIRED), "fit_window": (_window, None)}, ()),
    "tf-molecule": (_cmd_tf_molecule, {
        **_NUCLEI, "n": (_positive, None), "grid": (_grid, REQUIRED),
    }, ()),
    "ks-atom": (_cmd_ks_atom, {
        "z": (_positive, REQUIRED), "n": (_nonnegative, None), "xc": (_xc, REQUIRED),
        "q": (_positive, 2.0), "tol": (_positive, 1e-6),
    }, ("--strict-xc",)),
    "ks-molecule": (_cmd_ks_molecule, {
        **_NUCLEI, "n": (_positive, None), "xc": (_xc, REQUIRED), "q": (_positive, 2.0),
        "grid": (_grid, REQUIRED), "tol": (_positive, 1e-6),
    }, ("--strict-xc",)),
    "bo-scan": (_cmd_bo_scan, {
        "charges": (_charge_pair, REQUIRED), "R_values": (_positives, REQUIRED),
        "theory": (str, "tf"), "xc": (_xc, None), "q": (_positive, 2.0),
        "grid": (_grid, REQUIRED),
    }, ("--cache", "--workers", "--strict-xc")),
    "gamma": (_cmd_gamma, {
        "charges": (_charge_pair, REQUIRED), "R": (_positive, 1.0),
        "l_values": (_floats, REQUIRED), "grid": (_grid, REQUIRED),
    }, ()),
    "screened": (_cmd_screened, {
        **_NUCLEI, "r_values": (_positives, REQUIRED), "xc": (_xc, REQUIRED),
        "q": (_positive, 2.0), "grid": (_grid, REQUIRED),
    }, ("--strict-xc",)),
    "qij": (_cmd_qij, {**_NUCLEI, "r": (_positive, REQUIRED)}, ()),
    "minsearch": (_cmd_minsearch, {
        "charges": (_positives, REQUIRED), "xc": (_xc, REQUIRED), "q": (_positive, 2.0),
        "grid": (_grid, REQUIRED), "restarts": (_at_least(1), 3),
        "maxiter": (_at_least(1), 60), "seed": (_at_least(0), 3),
    }, ("--strict-xc",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermisurf",
        description="Thomas-Fermi / Kohn-Sham LDA molecular solver suite",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="path to the JSON run configuration")
        p.add_argument("--out", default=".", help="output directory")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, spec, _ = _COMMANDS[args.command]
    try:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        handler(_fields(raw, spec, "config"), args, Path(args.out))
        return 0
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
