"""Fuzzed configs against the CLI's config boundary.

Every subcommand's config is drawn from its spec, with numbers outside
each key's domain, wrong types and bad nested objects mixed in. The solver
entry points are replaced by stubs that assert their inputs are in domain,
so a config either stops at the boundary as a config error that names a
key or reaches a solver with inputs it accepts. A run may end only in exit
0, exit 2 naming a key, or exit 3 from a solver error, a fit error or a
non-monotone Gamma ladder; an uncaught exception fails the test.
"""

import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fermisurf.bo as bo
import fermisurf.cli as cli
from fermisurf.cli import REQUIRED, _COMMANDS, _GRID, _XC, main
from fermisurf.fitting import FitError
from fermisurf.grids import Grid3D, SolverError
from fermisurf.tf_molecule import ConvergenceError, NuclearConfiguration, check_grid_margin

IN_DOMAIN = [0.3, 0.5, 1.0, 1.4, 2.0, 6.0]
OUT_OF_DOMAIN = [0.0, -0.5, math.nan, math.inf, -math.inf]
JUNK = ["x", None, [], {}]


def _mostly(good, bad):
    """good nine times in ten, bad otherwise."""
    return st.sampled_from([False] * 9 + [True]).flatmap(lambda b: bad if b else good)


_number = _mostly(st.sampled_from(IN_DOMAIN), st.sampled_from(OUT_OF_DOMAIN))
_value = _mostly(_number, st.sampled_from(JUNK))
_integer = _mostly(st.sampled_from([1, 2, 3, 2.0]),
                   st.sampled_from([0, -1, 1.5, math.nan, math.inf, "2", None]))


def _list(item, length):
    """A list of `length` items, or of another length, or not a list."""
    return _mostly(st.lists(item, min_size=length, max_size=length),
                   st.one_of(st.lists(item, max_size=4), st.sampled_from(JUNK)))


_spacing = _mostly(st.sampled_from([0.5, 1.0, 2.0, 6.0]), _value)
_grid = _mostly(st.fixed_dictionaries(
    {"spacing": _spacing},
    optional={"margin_factor": _mostly(st.sampled_from([6.0, 8.0]), _value)},
), st.sampled_from(JUNK))
_xc = _mostly(st.fixed_dictionaries(
    {"kind": _mostly(st.sampled_from(["lda_exchange", "zero"]), st.sampled_from(["bogus", 3]))},
    optional={"c": _value, "beta": _value},
), st.sampled_from(JUNK))


def _strategy(key, k):
    """Values of config key `key`, for k nuclei."""
    if key == "positions":
        return _list(_list(_number, 3), k)
    if key == "charges":
        return _list(_number, k)
    if key in ("R_values", "r_values", "fit_window"):
        return _list(_number, 2)
    if key == "l_values":  # distinct numbers nine times in ten
        return _mostly(st.lists(st.sampled_from(IN_DOMAIN), min_size=3, max_size=3,
                                unique=True), _list(_number, 3))
    if key in ("restarts", "maxiter", "seed"):
        return _integer
    return {"grid": _grid, "xc": _xc,
            "theory": st.sampled_from(["tf", "ks", "ks", "dft"])}.get(key, _value)


@st.composite
def _config(draw, command):
    """A config of `command`: every required key and some optional ones."""
    _, spec, _ = _COMMANDS[command]
    k = 2 if command in ("bo-scan", "gamma") else draw(st.integers(1, 3))
    return {key: draw(_strategy(key, k)) for key, (_, default) in spec.items()
            if default is REQUIRED or draw(st.booleans())}


def _positive(*values):
    return all(isinstance(v, (int, float)) and 0.0 < v < math.inf for v in values)


def _solver_stubs(failure):
    """Entry points that assert their inputs, then raise failure[0] or return."""

    def done(result):
        if isinstance(failure[0], Exception):
            raise failure[0]
        return result

    def on_grid(config, grid):
        assert isinstance(config, NuclearConfiguration) and isinstance(grid, Grid3D)
        check_grid_margin(grid, config)

    def solve_tf(config, n, grid):
        assert _positive(n)
        on_grid(config, grid)
        return done(SimpleNamespace(energy=-1.0, mu=0.0, residual=0.0, rho=None))

    def scf_atom(z, n, xc, q, tol):
        assert _positive(z, q, tol) and 0.0 <= n <= z
        grid = SimpleNamespace(nodes=np.array([0.0, 0.1]))
        energy = dict.fromkeys(["total", "kinetic", "external", "hartree", "xc"], -1.0)
        return done(SimpleNamespace(scf_history=(1e-7,), rho0=SimpleNamespace(grid=grid),
                                    q=q, energy=energy))

    def scf_molecule(config, n, xc, grid, q, tol=1e-6):
        assert _positive(n, q, tol) and n <= config.Z + 1e-12
        on_grid(config, grid)
        return done(SimpleNamespace(scf_history=(1e-7,), rho0=None, q=q,
                                    energy={"total": -1.0}))

    def bo_point(config, policy, q=None):
        # both BO entry points build the molecule's box first; D = U_R makes
        # l^7 D grow along a Gamma ladder, and D = -U_R makes it fall
        assert config.K == 2 and (q is None or _positive(q))
        on_grid(config, policy.build(config))
        D = -config.U_R if failure[0] == "ladder" else config.U_R
        return done(SimpleNamespace(R_min=config.R_min, D=D, grid_h=policy.spacing,
                                    residual=0.0, E_mol=-1.0, E_atoms=-1.0, U_R=config.U_R))

    def screened_compare(config, rho_ks, rho_tf, rs):
        assert rs and all(_positive(r) for r in rs)
        assert config.K == 1 or max(rs) <= config.R_min / 4.0 + 1e-12
        zeros = [0.0] * len(rs)
        return done(SimpleNamespace(r_values=rs, sup_diff=zeros, sup_phi=zeros,
                                    sup_phi_tf=zeros, fit=None))

    def min_distance_search(charges, xc, policy, q, restarts, maxiter, seed):
        assert len(charges) >= 2 and _positive(*charges, q)
        assert all(type(v) is int for v in (restarts, maxiter, seed))
        assert restarts >= 1 and maxiter >= 1 and seed >= 0
        config = NuclearConfiguration([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], charges[:2])
        return done(SimpleNamespace(R_M=1.0, E_mol=-1.0, converged=True, n_evals=1,
                                    config=config))

    return {
        "solve_tf": solve_tf, "scf_atom": scf_atom, "scf_molecule": scf_molecule,
        "bo_tf": bo_point, "bo_ks": lambda config, xc, policy, q: bo_point(config, policy, q),
        "screened_compare": screened_compare, "min_distance_search": min_distance_search,
    }


def _solver_error_names():
    names, todo = set(), [SolverError]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return names | {FitError.__name__}


FAILURES = [None] * 4 + [ConvergenceError("stub did not converge", [0.1]),
                         FitError("stub fit failed")]


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_fuzzed_configs_exit_cleanly(command, tmp_path, capsys, monkeypatch):
    failure = [None]
    stubs = _solver_stubs(failure)
    for name, stub in stubs.items():
        monkeypatch.setattr(cli, name, stub)
    monkeypatch.setattr(bo, "bo_tf", stubs["bo_tf"])  # gamma_limit's solves
    monkeypatch.delenv("FERMISURF_CACHE", raising=False)
    keys = set(_COMMANDS[command][1]) | set(_GRID) | set(_XC)
    solver_errors = _solver_error_names()
    path = tmp_path / "c.json"
    failures = FAILURES + (["ladder"] if command == "gamma" else [])

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(payload=_config(command), fail=st.sampled_from(failures))
    def run(payload, fail):
        failure[0] = fail
        path.write_text(json.dumps(payload))
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        if code == 0:
            return
        report = json.loads(err)
        message = report["message"]
        if code == 2:
            assert report["error"] == "config"
            assert any(re.search(rf"\b{re.escape(k)}\b", message, re.IGNORECASE)
                       for k in keys), message
        else:
            assert code == 3 and report["error"] == "solver", (code, message)
            ladder = report["type"] == "ArithmeticError" and "non-monotone" in message
            assert ladder or report["type"] in solver_errors, report

    run()
