import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from fermisurf.cli import BO_HEADER, REQUIRED, _BO_FIELDS, _COMMANDS, _GRID, _XC, main
from fermisurf.eig import EigenError
from fermisurf.grids import SolverError
from fermisurf.ks_common import SCFError
from fermisurf.poisson import PoissonError
from fermisurf.tf_atom import ShootingError, universal_profile
from fermisurf.tf_molecule import ConvergenceError


def _write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def bo_config(tmp_path):
    return _write_config(
        tmp_path / "bo.json",
        {
            "charges": [1.0, 1.0],
            "R_values": [1.0, 1.5],
            "theory": "tf",
            "grid": {"spacing": 0.5},
        },
    )


class TestExitCodes:
    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "c.json", {"z": 1.0, "bogus": 1})
        assert main(["tf-atom", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "bogus" in err["message"]

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "c.json", {})
        assert main(["tf-atom", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unreadable_config(self, tmp_path):
        assert main(["tf-atom", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path)]) == 2

    def test_bad_grid_policy(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path / "c.json",
            {"positions": [[0, 0, 0]], "charges": [1.0],
             "grid": {"spacing": 0.5, "margin_factor": 2.0}},
        )
        assert main(["tf-molecule", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_solver_error_exit_code(self, tmp_path, capsys):
        # a fit window holding < 4 grid points cannot be fit
        cfg = _write_config(
            tmp_path / "c.json", {"z": 1.0, "fit_window": [10.0, 10.001]}
        )
        assert main(["tf-atom", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "solver"
        assert err["type"] == "FitError"

    def test_grid_levels_is_an_unknown_key(self, tmp_path, capsys):
        # keys that were deleted: grid.levels, screened.eps and ks-atom's
        # lmax and per_ell, which the radial basis now sizes itself
        ks_atom = {"z": 1.0, "xc": {"kind": "lda_exchange"}}
        cases = [
            ("ks-atom", {**ks_atom, "lmax": 3}, "unknown config keys", "lmax"),
            ("ks-atom", {**ks_atom, "per_ell": 5}, "unknown config keys", "per_ell"),
            ("bo-scan", {"charges": [1.0, 1.0], "R_values": [1.4], "theory": "ks",
                         "xc": {"kind": "lda_exchange"},
                         "grid": {"spacing": 0.5, "levels": 2}},
             "unknown grid keys", "levels"),
            ("screened", {"positions": [[0, 0, 0]], "charges": [1.0],
                          "r_values": [0.5], "xc": {"kind": "lda_exchange"},
                          "grid": {"spacing": 0.5}, "eps": 0.5},
             "unknown config keys", "eps"),
        ]
        for command, payload, what, key in cases:
            cfg = _write_config(tmp_path / f"{command}.json", payload)
            assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "config"
            assert what in err["message"] and key in err["message"]

    def test_solver_error_reports_history_tail(self, tmp_path, capsys,
                                               monkeypatch):
        history = [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625]

        def stall(*args, **kwargs):
            raise ConvergenceError("TF mixing stalled", history)

        monkeypatch.setattr("fermisurf.cli.solve_tf", stall)
        cfg = _write_config(
            tmp_path / "c.json",
            {"positions": [[0, 0, 0]], "charges": [1.0], "grid": {"spacing": 0.5}},
        )
        assert main(["tf-molecule", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "ConvergenceError"
        assert err["history"] == history[-5:]

    def test_eigensolver_error_reports_history_tail(self, tmp_path, capsys,
                                                    monkeypatch):
        # a guard allowed one LOBPCG iteration cannot settle from its
        # random start, so the first SCF step raises EigenError
        monkeypatch.setattr("fermisurf.eig.GUARD_MAXITER", 1)
        cfg = _write_config(
            tmp_path / "c.json",
            {"positions": [[0, 0, 0]], "charges": [1.0],
             "xc": {"kind": "lda_exchange"}, "grid": {"spacing": 0.5}},
        )
        assert main(["ks-molecule", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "EigenError"
        assert "guard" in err["message"]
        assert 1 <= len(err["history"]) <= 5
        assert all(v > 0.0 for v in err["history"])

    def test_shooting_error_reports_history_tail(self, tmp_path, capsys,
                                                 monkeypatch):
        # the first residual is 1.3e-5, mostly TAIL_GUESS's 1.1e-3 error in
        # c; one match iterate cannot bring it down to the noise floor
        monkeypatch.setattr("fermisurf.tf_atom.MATCH_MAXITER", 1)
        universal_profile.cache_clear()
        cfg = _write_config(tmp_path / "c.json", {"z": 1.0})
        assert main(["tf-atom", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "ShootingError"
        assert 1 <= len(err["history"]) <= 5
        assert all(v > 0.0 for v in err["history"])

    def test_poisson_error_reports_its_residual(self, tmp_path, capsys,
                                                monkeypatch):
        # a negative tolerance fails the check of the first Poisson solve
        monkeypatch.setattr("fermisurf.poisson.CHECK_TOL", -1.0)
        cfg = _write_config(
            tmp_path / "c.json",
            {"positions": [[0, 0, 0]], "charges": [1.0], "grid": {"spacing": 0.5}},
        )
        assert main(["tf-molecule", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "PoissonError"
        assert "final residual" in err["message"]
        assert len(err["history"]) == 1 and err["history"][0] > 0.0

    @pytest.mark.parametrize("error", [ConvergenceError, SCFError, EigenError,
                                       ShootingError, PoissonError])
    def test_solver_errors_share_one_base(self, error):
        exc = error("failed", [np.float64(0.5), 1])
        assert isinstance(exc, SolverError)
        assert exc.history == [0.5, 1.0]
        assert all(type(v) is float for v in exc.history)

    @pytest.mark.parametrize("command, change, field", [
        ("tf-molecule", {"positions": [[math.inf, 0, 0]]}, "positions"),
        ("tf-molecule", {"positions": [[math.nan, 0, 0]]}, "positions"),
        ("tf-molecule", {"charges": [math.nan]}, "charges"),
        ("tf-molecule", {"grid": {"spacing": math.inf}}, "spacing"),
        ("tf-molecule", {"grid": {"spacing": 0.5, "margin_factor": math.inf}},
         "margin_factor"),
        ("bo-scan", {"R_values": [math.inf]}, "R_values"),
    ])
    def test_non_finite_input_is_a_config_error(self, command, change, field,
                                                tmp_path, capsys):
        # JSON's Infinity and NaN parse to floats; each is refused up front
        # with the field's name, not by a failed cast deep in a solve
        base = {
            "tf-molecule": {"positions": [[0, 0, 0]], "charges": [1.0],
                            "grid": {"spacing": 0.5}},
            "bo-scan": {"charges": [1.0, 1.0], "R_values": [1.4],
                        "grid": {"spacing": 0.5}},
        }[command]
        cfg = _write_config(tmp_path / "c.json", {**base, **change})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert field in err["message"]

    @pytest.mark.parametrize("charges, spacing", [
        ([1.0, 1.0], 12.0), ([6.0, 6.0], 6.0), ([1.0, 1.0], 50.0), ([6.0, 6.0], 50.0),
    ])
    def test_spacing_coarser_than_the_margin_is_a_config_error(self, charges, spacing,
                                                               tmp_path, capsys):
        # margins 6 and 3.30: with no interior node in the margin band the
        # (1, 1) box ended in a TF-mixing error and the (6, 6) one in
        # overflow warnings
        cfg = _write_config(tmp_path / "c.json", {
            "positions": [[-0.7, 0, 0], [0.7, 0, 0]], "charges": charges,
            "grid": {"spacing": spacing}})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["tf-molecule", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "spacing" in err["message"]

    @pytest.mark.parametrize("command, change, key", [
        ("tf-atom", {"z": math.nan}, "z"),
        ("tf-atom", {"z": math.inf}, "z"),
        ("ks-atom", {"n": math.nan}, "n"),
        ("tf-molecule", {"n": math.nan}, "n"),
        ("ks-molecule", {"q": 0.0}, "q"),
        ("ks-molecule", {"q": math.nan}, "q"),
        ("ks-molecule", {"n": math.nan}, "n"),
    ])
    def test_bad_physical_input_is_a_config_error(self, command, change, key,
                                                  tmp_path, capsys):
        # each solver names its parameter; its N is the config's n, so the
        # key is matched regardless of case
        xc = {"kind": "lda_exchange"}
        base = {
            "tf-atom": {"z": 1.0},
            "ks-atom": {"z": 1.0, "xc": xc},
            "tf-molecule": {"positions": [[0, 0, 0]], "charges": [1.0],
                            "grid": {"spacing": 0.5}},
            "ks-molecule": {"positions": [[0, 0, 0]], "charges": [1.0],
                            "xc": xc, "grid": {"spacing": 0.5}},
        }[command]
        cfg = _write_config(tmp_path / "c.json", {**base, **change})
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert re.search(rf"\b{key}\b", err["message"], re.IGNORECASE)

    @pytest.mark.parametrize("l_values", [
        [-1.0, 2.0, 3.0], [0.0, 1.3, 1.6], [1.0, 1.3, math.nan], [1.0, 1.3, math.inf],
        [1.0, 1.0, 1.0], [1.0, 1.3, 1.3],
    ])
    def test_gamma_l_values_domain(self, l_values, tmp_path, capsys):
        # a non-positive l raised a TypeError (a complex power) and repeated
        # ones a ZeroDivisionError in the ladder extrapolation, after the solves
        cfg = _write_config(tmp_path / "c.json", {
            "charges": [1.0, 1.0], "l_values": l_values, "grid": {"spacing": 0.5}})
        assert main(["gamma", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "l_values" in err["message"]

    def test_workers_must_be_positive(self, bo_config, tmp_path):
        assert main(["bo-scan", "--config", bo_config,
                     "--out", str(tmp_path), "--workers", "0"]) == 2


class TestOutputs:
    def test_tf_atom_writes_csv(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "c.json", {"z": 1.0})
        assert main(["tf-atom", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "tf_atom.csv").read_text().splitlines()
        assert lines[0] == "z,energy,e_tf,mu,tail_exponent,tail_r2,grid_h,residual"
        fields = lines[1].split(",")
        assert float(fields[2]) == pytest.approx(0.768441, abs=5e-4)
        # far-field slope drifts toward -4 from above (correction ~ r^-0.77)
        assert -4.0 < float(fields[4]) < -3.2
        assert float(fields[5]) > 0.99

    def test_bo_scan_reruns_byte_identical(self, bo_config, tmp_path):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["bo-scan", "--config", bo_config, "--out", str(out1)]) == 0
        assert main(["bo-scan", "--config", bo_config, "--out", str(out2)]) == 0
        b1 = (out1 / "bo_scan.csv").read_bytes()
        b2 = (out2 / "bo_scan.csv").read_bytes()
        assert b1 == b2
        assert b1.decode().splitlines()[0] == BO_HEADER

    def test_bo_scan_cache_hit_gives_same_csv(self, bo_config, tmp_path,
                                              monkeypatch):
        cache = tmp_path / "cache"
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["bo-scan", "--config", bo_config, "--cache", str(cache)]
        assert main(args + ["--out", str(out1)]) == 0
        n_entries = len(list(cache.rglob("*.json")))
        assert n_entries == 2  # one per scan point
        import fermisurf.bo as bo

        def boom(*a, **kw):
            raise AssertionError("solver called despite warm cache")

        monkeypatch.setattr("fermisurf.cli.bo_tf", boom)
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "bo_scan.csv").read_bytes() == \
            (out2 / "bo_scan.csv").read_bytes()

    def test_bo_scan_reads_the_cache_directory_from_the_env_var(self, bo_config,
                                                                tmp_path, monkeypatch):
        cache = tmp_path / "envcache"
        monkeypatch.setenv("FERMISURF_CACHE", str(cache))
        assert main(["bo-scan", "--config", bo_config, "--out", str(tmp_path)]) == 0
        assert len(list(cache.rglob("*.json"))) == 2  # one per scan point

    def test_parallel_workers_match_serial(self, bo_config, tmp_path):
        out1, out2 = tmp_path / "serial", tmp_path / "par"
        assert main(["bo-scan", "--config", bo_config, "--out", str(out1)]) == 0
        assert main(["bo-scan", "--config", bo_config, "--out", str(out2),
                     "--workers", "2"]) == 0
        assert (out1 / "bo_scan.csv").read_bytes() == \
            (out2 / "bo_scan.csv").read_bytes()

    def test_worker_pool_is_no_larger_than_the_scan(self, bo_config, tmp_path,
                                                     monkeypatch):
        # fork starts every worker at the first submit, so --workers 3 on this
        # two-point scan had forked a third process with nothing to do
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("fermisurf.cli.ProcessPoolExecutor", Pool)
        monkeypatch.setattr("fermisurf.cli._bo_point",
                            lambda point: dict.fromkeys(_BO_FIELDS, point["R"]))
        assert main(["bo-scan", "--config", bo_config, "--out", str(tmp_path),
                     "--workers", "3"]) == 0
        assert sizes == [2]

    def test_qij_csv(self, tmp_path):
        cfg = _write_config(
            tmp_path / "c.json",
            {"positions": [[0, 0, 0], [2.0, 0, 0]], "charges": [1.0, 2.0],
             "r": 0.5},
        )
        assert main(["qij", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "qij.csv").read_text().splitlines()
        assert lines[0] == "i,j,Q_ij,r,grid_h,residual"
        q = float(lines[1].split(",")[2])
        assert 0.0 < q < 1.0  # partially screened repulsion, below z1 z2 / d

    def test_ks_atom_csv(self, tmp_path):
        cfg = _write_config(
            tmp_path / "c.json",
            {"z": 2.0, "xc": {"kind": "lda_exchange"}},
        )
        assert main(["ks-atom", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "ks_atom.csv").read_text().splitlines()
        total = float(lines[1].split(",")[4])
        assert total == pytest.approx(-2.7233, abs=5e-3)


# one valid value per config key, and one of the wrong JSON type; a new
# subcommand's required keys must be added here to be covered
_VALID = {
    "z": 1.0, "charges": [1.0, 1.0], "positions": [[0, 0, 0], [1.4, 0, 0]],
    "grid": {"spacing": 0.5}, "xc": {"kind": "lda_exchange"}, "R_values": [1.4],
    "l_values": [1.0, 1.3, 1.6], "r_values": [0.3], "r": 0.5,
}
_WRONG = {
    "z": [1.0], "charges": 1.0, "positions": 1.0, "grid": 0.5,
    "xc": "lda_exchange", "R_values": 1.0, "l_values": 1.0, "r_values": 0.3,
    "r": [0.5],
}
_SPECS = {name: spec for name, (_, spec, _) in _COMMANDS.items()}


def _required(spec):
    return [key for key, (_, default) in spec.items() if default is REQUIRED]


def _rejected(command, payload, tmp_path, capsys, monkeypatch):
    """Run `command` on `payload` with a handler that must not be reached."""

    def unreachable(*args):
        raise AssertionError("handler ran on an invalid config")

    _, spec, flags = _COMMANDS[command]
    monkeypatch.setitem(_COMMANDS, command, (unreachable, spec, flags))
    cfg = _write_config(tmp_path / "c.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    return err["message"]


class TestConfigSpecs:
    @pytest.mark.parametrize("command", sorted(_SPECS))
    def test_unknown_key(self, command, tmp_path, capsys, monkeypatch):
        payload = {key: _VALID[key] for key in _required(_SPECS[command])}
        payload["bogus"] = 1
        message = _rejected(command, payload, tmp_path, capsys, monkeypatch)
        assert "unknown config keys" in message and "bogus" in message

    @pytest.mark.parametrize("command,key", [
        (command, key) for command in sorted(_SPECS)
        for key in _required(_SPECS[command])
    ])
    def test_wrongly_typed_required_value(self, command, key, tmp_path, capsys,
                                          monkeypatch):
        payload = {k: _VALID[k] for k in _required(_SPECS[command])}
        payload[key] = _WRONG[key]
        message = _rejected(command, payload, tmp_path, capsys, monkeypatch)
        assert repr(key) in message

    @pytest.mark.parametrize("window", [[5.0, 50.0, 80.0], [5.0], 5.0])
    def test_fit_window_takes_exactly_two_numbers(self, window, tmp_path, capsys,
                                                  monkeypatch):
        payload = {"z": 1.0, "fit_window": window}
        message = _rejected("tf-atom", payload, tmp_path, capsys, monkeypatch)
        assert "'fit_window'" in message

    @pytest.mark.parametrize("window", [[50.0, 5.0], [0.0, 5.0], [-1.0, 5.0]])
    def test_fit_window_must_be_ordered_and_positive(self, window, tmp_path, capsys,
                                                     monkeypatch):
        payload = {"z": 1.0, "fit_window": window}
        message = _rejected("tf-atom", payload, tmp_path, capsys, monkeypatch)
        assert "'fit_window'" in message

    @pytest.mark.parametrize("r_values", [[0.3, 1.0], [0.0, 0.3], []])
    def test_screened_radii_checked_before_the_scf(self, r_values, tmp_path, capsys,
                                                   monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("SCF ran on invalid screening radii")

        monkeypatch.setattr("fermisurf.cli.scf_molecule", unreachable)
        payload = {key: _VALID[key] for key in _required(_SPECS["screened"])}
        payload["r_values"] = r_values  # R_min = 1.4 allows r <= 0.35
        cfg = _write_config(tmp_path / "c.json", payload)
        assert main(["screened", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "r_values" in err["message"]

    @pytest.mark.parametrize("command, key, value", [
        ("ks-atom", "tol", 0.0),
        ("ks-atom", "tol", -1.0),
        ("ks-atom", "tol", math.inf),
        ("ks-atom", "tol", math.nan),
        ("ks-molecule", "tol", 0.0),
        ("ks-molecule", "tol", -1e-6),
        ("ks-molecule", "tol", math.inf),
    ])
    def test_value_outside_its_domain_names_the_key(self, command, key, value,
                                                    tmp_path, capsys, monkeypatch):
        # tol = 0 had exited 3 after 200 SCF steps
        payload = {k: _VALID[k] for k in _required(_SPECS[command])}
        payload[key] = value
        message = _rejected(command, payload, tmp_path, capsys, monkeypatch)
        assert repr(key) in message

    @pytest.mark.parametrize("command, key", [
        ("minsearch", "restarts"), ("minsearch", "maxiter"), ("minsearch", "seed"),
    ])
    def test_integer_keys_take_integral_numbers_only(self, command, key, tmp_path,
                                                     capsys, monkeypatch):
        # int() had truncated 1.5 to 1, so restarts = 1.5 ran one restart
        payload = {k: _VALID[k] for k in _required(_SPECS[command])}
        for bad in (1.5, 2.000001, math.inf):
            payload[key] = bad
            message = _rejected(command, payload, tmp_path, capsys, monkeypatch)
            assert repr(key) in message
        seen = []
        _, spec, flags = _COMMANDS[command]
        monkeypatch.setitem(_COMMANDS, command,
                            (lambda cfg, *args: seen.append(cfg[key]), spec, flags))
        for good in (2, 2.0, 12345678901234567891):
            payload[key] = good
            cfg = _write_config(tmp_path / "c.json", payload)
            assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
        assert seen == [2, 2, 12345678901234567891]
        assert all(type(v) is int for v in seen)

    def test_nested_grid_value_names_the_key(self, tmp_path, capsys, monkeypatch):
        payload = {"charges": [1.0, 1.0], "R_values": [1.4],
                   "grid": {"spacing": "fine"}}
        message = _rejected("bo-scan", payload, tmp_path, capsys, monkeypatch)
        assert "'grid'" in message and "'spacing'" in message


def _run(command, payload, tmp_path):
    cfg = _write_config(tmp_path / "c.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0


class TestOutputSchemas:
    pair = {"positions": [[0, 0, 0], [1.4, 0, 0]], "charges": [1.0, 1.0],
            "grid": {"spacing": 0.5}}

    def test_tf_molecule(self, tmp_path):
        _run("tf-molecule", self.pair, tmp_path)
        lines = (tmp_path / "tf_molecule.csv").read_text().splitlines()
        assert lines[0] == "R_min,n,energy,mu,grid_h,residual,U_R"
        assert len(lines) == 2

    def test_ks_molecule(self, tmp_path):
        _run("ks-molecule", {**self.pair, "xc": {"kind": "lda_exchange"}}, tmp_path)
        lines = (tmp_path / "ks_molecule.csv").read_text().splitlines()
        assert lines[0] == "R_min,n,xc,q,E_elec,E_total,grid_h,residual,U_R"
        assert len(lines) == 2

    def test_gamma(self, tmp_path):
        _run("gamma", {"charges": [1.0, 1.0], "l_values": [1.0, 1.3, 1.6],
                       "grid": {"spacing": 0.5}}, tmp_path)
        lines = (tmp_path / "gamma.csv").read_text().splitlines()
        assert lines[0] == "l,ladder,D,grid_h,residual"
        assert len(lines) == 4
        summary = json.loads((tmp_path / "gamma.json").read_text())
        assert set(summary) == {"R", "value", "error", "model"}

    def test_screened(self, tmp_path):
        _run("screened", {"positions": [[0, 0, 0]], "charges": [1.0],
                          "r_values": [0.5, 1.0, 1.5, 2.0],
                          "xc": {"kind": "lda_exchange"},
                          "grid": {"spacing": 0.5}}, tmp_path)
        lines = (tmp_path / "screened.csv").read_text().splitlines()
        assert lines[0] == "r,sup_diff,sup_phi,sup_phi_tf,grid_h,residual"
        assert len(lines) == 5


def _backticked(text):
    return set(re.findall(r"`([^`]+)`", text))


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for command, spec in _SPECS.items():
        entry = re.search(rf"^- `{command}`: (.*?)(?=^- |^$)", readme, re.M | re.S)
        assert entry is not None, command
        # every spec key is listed, and every bare identifier listed is a key
        named = {k for k in _backticked(entry.group(1)) if k.isidentifier()}
        assert named == set(spec), command
    # the nested objects list exactly their keys (the xc line also names
    # the functional kinds)
    grid = re.search(r"^- the `grid` object: (.*?)(?=^- |^$)", readme, re.M | re.S)
    assert grid is not None
    assert _backticked(grid.group(1)) == set(_GRID)
    xc = re.search(r"^- the `xc` object: (.*?)(?=^- |^$)", readme, re.M | re.S)
    assert xc is not None
    kinds = re.search(r"\((.*?)\)", xc.group(1), re.S).group(1)
    assert _backticked(xc.group(1)) - _backticked(kinds) == set(_XC)
    subcommands = re.search(r"^Subcommands: (.*?)\.$", readme, re.M | re.S)
    assert subcommands is not None
    assert re.findall(r"`([^`]+)`", subcommands.group(1)) == list(_COMMANDS)
