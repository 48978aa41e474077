import json

import pytest

from fermisurf.cli import BO_HEADER, main
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
    def test_selfcheck_passes(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out

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

    def test_ks_scan_rejects_richardson_levels(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path / "ks.json",
            {"charges": [1.0, 1.0], "R_values": [1.4], "theory": "ks",
             "xc": {"kind": "lda_exchange"},
             "grid": {"spacing": 0.5, "levels": 2}},
        )
        assert main(["bo-scan", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "levels" in err["message"]

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

    def test_parallel_workers_match_serial(self, bo_config, tmp_path):
        out1, out2 = tmp_path / "serial", tmp_path / "par"
        assert main(["bo-scan", "--config", bo_config, "--out", str(out1)]) == 0
        assert main(["bo-scan", "--config", bo_config, "--out", str(out2),
                     "--workers", "2"]) == 0
        assert (out1 / "bo_scan.csv").read_bytes() == \
            (out2 / "bo_scan.csv").read_bytes()

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
