"""`import fermisurf`, the CLI module and the universal profile need only numpy.

scipy loads on the first call that uses it (`scf_atom`, `min_distance_search`,
`gamma_limit`), so every CLI run starts without it. A fresh interpreter checks
this, because the test session has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import fermisurf


def _scipy_modules_after(code: str) -> list:
    """scipy modules loaded once `code` has run in a fresh interpreter."""
    # top-level scipy too: any subpackage import would load it
    src = str(Path(fermisurf.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code += (
        "; import json, sys; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_profile_setup_loads_no_scipy_subpackage():
    assert _scipy_modules_after("import fermisurf.cli; fermisurf.universal_profile()") == []


def test_cached_bo_point_loads_no_scipy(tmp_path):
    # the cache key leaves out scipy's version because no BO point uses
    # scipy; a change that brings scipy into one, such as a KS start from
    # radial atoms, must put it back in the key
    for theory, extra in (("tf", {}), ("ks", {"xc": {"kind": "lda_exchange"}})):
        cfg, out = tmp_path / f"{theory}.json", tmp_path / theory
        cfg.write_text(json.dumps({"charges": [1.0, 1.0], "R_values": [1.4],
                                   "theory": theory, "grid": {"spacing": 0.5}, **extra}))
        argv = ["bo-scan", "--config", str(cfg), "--out", str(out),
                "--cache", str(out / "cache")]
        code = f"import fermisurf.cli; assert fermisurf.cli.main({argv!r}) == 0"
        assert _scipy_modules_after(code) == [], theory
        assert list((out / "cache").rglob("*.json")), theory
