"""`import fermisurf` and the universal profile need only numpy.

scipy loads on the first call that uses it (`scf_atom`, `min_distance_search`,
`gamma_limit`), so every CLI run and benchmark process starts without it. A
fresh interpreter checks this, because the test session has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import fermisurf

HEAVY = ("scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.special", "scipy.sparse")


def test_profile_setup_loads_no_scipy_subpackage():
    src = str(Path(fermisurf.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import json, sys, fermisurf; fermisurf.universal_profile(); "
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == []
