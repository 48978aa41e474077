"""`import fermisurf`, the CLI module and the universal profile need only numpy.

scipy loads on the first call that uses it (`scf_atom`, `min_distance_search`,
`gamma_limit`, `cache_key`), so every CLI run starts without it. A fresh
interpreter checks this, because the test session has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import fermisurf


def test_profile_setup_loads_no_scipy_subpackage():
    # top-level scipy too: any subpackage import would load it
    src = str(Path(fermisurf.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import json, sys, fermisurf.cli; fermisurf.universal_profile(); "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == []
