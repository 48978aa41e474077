"""Content-addressed on-disk result cache.

Keys are SHA-256 hashes of the solver id, the canonical JSON of the numeric
inputs and a fingerprint of the numerics: a SHA-256 of the package's .py
sources (computed once per process), the numpy and scipy versions, and the
BLAS/OpenMP thread variables, whose values move D in its last digits. Any
change to the code or the libraries therefore misses instead of serving a
stale result. Each entry is one JSON file of scalars with their digest;
writes go through a temp file and atomic rename so concurrent identical
runs leave one valid entry. Scalars whose recorded digest no longer
matches are treated as a miss with a warning.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import scipy

ENV_VAR = "FERMISURF_CACHE"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "fermisurf"


def canonical_json(obj) -> str:
    """Deterministic JSON used both for hashing and sidecar storage."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


@functools.cache
def source_fingerprint() -> str:
    """SHA-256 over the names and bytes of the package's .py files."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cache_key(solver_id: str, inputs) -> str:
    numerics = {
        "sources": source_fingerprint(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    payload = canonical_json(
        {"solver": solver_id, "numerics": numerics, "inputs": inputs}
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _digest(scalars) -> str:
    return hashlib.sha256(canonical_json(scalars).encode()).hexdigest()


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class SolutionCache:
    """Directory-backed cache mapping keys to JSON scalar entries."""

    def __init__(self, directory: Path | str | None = None):
        self.directory = Path(directory) if directory else default_cache_dir()

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str):
        """Return the scalars on a hit, None on a miss or corruption."""
        path = self._path(key)
        if not path.exists():
            return None
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            warnings.warn(f"cache entry unreadable, treating as miss: {exc}",
                          RuntimeWarning, stacklevel=2)
            return None
        if entry.get("scalars_sha256"):
            if _digest(entry["scalars"]) != entry["scalars_sha256"]:
                warnings.warn("cache scalar digest mismatch, treating as miss",
                              RuntimeWarning, stacklevel=2)
                return None
        return entry["scalars"]

    def put(self, key: str, scalars) -> None:
        entry = {
            "scalars": scalars,
            "scalars_sha256": _digest(scalars),
        }
        _atomic_write(self._path(key), canonical_json(entry).encode())

    def get_or_solve(self, solver_id: str, inputs, thunk):
        """(scalars, hit) for (solver_id, inputs), calling thunk on a miss.

        thunk() must return a JSON-serializable scalar dict.
        """
        key = cache_key(solver_id, inputs)
        scalars = self.get(key)
        if scalars is not None:
            return scalars, True
        scalars = thunk()
        self.put(key, scalars)
        return scalars, False
