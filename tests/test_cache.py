import concurrent.futures
import json

import pytest

from fermisurf.cache import SolutionCache, cache_key, canonical_json


class TestKeys:
    def test_key_changes_with_any_input(self):
        base = {"z": 6.0, "h": 0.25, "tol": 1e-8}
        k0 = cache_key("tf", base)
        assert cache_key("tf", {**base, "tol": 1e-9}) != k0
        assert cache_key("tf", {**base, "h": 0.2}) != k0
        assert cache_key("ks", base) != k0

    def test_key_independent_of_dict_order(self):
        a = {"z": 1.0, "h": 0.5}
        b = {"h": 0.5, "z": 1.0}
        assert cache_key("tf", a) == cache_key("tf", b)

    def test_key_changes_with_blas_threads(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        k1 = cache_key("tf", {"z": 1.0})
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert cache_key("tf", {"z": 1.0}) != k1

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


def _solve():
    return {"e": -2.0}


def _concurrent_worker(directory):
    # module-level so ProcessPoolExecutor can pickle it
    return SolutionCache(directory).get_or_solve("tf", {"z": 9.0}, _solve)


class TestStore:
    def test_miss_then_hit(self, tmp_path):
        cache = SolutionCache(tmp_path)
        calls = []

        def thunk():
            calls.append(1)
            return {"energy": -1.5}

        s1, hit1 = cache.get_or_solve("tf", {"z": 1.0}, thunk)
        s2, hit2 = cache.get_or_solve("tf", {"z": 1.0}, thunk)
        assert (hit1, hit2) == (False, True)
        assert s1 == s2 == {"energy": -1.5}
        assert len(calls) == 1

    def test_changed_sources_miss(self, tmp_path, monkeypatch):
        cache = SolutionCache(tmp_path)
        calls = []

        def thunk():
            calls.append(1)
            return {"energy": -1.5}

        cache.get_or_solve("tf", {"z": 1.0}, thunk)
        monkeypatch.setattr("fermisurf.cache.source_fingerprint", lambda: "0" * 64)
        _, hit = cache.get_or_solve("tf", {"z": 1.0}, thunk)
        assert not hit
        assert len(calls) == 2

    def test_corrupt_scalars_is_a_miss_with_warning(self, tmp_path):
        cache = SolutionCache(tmp_path)
        key = cache_key("tf", {"z": 4.0})
        cache.put(key, {"e": 1.0})
        sidecar = cache._path(key)
        entry = json.loads(sidecar.read_text())
        entry["scalars"]["e"] = 2.0
        sidecar.write_text(json.dumps(entry))
        with pytest.warns(RuntimeWarning, match="digest"):
            assert cache.get(key) is None

    @pytest.mark.parametrize("entry", [
        [],
        {},
        {"scalars_sha256": "x"},
        {"scalars": {"e": 1.0}},
        {"scalars": {"e": 1.0}, "scalars_sha256": "0" * 64},
        {"scalars": {"e": float("nan")}, "scalars_sha256": "0" * 64},
    ])
    def test_entry_without_its_digest_is_a_miss(self, entry, tmp_path):
        # JSON of the wrong shape, or with scalars that have no digest, is a
        # miss, never a traceback or an unchecked hit
        cache = SolutionCache(tmp_path)
        key = cache_key("tf", {"z": 6.0})
        cache.put(key, {"e": 1.0})
        cache._path(key).write_text(json.dumps(entry))
        with pytest.warns(RuntimeWarning, match="treating as miss"):
            assert cache.get(key) is None

    def test_unparseable_sidecar_is_a_miss(self, tmp_path):
        cache = SolutionCache(tmp_path)
        key = cache_key("tf", {"z": 5.0})
        cache.put(key, {"e": 1.0})
        sidecar = cache._path(key)
        sidecar.write_text("{not json")
        with pytest.warns(RuntimeWarning):
            assert cache.get(key) is None

    def test_concurrent_writers_leave_one_valid_entry(self, tmp_path):
        with concurrent.futures.ProcessPoolExecutor(max_workers=8) as ex:
            results = list(ex.map(_concurrent_worker, [str(tmp_path)] * 8))
        assert all(s == {"e": -2.0} for s, _ in results)
        assert SolutionCache(tmp_path).get(cache_key("tf", {"z": 9.0})) == {"e": -2.0}
