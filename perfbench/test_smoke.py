"""Smoke test of the benchmark on coarse grids (about 100 s on 2 cores).

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each workload emits every metric named in BENCHMARK.json,
that the traced counts repeat exactly between runs, and that the Poisson
solve count identities hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, seed=5):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


def _values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    result = _run(workload, trace=0)
    assert result["correct"], result
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(v > 0 for v in _values(result).values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_satisfy_identities(workload):
    first, second = _run(workload, trace=1), _run(workload, trace=1)
    assert first["correct"] and second["correct"], (first, second)
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(first["metrics"]) == names
    counts = {n for n, m in first["metrics"].items() if m["unit"] == "count"}
    a, b = _values(first), _values(second)
    assert {n: a[n] for n in counts} == {n: b[n] for n in counts}

    assert a["tf_atom.forward_integrations"] > 0
    assert a["tf_atom.backward_integrations"] > 0
    assert a["bo.points"] >= 1
    assert 0 < a["bo.atomic_ref_solves"] <= 2 * a["bo.points"]
    if workload == "ks_h2_point":
        assert a["poisson.solves"] == a["ks_molecule.scf_steps"] + 2 * a["ks_molecule.scf_solves"]
        assert a["ks_molecule.scf_solves"] == 3
        assert a["eig.eigensolves"] > 0
        assert a["tf_molecule.solves"] == 0
    else:
        # every Poisson solve belongs to a TF sweep, a TF solve's two
        # closing solves, or a screened potential (one per radius)
        screened = 3 if workload == "tf_exterior_decomp" else 0
        tf_solves = a["tf_molecule.solves"] + a["tf_molecule.exterior_solves"]
        assert a["poisson.solves"] == a["tf_molecule.sweeps"] + 2 * tf_solves + screened
        assert a["eig.eigensolves"] == 0
