"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --out perfbench/results/baseline.json

Runs ``run.py --trace 0`` once per seed 1..10 for each workload, one run
at a time, and reports for every end-to-end metric its median, its
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median next to the metric's bound, as the benchmark contract
computes it. It then makes two ``--trace 1`` runs of seed 0 per workload
and records their per-layer metrics, so that their counts can be compared. Writes the
summary, with the environment of the runs, to --out when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
TRACED_SEEDS = (0, 0)


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("environment "))
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        failed = attempted = 0
        t0 = time.monotonic()
        for seed in SEEDS:
            result, env = _run(workload, seed, spec["run_seconds"], 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        entry = {"seeds": list(SEEDS), "attempted": attempted, "failed": failed,
                 "seconds_per_run": (time.monotonic() - t0) / len(SEEDS), "metrics": {}}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            entry["metrics"][name] = {
                "median": statistics.median(vals), "q1": q1, "q3": q3,
                "spread": spread, "bound": bounds[name], "values": vals,
            }
            print(f"{workload:<20} {name:<12} median {statistics.median(vals):10.4f} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:.3f} "
                  f"(bound {bounds[name]})", flush=True)
        print(f"{workload:<20} failed {failed} of {attempted} operations, "
              f"{entry['seconds_per_run']:.1f} s per run", flush=True)
        entry["traced"] = []
        for seed in TRACED_SEEDS:
            result, env = _run(workload, seed, spec["run_seconds"], 1)
            entry["traced"].append({
                "seed": seed, "correct": result["correct"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            })
        summary["workloads"][workload] = entry
        summary["environment"] = env
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
