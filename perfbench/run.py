"""Fixed benchmark for fermisurf: three paper workloads, end to end and per layer.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload tf_teller_sweep --seed 0 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with tracing off: wall_s (median
time of one repetition of the workload's operations, after set-up),
setup_s (median over fresh interpreters of import plus universal_profile)
and peak_rss_mb (peak resident memory of the workload process).
--trace 1 runs the workload once untraced and once traced in one process
and reports the per-layer metrics of spans.py instead. A traced run is
correct only if, besides every operation passing its checks, its Poisson
solve count matches the one the TF sweep and SCF step counts explain.

Every line before the last is a human-readable report; the last line is
one JSON object {"correct", "attempted", "failed", "metrics"}. The run
exits non-zero, printing no result, when the workload process cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# fresh interpreters that time set-up alone; the workload process adds one
SETUP_PROBES = 2
DEADLINE_S = 175.0
BLAS_THREADS = 1


def _environment(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _worker(args, env, deadline):
    """Run worker.py to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    left = deadline - time.monotonic()
    if left <= 0:
        raise RuntimeError("no time left before the run deadline")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=left)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", f"--git-dir={root / '.git'}", "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="coarse grids, for the smoke test only")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "fermisurf" / "__init__.py").is_file():
        print(f"no src/fermisurf package under {root}", file=sys.stderr)
        return 2
    env = _environment(root)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)] + (["--tiny"] if args.tiny else [])
    try:
        if args.trace:
            res = _worker(["--mode", "traced", *common], env, deadline)
        else:
            setups = [_worker(["--mode", "setup"], env, deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            res = _worker(["--mode", "timed", *common], env, deadline)
            setups.append(res["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    ops = res["operations"]
    failed = sum(not op["ok"] for op in ops)
    walls = res["walls"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    env_record = {
        "nproc": os.cpu_count(), **res["versions"], "blas_threads": BLAS_THREADS,
        "fft_workers": 1, "commit": _git_commit(root),
    }
    print("environment " + json.dumps(env_record, sort_keys=True))
    for op in ops:
        values = " ".join(f"{k}={v:.12g}" for k, v in op["values"].items())
        status = "ok" if op["ok"] else "FAILED " + "; ".join(op["problems"])
        print(f"  op {op['label']:<12} {values} {status}")
    print(f"ops_failed_frac = {failed / len(ops):.6g} ({failed} of {len(ops)} operations)")
    correct = failed == 0

    if args.trace:
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        gap = res["poisson_identity_gap"]
        correct = correct and gap == 0
        print(f"traced wall_s = {walls[0]:.6g} s (1 repetition)")
        print(f"tracing overhead = {res['overhead_s']:.6g} s (traced minus untraced repetition)")
        print(f"poisson solve count identity gap = {gap} ({'holds' if gap == 0 else 'FAILED'})")
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        samples = {"wall_s": len(walls), "setup_s": len(setups), "peak_rss_mb": 1}
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']} (median of {samples[name]})")
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
