"""One fresh interpreter's share of a benchmark run; started by run.py.

Modes:
  setup   time ``import fermisurf`` plus ``universal_profile()`` only;
  timed   the same set-up sample, then repeat the workload's operations
          while another repetition still fits in --seconds (at least one);
  traced  one untraced and one traced repetition, for the per-layer
          metrics and the tracing overhead.

The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _import_checkout_package():
    """Import fermisurf and refuse any copy outside ./src of the checkout."""
    t0 = time.perf_counter()
    import fermisurf

    src = (Path.cwd() / "src").resolve()
    if src not in Path(fermisurf.__file__).resolve().parents:
        raise SystemExit(f"fermisurf imported from {fermisurf.__file__}, not {src}")
    return fermisurf, t0


def _repetition(run):
    t0 = time.perf_counter()
    outcomes = run()
    return time.perf_counter() - t0, outcomes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        fermisurf, t0 = _import_checkout_package()
        tracer.install()
        fermisurf.universal_profile()
        tracer.uninstall()
    else:
        fermisurf, t0 = _import_checkout_package()
        fermisurf.universal_profile()
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    import numpy
    import scipy

    from workloads import WORKLOADS

    run = WORKLOADS[args.workload](args.seed, args.tiny)
    walls, reps = [], []
    if args.mode == "timed":
        start = time.perf_counter()
        while True:
            wall, outcomes = _repetition(run)
            walls.append(wall)
            reps.append(outcomes)
            if time.perf_counter() - start + wall > args.seconds:
                break
    else:
        untraced, outcomes = _repetition(run)
        reps.append(outcomes)
        tracer.install()
        try:
            traced, outcomes = _repetition(run)
        finally:
            tracer.uninstall()
        reps.append(outcomes)
        walls = [traced]
        out["per_layer"] = tracer.metrics()
        out["poisson_identity_gap"] = tracer.poisson_identity_gap()
        out["overhead_s"] = traced - untraced

    out.update(
        walls=walls,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        operations=[
            {"label": o.label, "ok": o.ok, "problems": o.problems, "values": o.values}
            for outcomes in reps
            for o in outcomes
        ],
        versions={
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
