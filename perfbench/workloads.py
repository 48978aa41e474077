"""Workload inputs, operations and correctness checks.

Each workload builds its inputs from a seed, calls the package's public
entry points on them (looked up on the package at call time, so that a
tracer installed later sees the calls), and returns one ``Outcome`` per operation (a BO
point or a decomposition radius). An operation fails when the call
raises or a check on its result fails; a failure never aborts the run.

Seed 0 uses the exact inputs of the paper's criteria, and its results must
also match ``reference.json``. Any other seed multiplies each internuclear
distance R by a factor drawn uniformly from [1 - JITTER, 1 + JITTER],
which moves the box and the second nucleus' sub-cell offset while every
box keeps its node count.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

JITTER = 0.03

# Matched-grid noise floor of D (README, h = 0.25): the tolerance of the
# seed-0 reference values.
D_TOL = 2e-4

REFERENCE = Path(__file__).with_name("reference.json")


@dataclass
class Outcome:
    label: str
    problems: list
    values: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def _jitter(values, seed: int):
    if seed == 0:
        return [float(v) for v in values]
    rng = random.Random(seed)
    return [float(v) * (1.0 + rng.uniform(-JITTER, JITTER)) for v in values]


def _diatomic(charges, R):
    from fermisurf import NuclearConfiguration

    return NuclearConfiguration(
        positions=[[-R / 2.0, 0.0, 0.0], [R / 2.0, 0.0, 0.0]], charges=list(charges)
    )


def _references(workload: str, seed: int, tiny: bool) -> dict:
    if seed != 0 or tiny:
        return {}
    return json.loads(REFERENCE.read_text())[workload]


def _outcome(label, values, problems, refs) -> Outcome:
    """Add the finiteness and seed-0 reference checks to `problems`."""
    for key, value in values.items():
        if not math.isfinite(value):
            problems.append(f"{key}={value}")
            continue
        ref = refs.get(label, {}).get(key)
        if ref is not None and abs(value - ref) > D_TOL:
            problems.append(
                f"{key}={value:.10g} differs from reference {ref:.10g} "
                f"by {abs(value - ref):.2e} > {D_TOL:g}"
            )
    return Outcome(label, problems, values)


def _raised(labels, exc):
    return [Outcome(label, [f"{type(exc).__name__}: {exc}"]) for label in labels]


# ---------------------------------------------------------------- workloads


def tf_teller_sweep(seed: int, tiny: bool):
    """Criterion 4: z = 6 homonuclear sweep, 15 TF solves on 59^3-65^3 boxes."""
    import fermisurf

    base, spacing = ([0.5, 1.0], 0.5) if tiny else ([0.25, 0.4375, 0.625, 0.8125, 1.0], 0.125)
    Rs = sorted(_jitter(base, seed))
    labels = [f"R={R:.6g}" for R in Rs]
    refs = _references("tf_teller_sweep", seed, tiny)

    def run():
        try:
            curve = fermisurf.tf_sweep((6.0, 6.0), Rs, fermisurf.GridPolicy(spacing=spacing))
        except Exception as exc:  # noqa: BLE001 - counted as failed operations
            return _raised(labels, exc)
        out = []
        for label, s in zip(labels, curve.samples):
            problems = []
            if not s.D > 0.0:
                problems.append(f"Teller: D={s.D:.6g} <= 0")
            if not s.D <= s.U_R:
                problems.append(f"D={s.D:.6g} > U_R={s.U_R:.6g}")
            out.append(_outcome(label, {"D": s.D}, problems, refs))
        return out

    return run


def ks_h2_point(seed: int, tiny: bool):
    """KS-LDA BO point: H2 at R = 1.4, 3 SCF solves on 43^3 boxes."""
    import fermisurf

    spacing = 0.5 if tiny else 0.35
    (R,) = _jitter([1.4], seed)
    label = f"R={R:.6g}"
    xc = fermisurf.make_functional("lda_exchange")
    refs = _references("ks_h2_point", seed, tiny)

    def run():
        try:
            s = fermisurf.bo_ks(_diatomic((1.0, 1.0), R), xc, fermisurf.GridPolicy(spacing=spacing))
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            # an SCF that does not converge raises SCFError (or EigenError)
            return _raised([label], exc)
        return [_outcome(label, {"D": s.D}, [], refs)]

    return run


def tf_exterior_decomp(seed: int, tiny: bool):
    """Criterion 9: exterior-energy decomposition of a z = 6 pair at R = 2."""
    import fermisurf

    spacing = 0.5 if tiny else 0.25
    (R,) = _jitter([2.0], seed)
    r_values = [0.5, 0.4, 0.3]
    labels = [f"r={r:g}" for r in r_values]
    refs = _references("tf_exterior_decomp", seed, tiny)

    def run():
        try:
            rep = fermisurf.outside_decomposition_check(
                _diatomic((6.0, 6.0), R), r_values, fermisurf.GridPolicy(spacing=spacing)
            )
        except Exception as exc:  # noqa: BLE001 - counted as failed operations
            return _raised(labels, exc)
        out = []
        prev = math.inf
        for label, s in zip(labels, rep.samples):  # r descending
            problems = []
            if not rep.D_tf > 0.0:
                problems.append(f"Teller: D={rep.D_tf:.6g} <= 0")
            # gap_r7_decreasing, blamed on the radius where it breaks
            if not s.gap_r7 <= prev:
                problems.append(f"gap*r^7 rose to {s.gap_r7:.4g} from {prev:.4g}")
            prev = s.gap_r7
            values = {"D": rep.D_tf, "decomposition": s.decomposition}
            out.append(_outcome(label, values, problems, refs))
        return out

    return run


WORKLOADS = {
    "tf_teller_sweep": tf_teller_sweep,
    "ks_h2_point": ks_h2_point,
    "tf_exterior_decomp": tf_exterior_decomp,
}
