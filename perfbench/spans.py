"""Per-layer spans and counters, recorded from outside the package.

The package modules import their collaborators with ``from .x import f``,
so one function object is bound under its name in several module
namespaces. ``Tracer.install`` swaps a timing wrapper in for every
binding of each traced function inside ``fermisurf.*`` (or only in the
modules named by ``only_in``) and ``uninstall`` puts the originals back.
Spans nest on a stack, so a layer's self time is its duration minus the
time its traced children took. A traced function that a later version
of the package no longer has is skipped and its metrics read 0.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, module that defines it, attribute, modules to patch or None)
SPANS = (
    ("solve_universal", "tf_atom", "solve_universal", None),
    ("solve_ivp", "tf_atom", "solve_ivp", ("tf_atom",)),
    ("poisson_solve", "poisson", "poisson_solve", None),
    ("multipole_boundary", "poisson", "multipole_boundary", None),
    ("solve_dirichlet", "poisson", "solve_dirichlet", None),
    ("stencil_residual", "poisson", "stencil_residual", None),
    ("solve_tf", "tf_molecule", "solve_tf", None),
    ("exterior_tf", "tf_molecule", "exterior_tf", None),
    ("screened_tf", "tf_molecule", "screened_tf", None),
    ("tf_fixed_point", "tf_molecule", "_tf_fixed_point", None),
    ("pick_mu", "tf_molecule", "_pick_mu", None),
    ("bo_point", "bo", "bo_tf", None),
    ("bo_point", "bo", "bo_ks", None),
    ("eigensolve", "eig", "lowest_eigenpairs", None),
    ("lobpcg", "eig", "lobpcg", ("eig",)),
    ("h_apply", "eig", "apply_hamiltonian", None),
    # the eigensolver's spectral preconditioner is one DST pair per vector;
    # the Poisson solver's DSTs live in another namespace and stay untraced
    ("precond_dst", "eig", "dstn", ("eig",)),
    ("precond_dst", "eig", "idstn", ("eig",)),
    ("scf", "ks_molecule", "scf_molecule", None),
)

# (span name, module, class, method)
METHOD_SPANS = (("mix", "ks_common", "AndersonMixer", "mix"),)

PER_LAYER_UNITS = {
    "tf_atom.solve_universal_s": "s",
    "tf_atom.forward_integrations": "count",
    "tf_atom.backward_integrations": "count",
    "poisson.solves": "count",
    "poisson.solve_s": "s",
    "poisson.multipole_boundary_s": "s",
    "poisson.dirichlet_s": "s",
    "poisson.residual_check_s": "s",
    "tf_molecule.solves": "count",
    "tf_molecule.sweeps": "count",
    "tf_molecule.sweeps_per_solve": "sweeps/solve",
    "tf_molecule.fixed_point_self_s": "s",
    "tf_molecule.exterior_solves": "count",
    "tf_molecule.pick_mu_calls": "count",
    "tf_molecule.pick_mu_s": "s",
    "bo.points": "count",
    "bo.atomic_ref_solves": "count",
    "bo.atomic_ref_s": "s",
    "bo.atomic_ref_duplicates": "count",
    "eig.eigensolves": "count",
    "eig.eigensolve_s": "s",
    "eig.h_applies": "count",
    "eig.h_apply_s": "s",
    "eig.precond_applies": "count",
    "eig.precond_s": "s",
    "eig.lobpcg_self_s": "s",
    "ks_molecule.scf_solves": "count",
    "ks_molecule.scf_steps": "count",
    "ks_molecule.scf_self_s": "s",
    "ks_common.mix_calls": "count",
    "ks_common.mix_s": "s",
}


def _vectors(arr) -> int:
    """Vectors in a grid array: a (k, nx, ny, nz) block counts k."""
    a = np.asarray(arr)
    return int(a.shape[0]) if a.ndim == 4 else 1


class Tracer:
    """Span stack plus counters; one instance per traced process."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack: list = []  # [span name, seconds spent in child spans]
        self._patches: list = []  # (namespace, attribute, original)
        self._ref_keys: set = set()

    # -- installation ---------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = "fermisurf"
        modules = {
            name.split(".")[-1]: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == pkg or name.startswith(pkg + "."))
        }
        for span, owner, attr, only_in in SPANS:
            original = getattr(modules.get(owner), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(span, original)
            targets = only_in or tuple(modules)
            for mod_name in targets:
                ns = modules.get(mod_name)
                if ns is None:
                    continue
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapper)
        for span, owner, cls_name, meth in METHOD_SPANS:
            cls = getattr(modules.get(owner), cls_name, None)
            original = getattr(cls, meth, None) if cls is not None else None
            if original is None:
                continue
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(span, original))

    def uninstall(self):
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    # -- spans ------------------------------------------------------------

    def _wrap(self, span, fn):
        hook = getattr(self, "_after_" + span, None)
        sig = inspect.signature(fn) if hook is not None else None

        def traced(*args, **kwargs):
            self._stack.append([span, 0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                _, child = self._stack.pop()
                self.calls[span] += 1
                self.total_s[span] += dt
                self.self_s[span] += dt - child
                if self._stack:
                    self._stack[-1][1] += dt
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                hook(bound.arguments, result, dt)
            return result

        traced.__wrapped__ = fn
        return traced

    def _in_bo_point(self) -> bool:
        return any(frame[0] == "bo_point" for frame in self._stack)

    def _atomic_reference(self, config, grid, dt):
        """Count a single-nucleus solve made inside a BO point."""
        if config is None or grid is None or config.K != 1 or not self._in_bo_point():
            return
        self.counts["atomic_ref_solves"] += 1
        self.total_s["atomic_ref"] += dt
        pos = np.asarray(config.positions[0], dtype=float)
        node = grid.origin + grid.h * np.asarray(grid.index_of(pos))
        offset = tuple(np.round((pos - node) / grid.h, 9) + 0.0)
        key = (float(config.charges[0]), float(grid.h), tuple(grid.dims), offset)
        if key in self._ref_keys:
            self.counts["atomic_ref_duplicates"] += 1
        self._ref_keys.add(key)

    def _after_solve_ivp(self, args, result, dt):
        t0, t1 = args["t_span"]
        self.counts["forward" if t1 > t0 else "backward"] += 1

    def _after_solve_tf(self, args, result, dt):
        self.counts["tf_sweeps"] += len(result.history)
        self.counts["tf_poisson_expected"] += len(result.history) + 2
        self._atomic_reference(args.get("config"), args.get("grid"), dt)

    def _after_exterior_tf(self, args, result, dt):
        self.counts["tf_sweeps"] += len(result.history)
        self.counts["tf_poisson_expected"] += len(result.history) + 2

    def _after_screened_tf(self, args, result, dt):
        self.counts["tf_poisson_expected"] += 1

    def _after_scf(self, args, result, dt):
        self.counts["scf_steps"] += len(result.scf_history)
        self._atomic_reference(args.get("config"), args.get("grid"), dt)

    def _after_h_apply(self, args, result, dt):
        self.counts["h_vectors"] += _vectors(args.get("psi", 0.0))

    def _after_precond_dst(self, args, result, dt):
        self.counts["dst_vectors"] += _vectors(args.get("x", 0.0))

    # -- report -----------------------------------------------------------

    def poisson_identity_gap(self) -> int:
        """Poisson solves not explained by the sweep and step counts.

        Each TF sweep makes one solve and each TF solve two more, each
        screened potential one, each SCF step one and each SCF solve two
        more; the gap is 0 when the counts hold.
        """
        c, n = self.calls, self.counts
        expected = n["tf_poisson_expected"] + n["scf_steps"] + 2 * c["scf"]
        return c["poisson_solve"] - expected

    def metrics(self) -> dict:
        """Per-layer metric values keyed as in PER_LAYER_UNITS."""
        c, t, s, n = self.calls, self.total_s, self.self_s, self.counts
        tf_solves = c["solve_tf"] + c["exterior_tf"]
        return {
            "tf_atom.solve_universal_s": t["solve_universal"],
            "tf_atom.forward_integrations": n["forward"],
            "tf_atom.backward_integrations": n["backward"],
            "poisson.solves": c["poisson_solve"],
            "poisson.solve_s": t["poisson_solve"],
            "poisson.multipole_boundary_s": t["multipole_boundary"],
            "poisson.dirichlet_s": t["solve_dirichlet"],
            "poisson.residual_check_s": t["stencil_residual"],
            "tf_molecule.solves": c["solve_tf"],
            "tf_molecule.sweeps": n["tf_sweeps"],
            "tf_molecule.sweeps_per_solve": n["tf_sweeps"] / tf_solves if tf_solves else 0.0,
            "tf_molecule.fixed_point_self_s": s["tf_fixed_point"],
            "tf_molecule.exterior_solves": c["exterior_tf"],
            "tf_molecule.pick_mu_calls": c["pick_mu"],
            "tf_molecule.pick_mu_s": t["pick_mu"],
            "bo.points": c["bo_point"],
            "bo.atomic_ref_solves": n["atomic_ref_solves"],
            "bo.atomic_ref_s": t["atomic_ref"],
            "bo.atomic_ref_duplicates": n["atomic_ref_duplicates"],
            "eig.eigensolves": c["eigensolve"],
            "eig.eigensolve_s": t["eigensolve"],
            "eig.h_applies": n["h_vectors"],
            "eig.h_apply_s": t["h_apply"],
            # one preconditioner apply is a forward plus an inverse DST
            "eig.precond_applies": n["dst_vectors"] // 2,
            "eig.precond_s": t["precond_dst"],
            "eig.lobpcg_self_s": s["lobpcg"],
            "ks_molecule.scf_solves": c["scf"],
            "ks_molecule.scf_steps": n["scf_steps"],
            "ks_molecule.scf_self_s": s["scf"],
            "ks_common.mix_calls": c["mix"],
            "ks_common.mix_s": t["mix"],
        }
