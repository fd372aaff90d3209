"""Traced mode: spans around the calls into each strongatoms layer.

The tracer replaces public functions of the library's modules with thin
wrappers, under every name through which callers reach them (``zsm`` and
``krull`` import ``abgroup`` functions by name, ``cli`` imports ``load_spec``
by name, and the package re-exports everything).  Each call records a span
(name, start, end, parent) in memory, is added to the per-layer table when it
ends, and is written out with the others when the run ends.  A span's self
time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function) pairs that are wrapped; the names are the layer names
# used by the per-layer metrics below.
WRAPPED = {
    "abgroup": ("smith_normal_form", "kernel_lattice", "is_z_independent",
                "positive_kernel_vector", "minimal_nonneg_kernel"),
    "zsm": ("enumerate_atoms", "factorizations", "vector_factorizations"),
    "krull": ("is_absirred_kernel", "exists_absirred_nonprime", "is_absirred_support",
              "brute_force_absirred", "classify_scenario", "all_irreducibles_absirred",
              "witness_non_absirred"),
    "specfile": ("load_spec",),
    "cli": ("main",),
    "quadratic": ("half_factorial_check", "quad_factorizations", "elements_of_norm",
                  "quad_brute_absirred", "quad_is_irreducible"),
    "nummon": ("nm_factorizations",),
    "ivpoly": ("is_integer_valued", "binomial_basis_coefficients", "fixed_divisor",
               "divides_in_intz", "binomial_poly", "is_prime", "legendre_vp_factorial",
               "rp_membership", "constant_residue_product_witness",
               "verify_no_prime_witness", "poly_divides"),
}

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "abgroup.completion_all_s": ("s", "lower"),
    "abgroup.completion_all_calls": ("count", "lower"),
    "abgroup.completion_solutions": ("count", "lower"),
    "abgroup.completion_first_s": ("s", "lower"),
    "abgroup.completion_first_calls": ("count", "lower"),
    "abgroup.snf_s": ("s", "lower"),
    "abgroup.snf_calls": ("count", "lower"),
    "abgroup.kernel_lattice_s": ("s", "lower"),
    "abgroup.kernel_lattice_calls": ("count", "lower"),
    "zsm.enumerate_atoms_s": ("s", "lower"),
    "zsm.atoms_found": ("count", "lower"),
    "zsm.factorizations_all_s": ("s", "lower"),
    "zsm.factorizations_all_calls": ("count", "lower"),
    "zsm.factorizations_listed": ("count", "lower"),
    "zsm.factorizations_first_s": ("s", "lower"),
    "zsm.factorizations_first_calls": ("count", "lower"),
    "krull.is_absirred_kernel_s": ("s", "lower"),
    "krull.is_absirred_kernel_calls": ("count", "lower"),
    "krull.kernel_criterion_true": ("count", "lower"),
    "krull.families_tested": ("count", "lower"),
    "krull.is_absirred_support_s": ("s", "lower"),
    "krull.brute_force_absirred_s": ("s", "lower"),
    "krull.classify_scenario_s": ("s", "lower"),
    "specfile.load_spec_s": ("s", "lower"),
    "cli.main_self_s": ("s", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
    "quadratic.half_factorial_check_s": ("s", "lower"),
    "quadratic.quad_factorizations_s": ("s", "lower"),
    "quadratic.quad_factorizations_calls": ("count", "lower"),
    "quadratic.elements_of_norm_calls": ("count", "lower"),
    "nummon.nm_factorizations_s": ("s", "lower"),
    "nummon.factorizations_listed": ("count", "lower"),
    "ivpoly.self_s": ("s", "lower"),
}


MAX_KEPT_SPANS = 200_000


class Tracer:
    """Records spans in memory; one instance per traced run.

    Every span is accounted into the per-layer table when it ends; the first
    ``MAX_KEPT_SPANS`` spans are also kept for the trace file, so that a run
    with hundreds of thousands of small calls stays small in memory.
    """

    def __init__(self):
        self.spans = []          # kept spans: (name, start, end, parent, limit, size)
        self.dropped = 0
        self.stack = []          # open frames: [name, start, child time, span index, limit]
        self.table = {k: 0.0 for k in PER_LAYER}
        self.report_bytes = 0
        self._originals = []

    def _wrap(self, name, fn):
        stack, spans, account = self.stack, self.spans, self._account
        clock = time.perf_counter
        takes_limit = name in ("abgroup.minimal_nonneg_kernel", "zsm.factorizations",
                               "zsm.vector_factorizations")

        def wrapper(*args, **kwargs):
            limited = takes_limit and kwargs.get("limit") is not None
            frame = [name, clock(), 0.0, -1, limited]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                if isinstance(result, bool):
                    size = int(result)
                elif isinstance(result, (list, tuple, set)) or hasattr(result, "atoms"):
                    size = len(result)
                else:
                    size = None
                if len(spans) < MAX_KEPT_SPANS:
                    frame[3] = len(spans)
                    spans.append((name, frame[1], end, parent[3] if parent else -1,
                                  limited, size))
                else:
                    self.dropped += 1
                account(name, dur - frame[2], parent[0] if parent else None,
                        parent[4] if parent else False, limited, size)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _account(self, name, self_time, parent, parent_limited, limited, size):
        """Add one finished span to the per-layer table."""
        t = self.table
        fact = ("zsm.factorizations", "zsm.vector_factorizations")
        if name == "abgroup.minimal_nonneg_kernel":
            if limited:
                t["abgroup.completion_first_s"] += self_time
                t["abgroup.completion_first_calls"] += 1
            else:
                t["abgroup.completion_all_s"] += self_time
                t["abgroup.completion_all_calls"] += 1
                t["abgroup.completion_solutions"] += size or 0
        elif name == "abgroup.smith_normal_form":
            t["abgroup.snf_s"] += self_time
            t["abgroup.snf_calls"] += 1
        elif name == "abgroup.kernel_lattice":
            t["abgroup.kernel_lattice_s"] += self_time
            t["abgroup.kernel_lattice_calls"] += 1
        elif name == "abgroup.is_z_independent":
            t["abgroup.kernel_lattice_s"] += self_time
        elif name == "zsm.enumerate_atoms":
            t["zsm.enumerate_atoms_s"] += self_time
            t["zsm.atoms_found"] += size or 0
        elif name in fact:
            outermost = parent not in fact
            kind = "first" if limited or (not outermost and parent_limited) else "all"
            t[f"zsm.factorizations_{kind}_s"] += self_time
            if outermost:
                t[f"zsm.factorizations_{kind}_calls"] += 1
                if kind == "all":
                    t["zsm.factorizations_listed"] += size or 0
        elif name == "krull.is_absirred_kernel":
            t["krull.is_absirred_kernel_s"] += self_time
            t["krull.is_absirred_kernel_calls"] += 1
            t["krull.kernel_criterion_true"] += size or 0
            if parent == "krull.exists_absirred_nonprime":
                t["krull.families_tested"] += 1
        elif name == "krull.is_absirred_support":
            t["krull.is_absirred_support_s"] += self_time
        elif name == "krull.brute_force_absirred":
            t["krull.brute_force_absirred_s"] += self_time
        elif name == "krull.classify_scenario":
            t["krull.classify_scenario_s"] += self_time
        elif name == "specfile.load_spec":
            t["specfile.load_spec_s"] += self_time
        elif name == "cli.main":
            t["cli.main_self_s"] += self_time
        elif name == "quadratic.half_factorial_check":
            t["quadratic.half_factorial_check_s"] += self_time
        elif name == "quadratic.quad_factorizations":
            t["quadratic.quad_factorizations_s"] += self_time
            t["quadratic.quad_factorizations_calls"] += 1
        elif name == "quadratic.elements_of_norm":
            t["quadratic.elements_of_norm_calls"] += 1
        elif name == "nummon.nm_factorizations":
            t["nummon.nm_factorizations_s"] += self_time
            t["nummon.factorizations_listed"] += size or 0
        elif name.startswith("ivpoly."):
            t["ivpoly.self_s"] += self_time

    def install(self):
        """Wrap every listed function under every module attribute bound to it."""
        originals = {}
        for mod, names in WRAPPED.items():
            module = sys.modules[f"strongatoms.{mod}"]
            for fname in names:
                fn = getattr(module, fname)
                originals[id(fn)] = (fn, self._wrap(f"{mod}.{fname}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "strongatoms" and not modname.startswith("strongatoms."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._originals.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in self._originals:
            setattr(module, attr, value)
        self._originals.clear()

    def write(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "limit", "size"],
                       "dropped_spans": self.dropped,
                       "spans": [[s[0], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3],
                                  s[4], s[5]] for s in self.spans]}, fh)

    def per_layer(self, rounds):
        """The per-layer table, per round of the workload."""
        out = dict(self.table)
        out["cli.report_bytes"] = self.report_bytes
        return {k: v / rounds for k, v in out.items()}
