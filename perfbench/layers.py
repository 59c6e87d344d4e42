"""Traced-run wrappers around the layers of the `swb` package.

`install()` replaces selected module-level functions and methods of the
swb modules by timing wrappers and returns the `Recorder` they report to.
Modules import names directly (`from swb.counting import count_reps`), so
every binding of a wrapped function in every loaded swb module is
replaced, not only the one in the defining module; methods are replaced
on their class.  Only functions a per-layer metric needs are wrapped:
wrapping the small helpers that run millions of times (residue classes,
Legendre symbols) would make the wrappers the largest cost in the run.

A span is the outermost active call of one span name.  A call made while
the same span name is already open (recursion in `target_hist`, a
`render_value` inside `to_json`) is counted but not timed again, and a
span's self time is its duration minus the durations of the spans opened
directly inside it.

Nothing here reads or changes the program's caches except `snapshot`,
which takes their final `len()`.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute or Class.method, span name)
SPANS = (
    ("counting", "count_reps", "counting.count_reps"),
    ("counting", "target_hist", "counting.target_hist"),
    ("counting", "DenseHist.conv", "counting.hist_conv"),
    ("counting", "ClassHist.conv", "counting.hist_conv"),
    ("counting", "strata_list", "counting.strata_list"),
    ("counting", "_pair_count_odd", "counting.pair_count_odd"),
    ("counting", "_pair_table_2", "counting.pair_table_2"),
    ("counting", "_pair_count_2", "counting.pair_count_2"),
    ("counting", "_triple_count_2", "counting.triple_count"),
    ("counting", "_triple_count_odd", "counting.triple_count"),
    ("density", "local_density", "density.local_density"),
    ("density", "interpolate_density_polynomial", "density.interpolate"),
    ("poly", "lagrange_interpolate", "poly.lagrange_interpolate"),
    ("poly", "RationalFunction.__init__", "poly.rational_function"),
    ("poly", "poly_gcd", "poly.poly_gcd"),
    ("analytic", "a_p_function", "analytic.a_p_function"),
    ("analytic", "g_p_function", "analytic.g_p_function"),
    ("analytic", "beta_p_function", "analytic.beta_p_function"),
    ("geometry", "intersection_pairing", "geometry.intersection_pairing"),
    ("geometry", "geometric_t0_side", "geometry.geometric_t0_side"),
    ("lattice", "jordan_form", "lattice.jordan_form"),
    ("lattice", "hyperbolic_lattice", "lattice.hyperbolic_lattice"),
    ("suites", "_eval_case", "suites.case"),
    ("report", "render_value", "report.render"),
    ("report", "VerificationReport.to_json", "report.render"),
    ("report", "VerificationReport.to_text", "report.render"),
)

# cache name -> (module, module-level dict)
CACHES = {
    "hist": ("counting", "_HIST_CACHE"),
    "itab": ("counting", "_ITAB_CACHE"),
    "poly": ("density", "_POLY_CACHE"),
    "hyperbolic": ("lattice", "_HYPERBOLIC_CACHE"),
}


class Recorder:
    """Spans and counts of one traced process."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.returned = defaultdict(int)  # calls that returned, not raised
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.units = defaultdict(int)
        self.case_ns = []
        self._open = set()
        self._stack = []  # [span name, ns covered by child spans]

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if name in self._open:
                result = fn(*args, **kwargs)
                self.returned[name] += 1
                return result
            if name == "counting.count_reps" and self._stack:
                if self._stack[-1][0] == "density.local_density":
                    self.counts["density.scan_steps"] += 1
            frame = [name, 0]
            self._stack.append(frame)
            self._open.add(name)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                self._stack.pop()
                self._open.discard(name)
                self.total_ns[name] += dt
                self.self_ns[name] += dt - frame[1]
                if self._stack:
                    self._stack[-1][1] += dt
                if name == "suites.case":
                    self.case_ns.append(dt)
            self.returned[name] += 1
            if name == "counting.strata_list":
                self.counts["counting.strata"] += len(result)
            return result

        return wrapper

    def charge(self, fn):
        @functools.wraps(fn)
        def wrapper(budget, amount, what=""):
            self.units[what] += amount
            return fn(budget, amount, what)

        return wrapper

    def snapshot(self):
        caches = {}
        for cache, (mod, attr) in CACHES.items():
            caches[cache] = len(getattr(_module(mod), attr))
        return {
            "calls": dict(self.calls),
            "returned": dict(self.returned),
            "total_ns": dict(self.total_ns),
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
            "units": dict(self.units),
            "case_ns": list(self.case_ns),
            "caches": caches,
        }


class LayerMissing(RuntimeError):
    pass


def _module(short):
    name = f"swb.{short}"
    if name not in sys.modules:
        raise LayerMissing(f"module {name} is not loaded")
    return sys.modules[name]


def _swb_modules():
    return [m for n, m in list(sys.modules.items()) if n == "swb" or n.startswith("swb.")]


def _rebind(orig, wrapper):
    """Replace every module-level binding of `orig` in the swb package."""
    n = 0
    for mod in _swb_modules():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)
                n += 1
    return n


def install():
    """Wrap every layer in SPANS and `Budget.charge`; return the Recorder."""
    rec = Recorder()
    for mod_name, target, name in SPANS:
        mod = _module(mod_name)
        if "." in target:
            cls_name, meth = target.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is None or meth not in vars(cls):
                raise LayerMissing(f"swb.{mod_name}.{target} not found")
            setattr(cls, meth, rec.span(name, vars(cls)[meth]))
            continue
        orig = getattr(mod, target, None)
        if orig is None or _rebind(orig, rec.span(name, orig)) == 0:
            raise LayerMissing(f"swb.{mod_name}.{target} not found")
    budget = _module("counting").Budget
    budget.charge = rec.charge(budget.charge)
    return rec
