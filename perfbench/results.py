"""Verdict checks and metric aggregation; pure functions over child results.

A `Result` is what one command process left behind: its exit code, its
stdout (the report), the timing record it printed, and its peak RSS.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass
from fractions import Fraction

from workloads import WORKLOADS


@dataclass
class Result:
    rc: int
    stdout: bytes
    record: dict | None  # None when the process died before printing it
    maxrss_kb: int
    setup_ns: int | None


@dataclass(frozen=True)
class Verdict:
    attempted: int
    decided: int
    passed: int
    ok: bool


def report_sha256(stdout):
    return hashlib.sha256(stdout).hexdigest()


def probe_reference(result):
    """The stabilized density printed by `swb density` without `--d`."""
    if result.rc != 0:
        return None
    try:
        return Fraction(json.loads(result.stdout)["density"])
    except (ValueError, KeyError, TypeError):
        return None


def judge(cmd, result, reference=None):
    """Verdict of one command.

    A `verify` report decides a case when its status is pass or fail; a
    case that is skipped-budget, errors, or is missing because the process
    crashed is undecided.  A `density --d` probe is one case, decided when
    it prints a value, and passed when that value equals both the shallow
    `reference` and the known value `cmd.expect`.
    """
    if cmd.is_probe:
        try:
            got = Fraction(json.loads(result.stdout)["normalized"])
        except (ValueError, KeyError, TypeError):
            return Verdict(1, 0, 0, False)
        ok = result.rc == 0 and got == reference == cmd.expect
        return Verdict(1, 1, int(ok), ok)
    try:
        statuses = [case["status"] for case in json.loads(result.stdout)["cases"]]
    except (ValueError, KeyError, TypeError):
        return Verdict(cmd.cases, 0, 0, False)
    decided = sum(s in ("pass", "fail") for s in statuses)
    passed = statuses.count("pass")
    ok = result.rc == 0 and passed == len(statuses) == cmd.cases
    return Verdict(max(cmd.cases, len(statuses)), decided, passed, ok)


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rep_walls(reps):
    """Time to verdict of each repetition: command wall times summed."""
    return [sum(r.record["wall_ns"] for r in rep if r.record) / 1e9 for rep in reps]


def end_to_end(reps, verdicts, setup_ns, n_commands):
    """The end-to-end metrics of a run.

    `reps` holds one list of Results per repetition of the workload,
    `verdicts` one Verdict per command run, and `setup_ns` every
    spawn-to-import sample of the untraced part of the run.
    """
    walls = rep_walls(reps)
    attempted = sum(v.attempted for v in verdicts)
    decided = sum(v.decided for v in verdicts)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (n_commands * statistics.median(setup_ns) / 1e9, "s"),
        "peak_rss_mb": (max(r.maxrss_kb for rep in reps for r in rep) / 1024, "MB"),
        "decided_ratio": (decided / attempted, "ratio"),
        "verdicts_ok": (int(all(v.ok for v in verdicts)), "bool"),
    }


def merge_layers(snapshots):
    """Sum the layer snapshots of the commands of one repetition."""
    out = {"calls": {}, "returned": {}, "total_ns": {}, "self_ns": {}, "counts": {},
           "units": {}, "caches": {}, "case_ns": [], "import_ns": 0}
    for snap in snapshots:
        for key in ("calls", "returned", "total_ns", "self_ns", "counts", "units", "caches"):
            for name, value in snap[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["case_ns"].extend(snap["case_ns"])
        out["import_ns"] += snap["import_ns"]
    return out


# Budget.charge label -> counting.units.<name>
UNIT_LABELS = {
    "p=2 pair table": "p2_pair_table",
    "p=2 dense fold": "p2_dense_fold",
    "p=2 pair point": "p2_pair_point",
    "dense histogram": "dense_histogram",
    "hist conv": "hist_conv",
    "pair stratum": "pair_stratum",
    "dense representative search": "dense_rep_search",
    "rank-1 pair enumeration": "rank1_pair_enumeration",
}


# The spans whose calls a cache answers: span name -> cache of layers.CACHES.
CACHED = {
    "counting.pair_table_2": "itab",
    "counting.target_hist": "hist",
    "density.interpolate": "poly",
    "lattice.hyperbolic_lattice": "hyperbolic",
}


def _hit_ratio(counts, name):
    """Share of the calls of span `name` answered from its cache.

    A call that returns either finds its entry or stores one, so the hits
    are the calls that returned less the cache's final size; a call that
    raised (say over budget) stored nothing and is a miss.
    """
    calls = counts[f"{name}.calls"]
    hits = counts[f"{name}.returned"] - counts[f"cache.{CACHED[name]}.entries"]
    return hits / calls if calls else 0.0


def layer_counts(merged):
    """The exact per-layer counts; two traced runs must agree on all of them."""
    calls, counts, caches = merged["calls"], merged["counts"], merged["caches"]
    units = merged["units"]
    out = {f"counting.units.{short}": units.get(label, 0) for label, short in UNIT_LABELS.items()}
    out["counting.units.total"] = sum(units.values())
    for name in ("counting.hist_conv", "counting.count_reps", "density.local_density",
                 "geometry.intersection_pairing", "poly.poly_gcd", *CACHED):
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in CACHED:
        out[f"{name}.returned"] = merged["returned"].get(name, 0)
    out["counting.strata.count"] = counts.get("counting.strata", 0)
    out["suites.cases"] = len(merged["case_ns"])
    out["density.scan_steps"] = counts.get("density.scan_steps", 0)
    for cache in CACHED.values():
        out[f"cache.{cache}.entries"] = caches.get(cache, 0)
    return out


def layer_metrics(merged, overhead_ratio):
    """Every per-layer metric of one traced repetition, as name -> (value, unit)."""
    c = layer_counts(merged)
    total, self_ns = merged["total_ns"], merged["self_ns"]

    def secs(name):
        return total.get(name, 0) / 1e9

    case_s = [ns / 1e9 for ns in merged["case_ns"]] or [0.0]
    m = {
        "counting.pair_table_2.s": (secs("counting.pair_table_2"), "s"),
        "counting.pair_table_2.calls": (c["counting.pair_table_2.calls"], "count"),
        "counting.itab_cache.hit_ratio": (_hit_ratio(c, "counting.pair_table_2"), "ratio"),
        "counting.pair_count_2.s": (secs("counting.pair_count_2"), "s"),
        "counting.triple_count.s": (secs("counting.triple_count"), "s"),
        "counting.target_hist.self_s": (self_ns.get("counting.target_hist", 0) / 1e9, "s"),
        "counting.target_hist.calls": (c["counting.target_hist.calls"], "count"),
        "counting.hist_cache.hit_ratio": (_hit_ratio(c, "counting.target_hist"), "ratio"),
        "counting.hist_conv.s": (secs("counting.hist_conv"), "s"),
        "counting.hist_conv.calls": (c["counting.hist_conv.calls"], "count"),
        "counting.strata.count": (c["counting.strata.count"], "count"),
        "counting.strata_list.s": (secs("counting.strata_list"), "s"),
        "counting.pair_count_odd.s": (secs("counting.pair_count_odd"), "s"),
        "counting.count_reps.s": (secs("counting.count_reps"), "s"),
        "counting.count_reps.calls": (c["counting.count_reps.calls"], "count"),
        "density.local_density.s": (secs("density.local_density"), "s"),
        "density.local_density.calls": (c["density.local_density.calls"], "count"),
        "density.scan_steps_per_density": (
            c["density.scan_steps"] / c["density.local_density.calls"]
            if c["density.local_density.calls"] else 0.0, "ratio"),
        "density.interpolate.s": (secs("density.interpolate"), "s"),
        "density.interpolate.calls": (c["density.interpolate.calls"], "count"),
        "density.poly_cache.hit_ratio": (_hit_ratio(c, "density.interpolate"), "ratio"),
        "poly.lagrange_interpolate.s": (secs("poly.lagrange_interpolate"), "s"),
        "poly.rational_function.s": (secs("poly.rational_function"), "s"),
        "poly.poly_gcd.calls": (c["poly.poly_gcd.calls"], "count"),
        "analytic.a_p_function.s": (secs("analytic.a_p_function"), "s"),
        "analytic.g_p_function.s": (secs("analytic.g_p_function"), "s"),
        "analytic.beta_p_function.s": (secs("analytic.beta_p_function"), "s"),
        "geometry.intersection_pairing.s": (secs("geometry.intersection_pairing"), "s"),
        "geometry.intersection_pairing.calls": (c["geometry.intersection_pairing.calls"], "count"),
        "geometry.geometric_t0_side.s": (secs("geometry.geometric_t0_side"), "s"),
        "lattice.jordan_form.s": (secs("lattice.jordan_form"), "s"),
        "lattice.hyperbolic_cache.hit_ratio": (_hit_ratio(c, "lattice.hyperbolic_lattice"), "ratio"),
        "suites.cases": (c["suites.cases"], "count"),
        "suites.case_s.p50": (statistics.median(case_s), "s"),
        "suites.case_s.max": (max(case_s), "s"),
        "report.render_s": (secs("report.render"), "s"),
        "cli.import_s": (merged["import_ns"] / 1e9, "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    for short in UNIT_LABELS.values():
        name = f"counting.units.{short}"
        m[name] = (c[name], "count")
    m["counting.units.total"] = (c["counting.units.total"], "count")
    return m


def median_layer_metrics(per_rep):
    """Median of each metric over traced repetitions; counts agree exactly,
    so they are taken from the first."""
    out = {}
    for name, (value, unit) in per_rep[0].items():
        if unit != "count":
            value = statistics.median(m[name][0] for m in per_rep)
        out[name] = (value, unit)
    return out


DD, DP, AG, LT = WORKLOADS

# Which workloads must show a nonzero value for each per-layer metric.  A
# zero there means a wrapper missed a binding, so the layer read as free.
EXERCISED = [
    ({DD, DP}, ["counting.pair_table_2.s", "counting.pair_table_2.calls",
                "counting.itab_cache.hit_ratio", "counting.units.p2_pair_table",
                "counting.units.p2_dense_fold", "counting.pair_count_2.s"]),
    ({DD, AG}, ["counting.units.p2_pair_point", "counting.triple_count.s"]),
    ({DP}, ["counting.units.dense_rep_search", "counting.units.rank1_pair_enumeration"]),
    ({DP, AG}, ["counting.target_hist.self_s", "counting.target_hist.calls",
                "counting.hist_cache.hit_ratio", "counting.hist_conv.s",
                "counting.hist_conv.calls", "counting.units.dense_histogram",
                "counting.units.hist_conv", "counting.strata.count", "counting.strata_list.s",
                "counting.units.pair_stratum", "counting.pair_count_odd.s",
                "counting.units.total", "counting.count_reps.s", "counting.count_reps.calls"]),
    ({AG, DD}, ["density.local_density.s", "density.local_density.calls",
                "density.scan_steps_per_density", "lattice.hyperbolic_cache.hit_ratio"]),
    ({AG}, ["density.interpolate.s", "density.interpolate.calls",
            "density.poly_cache.hit_ratio", "poly.lagrange_interpolate.s",
            "analytic.g_p_function.s", "analytic.beta_p_function.s", "lattice.jordan_form.s"]),
    ({LT, AG}, ["poly.rational_function.s", "poly.poly_gcd.calls"]),
    ({LT}, ["analytic.a_p_function.s", "geometry.intersection_pairing.s",
            "geometry.intersection_pairing.calls", "geometry.geometric_t0_side.s"]),
    ({DD, AG, LT}, ["suites.cases", "suites.case_s.p50", "suites.case_s.max"]),
    ({DD, DP, AG, LT}, ["report.render_s", "cli.import_s", "trace.overhead_ratio"]),
]


def missing_layers(metrics, workload):
    """Metrics that read zero on a workload that exercises them."""
    return [
        name
        for where, names in EXERCISED
        if workload in where
        for name in names
        if not metrics[name][0]
    ]
