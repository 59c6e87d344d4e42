"""Tests of the benchmark's own parsing, aggregation and tracing code.

    python3 -m pytest perfbench
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import layers
import pytest
import results
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _result(stdout, rc=0, wall_ns=1_000_000_000, maxrss_kb=2048, setup_ns=100):
    record = {"wall_ns": wall_ns, "imported_ns": 0, "import_ns": 1}
    return results.Result(rc, json.dumps(stdout).encode(), record, maxrss_kb, setup_ns)


def _report(*statuses):
    return {"schema": "swb/1", "cases": [{"status": s} for s in statuses]}


VERIFY = workloads.Command(("verify", "x"), cases=3)
PROBE = workloads.Command(("density", "--p", "2", "--d", "7"), 1, Fraction(105, 128))


def test_judge_all_pass():
    assert results.judge(VERIFY, _result(_report("pass", "pass", "pass"))) == results.Verdict(
        3, 3, 3, True
    )


@pytest.mark.parametrize(
    "statuses, rc, decided, passed",
    [
        (("pass", "fail", "pass"), 1, 3, 2),  # a failed identity is decided
        (("pass", "skipped-budget", "pass"), 0, 2, 2),  # a skip is undecided
        (("pass", "pass"), 0, 2, 2),  # a lost case fails the recorded count
    ],
)
def test_judge_rejects(statuses, rc, decided, passed):
    v = results.judge(VERIFY, _result(_report(*statuses), rc=rc))
    assert (v.attempted, v.decided, v.passed, v.ok) == (3, decided, passed, False)


def test_judge_crash_is_undecided():
    crashed = results.Result(-9, b'{"cases": [', None, 1024, None)
    assert results.judge(VERIFY, crashed) == results.Verdict(3, 0, 0, False)


def test_judge_probe_needs_reference_and_known_value():
    out = {"count": "1", "d": "7", "normalized": "105/128"}
    assert results.judge(PROBE, _result(out), Fraction(105, 128)).ok
    assert not results.judge(PROBE, _result(out), Fraction(135, 128)).ok
    wrong = dict(out, normalized="135/128")
    v = results.judge(PROBE, _result(wrong), Fraction(135, 128))
    assert (v.decided, v.ok) == (1, False)


def test_probe_reference_parses_density():
    assert results.probe_reference(_result({"density": "33/32"})) == Fraction(33, 32)
    assert results.probe_reference(_result({"density": "33/32"}, rc=2)) is None
    assert results.probe_reference(_result({})) is None


def test_quartiles_match_statistics():
    assert results.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert results.quartiles([1, 2, 3, 4, 5]) == (1.5, 3, 4.5)


def test_end_to_end():
    reps = [
        [_result({}, wall_ns=2_000_000_000, maxrss_kb=4096), _result({}, wall_ns=1_000_000_000)],
        [_result({}, wall_ns=1_000_000_000), _result({}, wall_ns=1_000_000_000)],
        [_result({}, wall_ns=4_000_000_000), _result({}, wall_ns=1_000_000_000)],
    ]
    verdicts = [results.Verdict(3, 3, 3, True)] * 5 + [results.Verdict(3, 2, 2, False)]
    m = results.end_to_end(reps, verdicts, [100, 300, 200], n_commands=2)
    assert m["wall_s"] == (3.0, "s")
    assert m["setup_s"] == (2 * 200 / 1e9, "s")
    assert m["peak_rss_mb"] == (4.0, "MB")
    assert m["decided_ratio"] == (17 / 18, "ratio")
    assert m["verdicts_ok"] == (0, "bool")


def _snap(**over):
    snap = {"calls": {}, "returned": {}, "total_ns": {}, "self_ns": {}, "counts": {},
            "units": {}, "caches": {}, "case_ns": [], "import_ns": 5}
    snap.update(over)
    return snap


def test_merge_and_layer_metrics():
    a = _snap(calls={"counting.target_hist": 10, "counting.pair_table_2": 4},
              returned={"counting.target_hist": 10, "counting.pair_table_2": 3},
              total_ns={"counting.pair_table_2": 3_000_000_000},
              units={"p=2 pair table": 100, "hist conv": 7, "new label": 1},
              caches={"hist": 4, "itab": 1}, case_ns=[1, 3])
    b = _snap(calls={"counting.target_hist": 10, "density.local_density": 2,
                     "counting.count_reps": 9},
              returned={"counting.target_hist": 10},
              counts={"density.scan_steps": 6}, caches={"hist": 1, "itab": 0}, case_ns=[2])
    merged = results.merge_layers([a, b])
    m = results.layer_metrics(merged, overhead_ratio=1.25)
    assert m["counting.pair_table_2.s"] == (3.0, "s")
    assert m["counting.hist_cache.hit_ratio"] == (15 / 20, "ratio")
    assert m["counting.itab_cache.hit_ratio"] == (2 / 4, "ratio")  # a raised call misses
    assert m["counting.units.p2_pair_table"] == (100, "count")
    assert m["counting.units.total"] == (108, "count")  # unmapped labels still count
    assert m["density.scan_steps_per_density"] == (3.0, "ratio")
    assert m["suites.cases"] == (3, "count")
    assert m["suites.case_s.max"] == (3e-9, "s")
    assert m["cli.import_s"] == (10e-9, "s")
    assert m["lattice.hyperbolic_cache.hit_ratio"] == (0.0, "ratio")  # never called
    assert m["trace.overhead_ratio"] == (1.25, "ratio")


def test_median_layer_metrics_keeps_counts_exact():
    reps = [{"x.s": (1.0, "s"), "x.calls": (7, "count")},
            {"x.s": (2.0, "s"), "x.calls": (7, "count")}]
    assert results.median_layer_metrics(reps) == {"x.s": (1.5, "s"), "x.calls": (7, "count")}


def test_missing_layers_names_zero_layers_of_the_workload():
    m = results.layer_metrics(results.merge_layers([_snap()]), overhead_ratio=1.1)
    missing = results.missing_layers(m, "ledger-t0")
    assert "geometry.intersection_pairing.calls" in missing
    assert "counting.pair_table_2.s" not in missing
    assert "trace.overhead_ratio" not in missing


def test_every_exercised_metric_exists():
    m = results.layer_metrics(results.merge_layers([_snap()]), overhead_ratio=1.0)
    for where, names in results.EXERCISED:
        assert where <= set(workloads.WORKLOADS)
        assert set(names) <= set(m)


def test_benchmark_json_lists_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    m = results.layer_metrics(results.merge_layers([_snap()]), overhead_ratio=1.0)
    assert [p["name"] for p in spec["per_layer"]] == list(m)
    assert {p["name"]: p["unit"] for p in spec["per_layer"]} == {k: u for k, (_, u) in m.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_workloads_are_seeded():
    for w in workloads.WORKLOADS:
        assert workloads.commands(w, 3) == workloads.commands(w, 3)
    seeds = {tuple(workloads.commands("depth-probe", s)) for s in range(20)}
    assert len(seeds) > 1
    for cmd in workloads.commands("depth-probe", 5):
        assert "--d" not in cmd.shallow_argv() and cmd.expect is not None
    fe = workloads.commands("analytic-grid", 9)[2]
    assert fe.argv[fe.argv.index("--seed") + 1] == "9"


def test_recorder_spans_collapse_recursion_and_derive_self_time():
    rec = layers.Recorder()

    def conv():
        return None

    conv = rec.span("counting.hist_conv", conv)

    def hist(n):
        if n:
            hist(n - 1)
            conv()

    hist = rec.span("counting.target_hist", hist)
    hist(3)
    assert rec.calls["counting.target_hist"] == 4
    assert rec.calls["counting.hist_conv"] == 3
    assert rec.total_ns["counting.target_hist"] >= rec.total_ns["counting.hist_conv"]
    assert rec.self_ns["counting.target_hist"] == (
        rec.total_ns["counting.target_hist"] - rec.total_ns["counting.hist_conv"]
    )


def test_recorder_counts_returns_apart_from_raises():
    rec = layers.Recorder()

    def table(n):
        if n < 0:
            raise ValueError("over budget")
        if n:
            table(n - 1)

    table = rec.span("counting.pair_table_2", table)
    table(2)
    with pytest.raises(ValueError):
        table(-1)
    assert rec.calls["counting.pair_table_2"] == 4
    assert rec.returned["counting.pair_table_2"] == 3


def test_recorder_counts_scan_steps_and_strata():
    rec = layers.Recorder()
    count = rec.span("counting.count_reps", lambda: 1)
    strata = rec.span("counting.strata_list", lambda: [(0, 1), (1, 0)])

    def scan():
        count()
        count()
        strata()

    rec.span("density.local_density", scan)()
    count()
    assert rec.counts["density.scan_steps"] == 2
    assert rec.counts["counting.strata"] == 2
    assert rec.calls["counting.count_reps"] == 3


def test_traced_child_wraps_every_binding():
    """A traced command through every module-level alias of count_reps."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    args = ["density", "--p", "3", "--target", "hyp:4:+", "--source", "diag:1,3",
            "--format", "json"]
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--trace", "1", "--", *args],
        env=env, capture_output=True, timeout=120, check=True,
    )
    line = proc.stderr.decode().splitlines()[-1]
    record = json.loads(line.split(" ", 1)[1])
    snap = record["layers"]
    assert record["rc"] == 0 and json.loads(proc.stdout)["density"]
    # the CLI calls local_density through swb.cli's own binding, which
    # calls count_reps through swb.density's binding
    assert snap["calls"]["density.local_density"] == 1
    assert snap["counts"]["density.scan_steps"] == snap["calls"]["counting.count_reps"] > 0
    assert snap["caches"]["hist"] > 0 and sum(snap["units"].values()) > 0
