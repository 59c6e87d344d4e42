"""Benchmark of the `swb` verification CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the commands of one workload (see workloads.py), each in a fresh
interpreter exactly as a user runs it, so the module-level caches start
cold.  Commands run one at a time, never in a pool.  The whole command
list is repeated while another repetition fits into `--seconds`; there is
always at least one.  Every report is checked before a number is printed.

With `--trace 0` the last stdout line holds the end-to-end metrics:
  wall_s         time to verdict: call into `swb.cli.main` to its return,
                 summed over the commands, median over repetitions;
  setup_s        interpreter spawn until `import swb.cli` returns, summed
                 over the commands: commands x the median of all such
                 samples of the untraced part of the run.  On a shared
                 2-vCPU VM speed swings by about 20% within ten seconds,
                 so the samples are spread over the run: set-up probes
                 (processes that stop after the import) run half before
                 the first command, one before each command of an
                 untraced repetition, and half after the last;
  peak_rss_mb    the largest max-RSS of any command process (os.wait4);
  decided_ratio  cases ending pass or fail / cases attempted;
  verdicts_ok    1 if every command exits 0, every case passes with the
                 recorded case count, and every deep `density --d` value
                 equals the shallow stabilized density and the known value.

With `--trace 1` the untraced repetitions run as above, then two traced
repetitions in which layers.py wraps the swb layers; the last line holds
the per-layer metrics (median of the two, whose exact counts must agree)
and the tracing overhead against the untraced median.  A layer that reads
zero on a workload that exercises it (results.EXERCISED) fails the run.

The line before the last one is a JSON object with provenance (src line
count, Python version, CPUs), per-repetition samples, quartiles and the
sha256 of each report.  Exit status is 2 when the program's sources are
missing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import results
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
RECORD = b"perfbench-record "
RUN_LIMIT_S = 165  # children still running then are killed; the run must end within 180 s
SETUP_PROBES = 15
TRACED_REPS = 2


class Children:
    """Runs child.py processes one at a time, each reaped with os.wait4."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.spawned = []  # every Result, in spawn order

    def spawn(self, args):
        t_spawn = time.monotonic_ns()
        with subprocess.Popen(
            [sys.executable, str(CHILD), *args],
            cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            err = []
            reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
            reader.start()
            out = proc.stdout.read()
            reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
            killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        record = None
        for line in err[0].splitlines():
            if line.startswith(RECORD):
                record = json.loads(line[len(RECORD):])
        setup_ns = record["imported_ns"] - t_spawn if record else None
        result = results.Result(proc.returncode, out, record, usage.ru_maxrss, setup_ns)
        self.spawned.append(result)
        return result

    def probes(self, n):
        for _ in range(n):
            self.spawn(["--probe"])

    def rep(self, cmds, trace):
        """One repetition; an untraced one runs a set-up probe before each command."""
        out = []
        for c in cmds:
            if not trace:
                self.probes(1)
            out.append(self.spawn(["--trace", str(trace), "--", *c.argv]))
        return out


def timed_reps(children, cmds, seconds):
    """Repeat the workload while one more repetition of mean length fits."""
    reps = []
    t0 = time.monotonic()
    while True:
        reps.append(children.rep(cmds, 0))
        elapsed = time.monotonic() - t0
        if elapsed + elapsed / len(reps) > seconds:
            return reps


def sources_present():
    return (SRC / "swb" / "cli.py").is_file()


def src_line_count():
    return sum(len(p.read_bytes().splitlines()) for p in sorted((SRC / "swb").glob("*.py")))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    children = Children(time.monotonic() + RUN_LIMIT_S)
    args = parse_args(argv)
    if not sources_present():
        print(f"perfbench: no swb sources under {SRC}", file=sys.stderr)
        return 2
    for d in (SRC, CHILD.parent):
        if not compileall.compile_dir(str(d), quiet=1):
            print(f"perfbench: byte-compiling {d} failed", file=sys.stderr)
            return 2
    cmds = workloads.commands(args.workload, args.seed)
    children.probes(SETUP_PROBES // 2)
    refs = [
        results.probe_reference(children.spawn(["--trace", "0", "--", *c.shallow_argv()]))
        if c.is_probe else None
        for c in cmds
    ]

    reps = timed_reps(children, cmds, args.seconds)
    children.probes(SETUP_PROBES - SETUP_PROBES // 2)
    setup_ns = [r.setup_ns for r in children.spawned]
    traced = [children.rep(cmds, 1) for _ in range(TRACED_REPS)] if args.trace else []

    verdicts = [[results.judge(c, r, ref) for c, r, ref in zip(cmds, rep, refs)]
                for rep in reps + traced]
    flat = [v for rep in verdicts for v in rep]
    correct = all(v.ok for v in flat) and None not in setup_ns
    walls = results.rep_walls(reps)
    shas = [[results.report_sha256(r.stdout) for r in rep] for rep in reps + traced]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "commands": [" ".join(c.argv) for c in cmds],
        "reps": len(reps),
        "command_wall_s": [[r.record["wall_ns"] / 1e9 if r.record else None for r in rep]
                           for rep in reps],
        "wall_s_quartiles": results.quartiles(walls),
        "report_sha256": shas[0],
        "reports_identical_across_reps": all(s == shas[0] for s in shas),
        "src_lines": src_line_count(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    if not correct:
        details["failures"] = [
            {"command": " ".join(c.argv), "rc": r.rc, "verdict": vars(v)}
            for rep, vs in zip(reps + traced, verdicts)
            for c, r, v in zip(cmds, rep, vs) if not v.ok
        ][:20]
    setup_ns = [s for s in setup_ns if s is not None] or [0]
    details["setup_s_per_command_quartiles"] = [q / 1e9 for q in results.quartiles(setup_ns)]
    if args.trace:
        metrics, trace_ok = traced_metrics(traced, statistics.median(walls), args.workload, details)
        correct = correct and trace_ok
    else:
        metrics = results.end_to_end(reps, flat, setup_ns, len(cmds))
    print(json.dumps({"perfbench": details}, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": sum(v.attempted for v in flat),
        "failed": sum(v.attempted - v.passed for v in flat),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def traced_metrics(traced, untraced_wall_s, workload, details):
    """Per-layer metrics of the traced repetitions, and whether they hold up:
    exact counts must agree between repetitions, and no layer the workload
    exercises may read zero."""
    if not all(r.record and "layers" in r.record for rep in traced for r in rep):
        details["trace_error"] = "a traced command printed no layer record"
        return {}, False
    merged = [
        results.merge_layers([dict(r.record["layers"], import_ns=r.record["import_ns"]) for r in rep])
        for rep in traced
    ]
    counts = [results.layer_counts(m) for m in merged]
    walls = results.rep_walls(traced)
    overhead = statistics.median(walls) / untraced_wall_s
    metrics = results.median_layer_metrics([results.layer_metrics(m, overhead) for m in merged])
    details["layer_counts"] = counts[0]
    details["traced_wall_s"] = walls
    details["counts_repeat"] = all(c == counts[0] for c in counts)
    details["zero_layers"] = results.missing_layers(metrics, workload)
    return metrics, details["counts_repeat"] and not details["zero_layers"]


if __name__ == "__main__":
    sys.exit(main())
