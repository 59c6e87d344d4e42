"""Check that the benchmark's end-to-end metrics are steady across seeds.

    python3 perfbench/steadiness.py [--first-seed 1]

Runs `run.py --trace 0` once per (seed, workload) for ten seeds from
`--first-seed` and every workload of BENCHMARK.json, workloads
interleaved within each seed so that drift in machine load reaches all
of them alike, and prints for each workload and metric the median and
the spread: the distance between the first and third quartile of the
values, as a share of their median.  A spread passes when it is below a
third of the metric's bound in BENCHMARK.json.  The last stdout line is
the whole table as JSON.  Exit status is 1 when a run fails or reports
`correct: false`, or a spread does not pass.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import results

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = 10


def run_once(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=ROOT, capture_output=True, check=True, timeout=600,
    )
    return json.loads(proc.stdout.decode().splitlines()[-1])


def spread(values):
    q1, med, q3 = results.quartiles(values)
    return med, (q3 - q1) / med if med else 0.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    names = [w["name"] for w in SPEC["workloads"]]
    values = {w: {m["name"]: [] for m in SPEC["end_to_end"]} for w in names}
    ok = True
    for seed in range(args.first_seed, args.first_seed + SEEDS):
        for w in names:
            out = run_once(w, seed)
            ok = ok and out["correct"]
            for name, v in out["metrics"].items():
                values[w][name].append(v["value"])
            print(w, seed, {k: round(v["value"], 4) for k, v in out["metrics"].items()},
                  flush=True)
    table = {}
    for w in names:
        for m in SPEC["end_to_end"]:
            med, sp = spread(values[w][m["name"]])
            steady = sp < m["bound"] / 3
            ok = ok and steady
            table[f"{w}/{m['name']}"] = {"median": med, "spread": sp, "bound": m["bound"],
                                        "steady": steady, "values": values[w][m["name"]]}
            print(f"{w:18} {m['name']:14} median {med:10.4f}  spread {sp:.4f}  "
                  f"bound/3 {m['bound'] / 3:.4f}  {'ok' if steady else 'WIDE'}")
    print(json.dumps(table, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
