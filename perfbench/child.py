"""Run one `swb` CLI command in this fresh interpreter and time it.

    python3 perfbench/child.py --trace 0|1 -- <swb arguments>
    python3 perfbench/child.py --probe

The parent reads the monotonic clock just before it spawns this process;
this script reads it again as soon as `import swb.cli` returns, so the
difference is the command's set-up time: interpreter start plus import.
It then calls `swb.cli.main`, lets the report go to stdout, and prints as
its last stderr line `perfbench-record <json>` with the timings and, in a
traced run, the layer statistics.  `--probe` stops after the import.
"""

import sys
import time

t_start = time.monotonic_ns()
import swb.cli  # noqa: E402  (the import is what set-up time measures)

t_imported = time.monotonic_ns()

import json  # noqa: E402


def main(argv):
    record = {"imported_ns": t_imported, "import_ns": t_imported - t_start}
    if argv == ["--probe"]:
        rc = 0
    else:
        if argv[:1] != ["--trace"] or argv[2:3] != ["--"]:
            print("usage: child.py --trace 0|1 -- <swb arguments> | --probe", file=sys.stderr)
            return 2
        recorder = None
        if argv[1] == "1":
            import layers

            recorder = layers.install()
        t0 = time.perf_counter_ns()
        try:
            rc = swb.cli.main(argv[3:])
        except SystemExit as e:  # argparse rejects bad arguments this way
            rc = e.code if isinstance(e.code, int) else 1
        sys.stdout.flush()
        record["wall_ns"] = time.perf_counter_ns() - t0
        if recorder is not None:
            record["layers"] = recorder.snapshot()
    record["rc"] = rc
    print("perfbench-record " + json.dumps(record), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
