"""Command-line driver: single density evaluations and verification suites.

Exit codes: 0 success, 1 verification failure or a case that raised,
2 usage or configuration error, 3 budget abort under --strict-budget.
"""

from __future__ import annotations

import argparse
import locale  # noqa: F401 -- argparse's gettext needs it; load it at start-up, not in main
import re
import sys
import time
from fractions import Fraction

from swb.counting import Budget, BudgetExceeded, EngineUnsupported, count_reps
from swb.density import DensityError, local_density, rep_dimension
from swb.lattice import LatticeError, parse_lattice
from swb.report import render_value
from swb.suites import MIN_BUDGET, SUITES, ConfigError, SuiteConfig, check_options, run_suite


def _parse_int_list(text: str) -> tuple:
    """Ranges like '1..60', lists like '2,3,5', or both: '1..4,9,-2..2'."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ".." in chunk:
            lo, hi = chunk.split("..", 1)
            out.extend(range(int(lo), int(hi) + 1))  # inverted ranges are empty
        else:
            out.append(int(chunk))
    return tuple(out)


_LIST_OPTIONS = ("--p", "--N", "--t", "--k")


def _join_negative_values(argv):
    """Rewrite '--t -3..-1' as '--t=-3..-1'.

    argparse reads a token such as '-3..-1' as an option, not as the
    value of the option before it.
    """
    out = []
    for tok in argv:
        if out and out[-1] in _LIST_OPTIONS and re.match(r"-\d", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="swb",
        description="Exact local densities of quadratic lattices and the "
        "intersection ledger of the level-N modular curve.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    dens = sub.add_parser("density", help="evaluate a single local density")
    dens.add_argument("--p", type=int, required=True, help="the prime")
    dens.add_argument("--target", required=True, help="lattice spec, e.g. hyp:4:+")
    dens.add_argument("--source", required=True, help="lattice spec, e.g. diag:1,3")
    dens.add_argument("--d", type=int, default=None, help="fixed precision (else stabilized)")
    dens.add_argument("--d-max", type=int, default=None)
    dens.add_argument("--primitive", action="store_true")
    dens.add_argument("--convention", choices=["A", "B"], default="A")
    dens.add_argument("--budget", type=int, default=2**32)
    dens.add_argument("--format", choices=["text", "json"], default="text")

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=SUITES)
    ver.add_argument("--p", default=None, help="prime list, e.g. 2,3,5")
    ver.add_argument("--N", default=None, help="level range, e.g. 1..60")
    ver.add_argument("--t", default=None, help="nonzero t values, e.g. -10..-1,1..10")
    ver.add_argument("--k", default=None, help="k range, e.g. 1..3")
    ver.add_argument("--d-max", type=int, default=None)
    ver.add_argument("--budget", type=int, default=2**32)
    ver.add_argument("--jobs", type=int, default=1,
                     help="upper bound on worker processes: at most one per case and per CPU")
    ver.add_argument("--convention", choices=["A", "B"], default=None)
    ver.add_argument("--format", choices=["text", "json"], default="text")
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--strict-budget", action="store_true")
    return ap


def _check_density_query(args, target, source):
    """Raise ValueError for a query the engine cannot take as given."""
    for name, L in (("target", target), ("source", source)):
        if not L.is_integral():
            raise ValueError(f"the {name} lattice is not {args.p}-integral")
    if source.rank and source.det_bilinear() == 0:
        raise ValueError("the source lattice is degenerate")
    if args.d is not None and args.d < 0:
        raise ValueError("--d must be >= 0")
    if args.d is not None and args.d_max is not None:
        raise ValueError("--d-max bounds the stabilization scan, which --d skips")
    if args.budget < MIN_BUDGET:
        raise ValueError(f"budget must be >= {MIN_BUDGET}")


def _density_command(args) -> int:
    try:
        target = parse_lattice(args.target, args.p)
        source = parse_lattice(args.source, args.p)
        _check_density_query(args, target, source)
    except (LatticeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    budget = Budget(limit=args.budget)
    lines = {}
    try:
        if args.d is not None:
            cnt = count_reps(
                target, source, args.d, primitive=args.primitive,
                convention=args.convention, budget=budget,
            )
            dim = rep_dimension(target.rank, source.rank)
            lines = {
                "count": cnt,
                "d": args.d,
                "normalized": Fraction(cnt) / Fraction(args.p) ** (args.d * dim),
            }
        else:
            dv = local_density(
                target, source, convention=args.convention,
                primitive=args.primitive, d_max=args.d_max, budget=budget,
            )
            lines = {
                "density": dv.value,
                "stabilized_at": dv.stabilized_at,
                "convention": dv.convention,
            }
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except (DensityError, EngineUnsupported) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.format == "json":
        import json

        print(json.dumps({k: render_value(v) for k, v in lines.items()}, sort_keys=True))
    else:
        for k, v in lines.items():
            print(f"{k}: {render_value(v)}")
    return 0


# grid option -> SuiteConfig field; SUITES says which suite reads which
_GRID_FIELDS = {
    "--p": "primes",
    "--N": "n_values",
    "--t": "t_values",
    "--k": "k_values",
    "--seed": "seed",
    "--convention": "convention",
    "--d-max": "d_max",
}


def _verify_command(args) -> int:
    kwargs = {}
    try:
        for opt, field in _GRID_FIELDS.items():
            value = getattr(args, opt[2:].replace("-", "_"))
            if value is not None:
                kwargs[field] = _parse_int_list(value) if opt in _LIST_OPTIONS else value
        check_options(args.suite, [o for o, f in _GRID_FIELDS.items() if f in kwargs])
        cfg = SuiteConfig(
            suite=args.suite,
            budget=args.budget,
            jobs=args.jobs,
            **kwargs,
        ).validate()
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    t0 = time.time()
    report = run_suite(cfg)
    wall = time.time() - t0
    out = report.to_json() if args.format == "json" else report.to_text()
    print(out)
    print(f"wall time: {wall:.1f}s", file=sys.stderr)
    if report.failed:
        return 1
    if args.strict_budget and report.summary["skipped-budget"]:
        return 3
    return 0


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    if args.command == "density":
        return _density_command(args)
    return _verify_command(args)


if __name__ == "__main__":
    sys.exit(main())
