"""Command-line driver: single density evaluations and verification suites.

Exit codes: 0 success, 1 verification failure or a case that raised,
2 usage or configuration error, 3 budget abort under --strict-budget.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from types import SimpleNamespace

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


# One table per command: option -> (type, default, choices, required,
# SuiteConfig field, help).  Type None marks a flag, which takes no value;
# a name without dashes is a positional argument.  The verify grid options
# name the field they set, in the order check_options reports them, and
# SUITES says which suite reads which.
_DENSITY_OPTIONS = {
    "--p": (int, None, None, True, None, "the prime"),
    "--target": (str, None, None, True, None, "lattice spec, e.g. hyp:4:+"),
    "--source": (str, None, None, True, None, "lattice spec, e.g. diag:1,3"),
    "--d": (int, None, None, False, None, "fixed precision (else stabilized)"),
    "--d-max": (int, None, None, False, None, "deepest precision of the stabilization scan"),
    "--primitive": (None, False, None, False, None, "count primitive representations only"),
    "--convention": (str, "A", ("A", "B"), False, None, "congruence convention"),
    "--budget": (int, 2**32, None, False, None, "total enumeration work, at least 10^6"),
    "--format": (str, "text", ("text", "json"), False, None, "report format"),
}
_VERIFY_OPTIONS = {
    "suite": (str, None, SUITES, True, None, "the suite to run"),
    "--p": (_parse_int_list, None, None, False, "primes", "prime list, e.g. 2,3,5"),
    "--N": (_parse_int_list, None, None, False, "n_values", "level range, e.g. 1..60"),
    "--t": (_parse_int_list, None, None, False, "t_values", "nonzero t list, e.g. -10..-1,1..10"),
    "--k": (_parse_int_list, None, None, False, "k_values", "k range, e.g. 1..3"),
    "--seed": (int, None, None, False, "seed", "seed of functional-equation's random cases"),
    "--convention": (str, None, ("A", "B"), False, "convention",
                     "congruence convention, A if not given"),
    "--d-max": (int, None, None, False, "d_max", "density-calibration's deepest scan precision"),
    "--budget": (int, 2**32, None, False, None, "total enumeration work per case, at least 10^6"),
    "--jobs": (int, 1, None, False, None,
               "upper bound on worker processes: at most one per case and per CPU"),
    "--format": (str, "text", ("text", "json"), False, None, "report format"),
    "--strict-budget": (None, False, None, False, None, "exit 3 if a case exceeded the budget"),
}
_METAVARS = {int: "INT", str: "TEXT", _parse_int_list: "LIST"}


def _attr(opt):
    """The namespace attribute of an option: '--d-max' -> 'd_max'."""
    return opt.lstrip("-").replace("-", "_")


def _parse(table, argv):
    """The options in `argv` read by `table`, as a namespace; None for -h.

    Raises ValueError naming the option for every usage error.
    """
    values = {}
    positionals = [opt for opt in table if not opt.startswith("-")]
    tokens = iter(argv)
    for tok in tokens:
        if tok in ("-h", "--help"):
            return None
        if not tok.startswith("-"):
            if not positionals:
                raise ValueError(f"unexpected argument {tok!r}")
            opt, value = positionals.pop(0), tok
        else:
            opt, eq, value = tok.partition("=")
            if opt not in table:
                raise ValueError(f"unknown option {opt}")
            if table[opt][0] is None:
                if eq:
                    raise ValueError(f"{opt} takes no value")
                values[opt] = True
                continue
            if not eq:
                # the next token, even one that starts with '-' ('--t -3..-1')
                value = next(tokens, None)
                if value is None:
                    raise ValueError(f"{opt} needs a value")
        kind, _, choices = table[opt][:3]
        try:
            value = kind(value)
        except ValueError:
            raise ValueError(f"{opt} takes {_METAVARS[kind]}, got {value!r}") from None
        if choices is not None and value not in choices:
            raise ValueError(f"{opt} must be one of {', '.join(choices)}; got {value!r}")
        values[opt] = value
    for opt, (_, default, _, required, _, _) in table.items():
        if opt not in values:
            if required:
                raise ValueError(f"{opt} is required")
            values[opt] = default
    return SimpleNamespace(**{_attr(opt): value for opt, value in values.items()})


def _help(command, table) -> str:
    positionals = [opt.upper() for opt in table if not opt.startswith("-")]
    lines = [" ".join(["usage: swb", command, *positionals, "[options]"])]
    for opt, (kind, default, choices, required, _, text) in table.items():
        if not opt.startswith("-"):
            text += ": " + ", ".join(choices)
            opt = opt.upper()
        elif kind is not None:
            opt += " " + ("|".join(choices) if choices else _METAVARS[kind])
        if required:
            text += " (required)"
        elif default:
            text += f" (default {default})"
        lines.append(f"  {opt:<22} {text}")
    return "\n".join(lines)


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


def _verify_command(args) -> int:
    kwargs, given = {}, []
    for opt, (_, _, _, _, field, _) in _VERIFY_OPTIONS.items():
        value = getattr(args, _attr(opt))
        if field is not None and value is not None:
            kwargs[field] = value
            given.append(opt)
    try:
        check_options(args.suite, given)
        cfg = SuiteConfig(
            suite=args.suite,
            budget=args.budget,
            jobs=args.jobs,
            **kwargs,
        ).validate()
    except ConfigError as e:
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


# command -> (runner, option table, summary)
_COMMANDS = {
    "density": (_density_command, _DENSITY_OPTIONS, "evaluate a single local density"),
    "verify": (_verify_command, _VERIFY_OPTIONS, "run a verification suite"),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        print("usage: swb COMMAND [options]; swb COMMAND -h lists its options")
        for name, (_, _, summary) in _COMMANDS.items():
            print(f"  {name:<10} {summary}")
        return 0
    if command not in _COMMANDS:
        what = f"unknown command {command!r}" if command else "no command"
        print(f"swb: {what}; choose from {', '.join(_COMMANDS)}", file=sys.stderr)
        return 2
    run, table, _ = _COMMANDS[command]
    try:
        args = _parse(table, argv[1:])
    except ValueError as e:
        print(f"swb {command}: {e}", file=sys.stderr)
        return 2
    if args is None:
        print(_help(command, table))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
