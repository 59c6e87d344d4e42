import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import swb
from swb.cli import _DENSITY_OPTIONS, _VERIFY_OPTIONS, _parse_int_list, main
from swb.report import CaseResult, VerificationReport
from swb.suites import SUITES, ConfigError, SuiteConfig, check_options, run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_package_exports_resolve():
    missing = [name for name in swb.__all__ if not hasattr(swb, name)]
    assert not missing


def test_parse_int_list():
    assert _parse_int_list("1..4") == (1, 2, 3, 4)
    assert _parse_int_list("2,3,5") == (2, 3, 5)
    assert _parse_int_list("-2..2") == (-2, -1, 0, 1, 2)
    assert _parse_int_list("1..3,9") == (1, 2, 3, 9)
    assert _parse_int_list("5..4") == ()


def test_density_command(capsys):
    code, out, err = run_cli(
        capsys, "density", "--p", "3", "--d", "2", "--target", "hyp:2:+", "--source", "diag:1"
    )
    assert code == 0
    assert "count: 6" in out
    assert "normalized: 2/3" in out


def test_density_stabilized_json(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--p", "3", "--target", "hyp:4:+", "--source", "diag:1,3",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["density"] == "64/81"
    assert "/" in data["density"] and "." not in data["density"]


@pytest.mark.parametrize(
    "depth, count",
    [
        (("--d", "8"), "59109745109237760"),
        (("--d", "9"), "7566047373982433280"),
        (("--d", "11"), "123962120175328186859520"),
        (("--d", "13"), "2030995376952577013506375680"),
        (("--d", "14"), "259967408249929857728816087040"),
        (("--d", "7", "--convention", "B"), "461794883665920"),
        (("--d", "8", "--convention", "B"), "59109745109237760"),
    ],
    ids=["d8-A", "d9-A", "d11-A", "d13-A", "d14-A", "d7-B", "d8-B"],
)
def test_density_deep_dyadic_pair(capsys, depth, count):
    # p = 2 pair counts beyond the engine-vs-literal cross-checks, pinned to
    # the counts of earlier pair-table layouts (one table per stratum, then
    # one per class of gamma with one row per delta) and, for d = 11, 13
    # and 14, of the dense (x0, y0) fold over one x0 per unit orbit
    code, out, _ = run_cli(
        capsys, "density", "--p", "2", "--target", "sum:diag:-3+hyp:4:+",
        "--source", "diag:1,2", *depth, "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == count
    assert data["normalized"] == "105/128"


@pytest.mark.parametrize(
    "argv, count, normalized",
    [
        (("--d", "9", "--source", "diag:1,3"), "2181733315085776088727552", "231/256"),
        (("--d", "8", "--convention", "B", "--source", "diag:2,6"),
         "6537064931120822353920", "2835/2048"),
        (("--d", "10", "--source", "diag:2,6"), "1713652349303736855146004480", "2835/2048"),
        (("--d", "10", "--source", "diag:1,4"), "1142434899535824570097336320", "945/1024"),
    ],
    ids=["d9-A-1,3", "d8-B-2,6", "d10-A-2,6", "d10-A-1,4"],
)
def test_density_deep_dyadic_pure_hyperbolic_pair(capsys, argv, count, normalized):
    # pure-H p = 2 pair counts, pinned to the counts of the per-stratum
    # point evaluation with its dense H^(r-1) array
    code, out, _ = run_cli(
        capsys, "density", "--p", "2", "--target", "hyp:6:+", *argv, "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == count
    assert data["normalized"] == normalized


@pytest.mark.parametrize(
    "argv, count, normalized",
    [
        (("--p", "3", "--d", "60", "--target", "sum:diag:-27+hyp:4:+", "--source", "diag:1,9"),
         "242958417618571829085326057679799638953909864101097089118657576353426369009369733999971"
         "150253825685468453288634042054373106905274316045206674300462722865311515671648112984389"
         "829418026080514877479577680", "80/81"),
        (("--p", "5", "--d", "40", "--target", "sum:diag:-125+hyp:4:+", "--source", "diag:1,50"),
         "553465392019602469278300137691675997904772972574346646379082558818177575275912378593144"
         "706948602455925816324380093819993703909539439303224385721067255308747157016568962717428"
         "8034439086914062500000", "672/625"),
    ],
    ids=["p3-d60", "p5-d40"],
)
def test_density_deep_odd_pair(capsys, argv, count, normalized):
    # deep odd-p pair counts on <w> + H^2 with w of valuation 3, pinned to
    # the counts of the per-precision rest profile (one histogram of R at
    # every precision v <= e)
    code, out, _ = run_cli(capsys, "density", *argv, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == count
    assert data["normalized"] == normalized


def test_density_deep_odd_source_order(capsys):
    # either order stratifies the value of least valuation, with one host
    # per (content, square class of the q-value): the two orders give the
    # same report and the pinned count
    for d, a, b, count in [
        (24, 3**12, 1, "2128329223777128505672511720039014006311037942852328658864"),
        (40, 3**20, 1, "314799098995866535296569719319956787573428802650483544838624"
                       "336539098849083615642803500668840624"),
        (40, 3**19, 3**20, "61386344096209145791160521195464860290730193868046282337249"
                           "29602695471828678958384666095585621120"),
    ]:
        outs = []
        for source in (f"diag:{a},{b}", f"diag:{b},{a}"):
            code, out, _ = run_cli(
                capsys, "density", "--p", "3", "--d", str(d), "--target", "hyp:4:+",
                "--source", source, "--format", "json",
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["count"] == count, (d, a, b)


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (("--p", "3", "--target", "hyp:6:+", "--source", "hyp:2:+"), "density", "260/243"),
        (("--p", "3", "--d", "4", "--target", "hyp:6:+", "--source", "hyp:2:+"),
         "count", "160595083033826220"),
        (("--p", "5", "--d", "3", "--target", "hyp:5:-", "--source", "sum:diag:1+hyp:2:+"),
         "count", "5950927734375000000"),
        (("--p", "3", "--d", "11", "--target", "diag:1,1,1", "--source", "diag:1,1"),
         "count", "4941387170271576"),
    ],
    ids=["scan-split-source", "d-split-source", "d-split-mixed-source", "constrained-host"],
)
def test_density_reads_jordan_splits(capsys, argv, key, value):
    # the readers of jordan_form: a non-diagonal source split once per scan
    # (_split_source) or per query (_engine_source), and the dense host of a
    # constrained first vector; pinned to the counts of the (unit, exponent)
    # Jordan form with its own determinant pass
    code, out, _ = run_cli(capsys, "density", *argv, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[key] == value
    if key == "density":
        assert data["stabilized_at"] == "1"


def test_density_budget_stops_deep_pure_hyperbolic_pair(capsys, monkeypatch):
    # at d = 30 one host row has 2^30 pairs: the budget stops the query
    # before any row is enumerated
    import swb.counting as counting

    monkeypatch.setattr(counting, "_ITAB_CACHE", {})
    code, _, err = run_cli(
        capsys, "density", "--p", "2", "--d", "30", "--target", "hyp:6:+",
        "--source", "diag:1,3", "--budget", "1000000",
    )
    assert code == 3
    assert "budget exceeded" in err and "p=2 pair table" in err
    assert not counting._ITAB_CACHE


@pytest.mark.parametrize(
    "argv",
    [
        ("--target", "spam:1", "--source", "diag:1"),
        ("--target", "hyp:2:+", "--source", "diag:0"),
        ("--target", "hyp:2:+", "--source", "diag:0", "--d", "2"),
        ("--target", "hyp:2:+", "--source", "diag:1", "--d", "-1"),
        ("--target", "diag:1/3", "--source", "diag:1"),
        ("--target", "hyp:2:+", "--source", "diag:1/3", "--d", "2"),
        ("--target", "hyp:2:+", "--source", "diag:1", "--d", "2", "--d-max", "9"),
        ("--target", "hyp:2:+", "--source", "diag:1", "--d", "2", "--budget", "0"),
        ("--target", "hyp:2:+", "--source", "diag:1", "--budget", "-5"),
        ("--target", "hyp:2:+", "--source", "diag:1", "--budget", str(10**6 - 1)),
    ],
    ids=[
        "unknown-spec", "degenerate-source", "degenerate-source-d", "negative-d",
        "non-integral-target", "non-integral-source-d", "d-with-d-max",
        "zero-budget", "negative-budget", "budget-below-floor",
    ],
)
def test_density_bad_spec(capsys, argv):
    code, _, err = run_cli(capsys, "density", "--p", "3", *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("source", ["hyp:2:+", "sum:diag:1+hyp:2:+"])
@pytest.mark.parametrize("extra", [(), ("--primitive",), ("--d", "3")], ids=["scan", "primitive", "d"])
def test_density_non_diagonal_source_p2(capsys, source, extra):
    # the engine takes diagonal sources only at p = 2, and so does the
    # stabilization scan's start depth: both exit 2 with the same line
    code, _, err = run_cli(
        capsys, "density", "--p", "2", "--target", "hyp:4:+", "--source", source, *extra
    )
    assert code == 2
    assert err == "error: non-diagonal source at p=2\n"


def test_verify_empty_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "siegel-weil-t0", "--N", "5..4")
    assert code == 0
    assert "0 fail" in out


def test_verify_small_flagship(capsys):
    code, out, _ = run_cli(capsys, "verify", "siegel-weil-t0", "--N", "1..6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "swb/1"
    assert data["summary"]["fail"] == 0
    assert data["summary"]["pass"] > 0
    kinds = {c["kind"] for c in data["cases"]}
    assert "siegel-weil-t0" in kinds and "incoherence-vanishing" in kinds


def test_verify_budget_skip(capsys):
    # an oversized t forces histograms beyond the minimal budget: such
    # cases get skipped with a work estimate; exit stays 0 without
    # --strict-budget
    big_t = str(2**21)
    code, out, _ = run_cli(
        capsys, "verify", "singular-relation", "--p", "2", "--t", big_t,
        "--budget", str(10**6), "--format", "json",
    )
    data = json.loads(out)
    assert code == 0
    assert data["summary"]["fail"] == 0
    assert data["summary"]["skipped-budget"] > 0
    notes = [c["note"] for c in data["cases"] if c["status"] == "skipped-budget"]
    assert any("needs" in n for n in notes)


def test_verify_strict_budget_exit(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "singular-relation", "--p", "2", "--t", str(2**21),
        "--budget", str(10**6), "--strict-budget",
    )
    assert code == 3


def test_config_validation():
    with pytest.raises(ConfigError):
        SuiteConfig(suite="nope").validate()
    with pytest.raises(ConfigError):
        SuiteConfig(suite="siegel-weil-t0", d_max=1).validate()
    with pytest.raises(ConfigError):
        SuiteConfig(suite="siegel-weil-t0", budget=10).validate()
    with pytest.raises(ConfigError):
        SuiteConfig(suite="siegel-weil-t0", jobs=0).validate()
    for primes in [(4,), (2, 9), (1,), (0,), (-3,)]:
        with pytest.raises(ConfigError, match="not a prime"):
            SuiteConfig(suite="level-lowering", primes=primes).validate()
    for n_values in [(0, 1, 2, 3), (-1,)]:
        with pytest.raises(ConfigError, match="N must be >= 1"):
            SuiteConfig(suite="siegel-weil-t0", n_values=n_values).validate()
    with pytest.raises(ConfigError, match="t must be nonzero"):
        SuiteConfig(suite="singular-relation", t_values=(0,)).validate()
    with pytest.raises(ConfigError, match="t must be nonzero"):
        SuiteConfig(suite="singular-relation", t_values=(-1, 0, 1)).validate()
    for suite in SUITES:
        if suite != "density-calibration":
            with pytest.raises(ConfigError, match="d_max applies only"):
                SuiteConfig(suite=suite, d_max=5).validate()
    SuiteConfig(suite="density-calibration", d_max=5).validate()
    with pytest.raises(ConfigError, match="d_max must be >= 2"):
        SuiteConfig(suite="density-calibration", d_max=1).validate()
    SuiteConfig(suite="level-lowering", primes=(2, 3, 7)).validate()
    SuiteConfig(suite="siegel-weil-t0", n_values=()).validate()


@pytest.mark.parametrize(
    "argv",
    [
        ("level-lowering", "--p", "4"),
        ("geometry-ledger", "--N", "0..3"),
        ("siegel-weil-t0", "--N", "0..3"),
        ("singular-relation", "--t", "0"),
        ("singular-relation", "--t=-2..2"),
        ("level-lowering", "--d-max", "5"),
        ("singular-relation", "--t", "-2..2"),
        # a repeated grid value would run its cases twice
        ("singular-relation", "--p", "3", "--t", "1,1"),
        ("level-lowering", "--p", "2,2"),
        ("geometry-ledger", "--N", "6,6"),
        ("singular-relation", "--k", "1..3,2"),
    ],
)
def test_verify_bad_prime_or_level_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("config error:")


def test_config_rejects_repeated_grid_values():
    for field, values, opt, dup in [
        ("primes", (3, 5, 3), "--p", 3),
        ("n_values", (1, 2, 2), "--N", 2),
        ("t_values", (-1, 1, -1), "--t", -1),
        ("k_values", (1, 2, 3, 2), "--k", 2),
    ]:
        with pytest.raises(ConfigError, match=f"^{opt} lists {dup} twice$"):
            SuiteConfig(suite="singular-relation", **{field: values}).validate()


DENSITY_ARGV = ("--p", "3", "--d", "2", "--target", "hyp:2:+", "--source", "diag:1")
VERIFY_ARGV = ("singular-relation", "--p", "3", "--t", "-3..-1", "--k", "1")


def _joined(argv):
    """`argv` with every '--opt value' pair written as '--opt=value'."""
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1]:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


@pytest.mark.parametrize(
    "command, argv", [("density", DENSITY_ARGV), ("verify", VERIFY_ARGV)],
    ids=["density", "verify"],
)
def test_option_equals_value_same_report(capsys, command, argv):
    # '--t -3..-1' is read as written: a value-taking option always takes
    # the next token, even one that starts with '-'
    code, spaced, _ = run_cli(capsys, command, *argv, "--format", "json")
    assert code == 0
    assert run_cli(capsys, command, *_joined(argv), "--format=json")[:2] == (0, spaced)
    if command == "verify":
        assert {c["inputs"]["t"] for c in json.loads(spaced)["cases"]} == {"-3", "-2", "-1"}


def test_repeated_option_last_wins(capsys):
    code, out, _ = run_cli(capsys, "density", *DENSITY_ARGV, "--d", "9", "--d", "2")
    assert code == 0 and "count: 6" in out
    code, out, _ = run_cli(
        capsys, "verify", "level-lowering", "--p", "7", "--format", "text", "--p=5",
        "--format", "json",
    )
    assert code == 0 and json.loads(out)["config"]["primes"] == "[5]"


@pytest.mark.parametrize(
    "command, table", [("density", _DENSITY_OPTIONS), ("verify", _VERIFY_OPTIONS)],
    ids=["density", "verify"],
)
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_option(capsys, command, table, flag):
    code, out, err = run_cli(capsys, command, flag)
    assert code == 0 and err == ""
    listed = [line.split()[0] for line in out.splitlines()[1:]]
    assert listed == [opt if opt.startswith("-") else opt.upper() for opt in table]
    code, out, err = run_cli(capsys, flag)
    assert code == 0 and err == "" and "density" in out and "verify" in out


@pytest.mark.parametrize(
    "argv, names",
    [
        ((), "no command"),
        (("spam",), "'spam'"),
        (("verify",), "suite"),
        (("verify", "nope"), "suite"),
        (("verify", "level-lowering", "--q", "3"), "--q"),
        (("verify", "level-lowering", "--conv", "A"), "--conv"),
        (("density", *DENSITY_ARGV, "--conv", "A"), "--conv"),
        (("verify", "level-lowering", "--p"), "--p"),
        (("density", *DENSITY_ARGV, "--d"), "--d"),
        (("verify", "level-lowering", "--jobs", "two"), "--jobs"),
        (("verify", "singular-relation", "--t", "1..x"), "--t"),
        (("density", *DENSITY_ARGV, "--budget=1e9"), "--budget"),
        (("verify", "level-lowering", "--format", "xml"), "--format"),
        (("density", *DENSITY_ARGV, "--convention", "C"), "--convention"),
        (("density", "--p", "3", "--target", "hyp:2:+"), "--source"),
        (("density", *DENSITY_ARGV, "--primitive=yes"), "--primitive"),
        (("verify", "level-lowering", "geometry-ledger"), "'geometry-ledger'"),
    ],
    ids=[
        "no-command", "unknown-command", "no-suite", "unknown-suite", "unknown-option",
        "verify-prefix", "density-prefix", "missing-list-value", "missing-int-value",
        "bad-int", "bad-list", "bad-int-equals", "bad-choice", "bad-convention",
        "missing-required", "flag-with-value", "extra-positional",
    ],
)
def test_usage_errors_exit_2(capsys, argv, names):
    # one stderr line naming the option, nothing on stdout, no SystemExit;
    # an abbreviation such as --conv is an unknown option, not a prefix
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and names in err
    assert "Traceback" not in err


# the grid options each suite reads; every other one is rejected
SUITE_READS = {
    "density-calibration": {"--p", "--convention", "--d-max"},
    "difference-formula": {"--p", "--convention"},
    "functional-equation": {"--p", "--convention", "--seed"},
    "singular-relation": {"--p", "--t", "--k", "--convention"},
    "level-lowering": {"--p", "--convention"},
    "geometry-ledger": {"--N"},
    "siegel-weil-t0": {"--N"},
}
GRID_VALUES = {
    "--p": "3", "--N": "1..5", "--t": "7", "--k": "2", "--seed": "4",
    "--convention": "A", "--d-max": "5",
}


@pytest.mark.parametrize(
    "suite,opt",
    [(suite, opt) for suite in SUITES for opt in GRID_VALUES if opt not in SUITE_READS[suite]],
)
def test_verify_rejects_unread_option(capsys, suite, opt):
    code, out, err = run_cli(capsys, "verify", suite, opt, GRID_VALUES[opt])
    assert code == 2
    assert out == ""
    assert err.startswith("config error:") and f"does not read {opt};" in err


def test_verify_option_table(capsys):
    for suite in SUITES:
        check_options(suite, sorted(SUITE_READS[suite]))
    # every ignored option is named: a level-lowering call with four of
    # them, and the geometry ledger asked for a prime it would not use
    code, _, err = run_cli(
        capsys, "verify", "level-lowering", "--N", "1..5", "--t", "7", "--k", "9", "--seed", "4"
    )
    assert code == 2 and "does not read --N, --t, --k, --seed;" in err
    code, _, err = run_cli(capsys, "verify", "geometry-ledger", "--p", "7")
    assert code == 2 and "does not read --p;" in err
    # a default passed explicitly is still an option the suite reads
    code, out, _ = run_cli(
        capsys, "verify", "level-lowering", "--p", "5", "--convention", "A", "--format", "json"
    )
    assert code == 0 and json.loads(out)["summary"]["pass"] == 4


def test_functional_equation_reads_only_the_given_primes(capsys):
    # --p 2 names no odd prime, so the random odd-p cases are not drawn:
    # the report holds the ten p = 2 flat reflections and nothing at p = 3
    code, out, _ = run_cli(capsys, "verify", "functional-equation", "--p", "2", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["config"]["primes"] == "[2]"
    assert [c["inputs"]["p"] for c in data["cases"]] == ["2"] * 10


def test_worker_errors_reach_the_parent():
    # a case error raised in a worker process must arrive as itself, not
    # as a broken process pool: an error case naming the exception
    report = run_suite(SuiteConfig(suite="density-calibration", d_max=2, jobs=2))
    errors = [c for c in report.cases if c.status == "error"]
    assert errors
    assert all(c.note.startswith("StabilizationError: no stabilization") for c in errors)


def test_verify_negative_t_list(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "singular-relation", "--p", "3", "--t", "-3..-1", "--k", "1",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert {c["inputs"]["t"] for c in data["cases"]} == {"-3", "-2", "-1"}
    assert data["summary"] == {"pass": len(data["cases"]), "fail": 0, "skipped-budget": 0}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_case_errors_exit_1(capsys, jobs):
    # an unstabilized density is one error case, not a traceback that
    # ends the run
    code, out, err = run_cli(
        capsys, "verify", "density-calibration", "--d-max", "2", "--jobs", jobs,
        "--format", "json",
    )
    assert code == 1
    assert "Traceback" not in err
    data = json.loads(out)
    assert data["schema"] == "swb/1"
    errors = [c for c in data["cases"] if c["status"] == "error"]
    assert errors and data["summary"]["error"] == len(errors)
    assert data["summary"]["pass"] + len(errors) == len(data["cases"])
    assert all(c["note"].startswith("StabilizationError: ") for c in errors)


def test_unsupported_case_status(capsys, monkeypatch):
    import swb.suites as suites
    from swb.counting import EngineUnsupported

    def fake_dispatch(kind, payload, budget, d_max):
        raise EngineUnsupported("rank 9")

    monkeypatch.setattr(suites, "_dispatch", fake_dispatch)
    code, out, _ = run_cli(capsys, "verify", "level-lowering", "--p", "5", "--strict-budget")
    assert code == 0
    assert "[   unsupported] level-lowering(" in out
    assert "# outside the fast engine: rank 9" in out
    assert out.endswith("summary: 0 pass, 0 fail, 0 skipped-budget, 4 unsupported\n")


def test_reports_deterministic_across_jobs():
    cfg1 = SuiteConfig(suite="geometry-ledger", n_values=tuple(range(1, 9)))
    cfg4 = SuiteConfig(suite="geometry-ledger", n_values=tuple(range(1, 9)), jobs=2)
    r1 = run_suite(cfg1)
    r4 = run_suite(cfg4)
    assert r1.to_json() == r4.to_json()
    # the class-keyed density polynomials are shared within one process
    # only, so a worker's cache must not change a report either
    grid = {"primes": (2, 3), "t_values": tuple(t for t in range(-4, 5) if t)}
    s1 = run_suite(SuiteConfig(suite="singular-relation", **grid))
    s2 = run_suite(SuiteConfig(suite="singular-relation", jobs=2, **grid))
    assert not s1.failed
    assert s1.to_json() == s2.to_json()


def test_jobs_bounds_the_pool(monkeypatch):
    # a fork pool starts all max_workers processes at the first submit, so
    # --jobs is capped by the cases and the CPUs; the fake pool maps in
    # process and starts none
    import concurrent.futures

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    serial = run_suite(SuiteConfig(suite="level-lowering", primes=(5,)))
    wide = run_suite(SuiteConfig(suite="level-lowering", primes=(5,), jobs=10**6))
    assert sizes == [min(len(serial.cases), os.cpu_count() or 1)]
    assert wide.to_json() == serial.to_json()


SRC = Path(__file__).resolve().parent.parent / "src"
POOL_STACK = ("concurrent.futures", "multiprocessing", "logging", "subprocess", "socket")
# dataclasses and what it pulls in: swb's records are namedtuples and plain classes
CLASS_BUILDERS = ("dataclasses", "inspect", "ast", "dis", "tokenize")
OPTION_PARSERS = ("argparse", "gettext", "locale")


def _fresh_python(code):
    """The last stdout line of `code`, run in a new interpreter with only
    src/ on the path, so the modules pytest has loaded cannot mask an import."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_skips_the_pool_stack():
    # only `--jobs N` with more than one case builds a process pool
    loaded = _fresh_python(
        "import json, sys\n"
        "import swb.cli\n"
        f"print(json.dumps([m for m in {POOL_STACK!r} if m in sys.modules]))\n"
    )
    assert loaded == []


def test_cli_import_skips_dataclasses():
    loaded = _fresh_python(
        "import json, sys\n"
        "import swb.cli\n"
        f"print(json.dumps([m for m in {CLASS_BUILDERS!r} if m in sys.modules]))\n"
    )
    assert loaded == []


def test_cli_import_skips_argparse():
    # the option tables need no argparse, and so no gettext or locale
    loaded = _fresh_python(
        "import json, sys\n"
        "import swb.cli\n"
        f"print(json.dumps([m for m in {OPTION_PARSERS!r} if m in sys.modules]))\n"
    )
    assert loaded == []


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--p", "3", "--d", "2", "--target", "hyp:2:+", "--source", "diag:1"],
        ["verify", "level-lowering", "--format", "json"],
    ],
    ids=["density", "verify"],
)
def test_main_imports_nothing(argv):
    # a module first imported inside main is paid in the command's wall time
    code, added = _fresh_python(
        "import contextlib, io, json, sys\n"
        "import swb.cli\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = swb.cli.main({argv!r})\n"
        "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n"
    )
    assert code == 0
    assert added == []


def test_report_rendering():
    rep = VerificationReport("demo", config={"x": 1})
    rep.add(CaseResult.check("eq", {"a": 1}, 1, 1))
    rep.add(CaseResult.check("eq", {"a": 2}, 1, 2))
    rep.add(CaseResult.skipped("eq", {"a": 3}, "too big"))
    data = json.loads(rep.to_json())
    assert data["summary"] == {"pass": 1, "fail": 1, "skipped-budget": 1}
    text = rep.to_text()
    assert "lhs=1" in text and "rhs=2" in text
    assert text.endswith("summary: 1 pass, 1 fail, 1 skipped-budget")
    assert rep.failed
    error = CaseResult("eq", {"a": 4}, "error", note="DensityError: no")
    rep.add(error)
    assert json.loads(rep.to_json())["summary"]["error"] == 1
    assert rep.to_text().endswith("summary: 1 pass, 1 fail, 1 skipped-budget, 1 error")
    assert VerificationReport("demo", cases=[error]).failed


def test_exit_code_on_failure(capsys, monkeypatch):
    import swb.suites as suites

    def fake_builder(cfg):
        return [("calibration", (3, 2, 1, 1, "A"))]

    reads = suites.SUITES["density-calibration"][1]
    monkeypatch.setitem(suites.SUITES, "density-calibration", (fake_builder, reads))

    def fake_eval(args):
        return [CaseResult.check("calibration", {}, 1, 2)]

    monkeypatch.setattr(suites, "_eval_case", fake_eval)
    code, out, _ = run_cli(capsys, "verify", "density-calibration")
    assert code == 1
