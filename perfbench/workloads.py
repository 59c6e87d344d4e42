"""The four benchmark workloads as lists of `swb` CLI commands.

Every command runs with `--format json`, and every `verify` command with
`--jobs 1`, so one process does the work and its report can be parsed.
A command is a `Command(argv, cases, expect)`: `cases` is the number of
report cases the command must produce (one for a `density` call), and
`expect` is the known normalized value of a `density --d` probe.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

JSON_JOBS1 = ("--jobs", "1", "--format", "json")


@dataclass(frozen=True)
class Command:
    argv: tuple
    cases: int = 1
    expect: Fraction | None = None

    @property
    def is_probe(self):
        return self.argv[0] == "density"

    def shallow_argv(self):
        """The same `density` query without `--d`: the stabilized value."""
        argv = list(self.argv)
        i = argv.index("--d")
        del argv[i : i + 2]
        return tuple(argv)


def _verify(suite, cases, *extra):
    return Command(("verify", suite, *extra, *JSON_JOBS1), cases)


def _probe(p, d, target, source, expect, convention="A"):
    argv = (
        "density", "--p", str(p), "--d", str(d), "--convention", convention,
        "--target", target, "--source", source, "--format", "json",
    )
    return Command(argv, 1, Fraction(expect))


# Unit classes the seed may pick for the depth probes.  At odd p, (a, b, c)
# are the units of the target's diagonal entry and of the source's two
# entries: 1 is a residue and 2 a non-residue mod 3 and mod 5.  At p = 2
# the cost of the d = 7 pair count depends on a*b mod 8 (about 3 s, 5.5 s
# and 9 s for the classes 1 or 5, 3 and 7), so only a*b = 3 mod 8 is
# offered there.  P2_D11_VALUES holds the density seed code stabilizes to
# for each (a, b) of the d = 11 probe.
ODD_CLASSES = [(a, b, c) for a in (1, 2) for b in (1, 2) for c in (1, 2)]
P2_PAIR_CLASSES = [(3, 1), (1, 3), (7, 5), (5, 7)]
P2_D11_VALUES = {
    (1, 1): "15/16", (1, 3): "33/32", (1, 5): "15/16", (1, 7): "35/32",
    (3, 1): "33/32", (3, 3): "15/16", (3, 5): "35/32", (3, 7): "15/16",
    (5, 1): "15/16", (5, 3): "35/32", (5, 5): "15/16", (5, 7): "33/32",
    (7, 1): "35/32", (7, 3): "15/16", (7, 5): "33/32", (7, 7): "15/16",
}


def depth_probe(seed):
    rng = random.Random(seed)
    a3, b3, c3 = rng.choice(ODD_CLASSES)
    a5, b5, c5 = rng.choice(ODD_CLASSES)
    a2, b2 = rng.choice(P2_PAIR_CLASSES)
    a11, b11 = rng.choice(sorted(P2_D11_VALUES))
    pair2 = (f"sum:diag:{-a2}+hyp:4:+", f"diag:{b2},2", "105/128")
    return [
        _probe(3, 13, f"sum:diag:{-27 * a3}+hyp:4:+", f"diag:{b3},{9 * c3}",
               "80/81" if b3 == c3 else "32/27"),
        _probe(5, 8, f"sum:diag:{-125 * a5}+hyp:4:+", f"diag:{b5},{25 * c5}",
               "144/125" if b5 == c5 else "672/625"),
        _probe(2, 7, *pair2),
        _probe(2, 6, *pair2, convention="B"),
        _probe(2, 11, f"sum:diag:{-a11}+hyp:4:+", f"diag:{b11}", P2_D11_VALUES[a11, b11]),
        # Odd-p pair counts on targets without a hyperbolic plane: a unit
        # diagonal target takes the dense representative search, and a
        # rank-1 target, which holds no rank-2 sublattice, the rank-1 pair
        # enumeration (its density is 0; d = 6 keeps its 3^12 units small).
        _probe(3, 11, "diag:1,1,1", "diag:1,1", "8/9"),
        _probe(3, 6, "diag:1", "diag:1,1", "0"),
    ]


def commands(workload, seed):
    """The command list of `workload`; only some workloads depend on `seed`."""
    if workload == "dyadic-difference":
        return [_verify("difference-formula", 48, "--p", "2", "--convention", "A")]
    if workload == "depth-probe":
        return depth_probe(seed)
    if workload == "analytic-grid":
        return [
            _verify("singular-relation", 1272),
            _verify("level-lowering", 28),
            _verify("functional-equation", 70, "--seed", str(seed)),
            _verify("density-calibration", 156),
        ]
    if workload == "ledger-t0":
        return [
            _verify("siegel-weil-t0", 1212, "--N", "1..600"),
            _verify("geometry-ledger", 3182, "--N", "1..600"),
        ]
    raise KeyError(workload)


WORKLOADS = ("dyadic-difference", "depth-probe", "analytic-grid", "ledger-t0")
