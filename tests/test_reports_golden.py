"""The JSON reports of the verification suites, pinned byte for byte.

Each hash is the sha256 of the CLI's stdout for the command; the reports
render every value exactly and do not depend on PYTHONHASHSEED, so a
changed hash means a changed report.
"""

import hashlib

import pytest

from swb.cli import main

GOLDEN = {
    ("density-calibration",): "c0e739de5f0ad43f3403dd829254b63cb5496db3263f8df8c05ef6248319c88e",
    ("functional-equation",): "df9937f885bada600f3dc731bf045fba20719a6dafebec9871af981d6fea1cfd",
    ("level-lowering",): "99192b5996da989e0e5dbf2139eccb4a2497890a62cd354f86118ef251a2ce76",
    ("geometry-ledger",): "c62e04efb0c82162afba798c4586dbb3c2a5e86b8ff8042b4ad7f88f80b72308",
    ("siegel-weil-t0",): "4628ae4caf3d79f3c626a5faf4b0031df7aab7420281bf97ce75baa6a45db2d3",
    ("difference-formula", "--p", "2"): "631104b5b5c0e2bc5778aeb6c61651286a3b3de9172b4af481edcbe2c31d34ef",
    ("difference-formula", "--p", "2", "--convention", "B"): "f04916cde88157a60ff5a525af4e1cca4b60198a605d7a1299118209ae854c47",
    ("singular-relation",): "1c8b21fa6d9e49f4f67653b9190ffbc6a03cf9ea235cc392120b7cba8c4fd649",
    # wider grids: many (t, N) per p-adic class, and p = 7
    ("singular-relation", "--p", "2,3,5,7", "--t", "-40..-1,1..40"): "a5de79b8f16b7b39952b786ec447132780d87b7dced98714e2615c9a7d8d760d",
    ("singular-relation", "--p", "2,3,5,7", "--t", "-40..-1,1..40", "--convention", "B"): "c157d8c754f476d8c3313493bc4ec852b47950a708e2deeed6259c0147b1e0ad",
    ("level-lowering", "--p", "2,3,5,7"): "2dd1d2ad456ab3990128326e5d24c5409c7cdbd17e34e4e01fc99e7868944064",
    ("level-lowering", "--p", "2,3,5,7", "--convention", "B"): "6b1c187fef41384a1fb31b9159876d5ba4ebe1157b42ddd64a44fca9614c2c46",
    ("functional-equation", "--p", "2,3,5,7", "--seed", "2"): "60346073ece39666f1bb3785a3b7a8082ebcd170bc240a5b442ad348bd7e9fb1",
    ("functional-equation", "--p", "2,3,5,7", "--seed", "3"): "442f87f5389efa0a918bafa6b1f89b2718cf70eaa771a468ae9c9732c3a6165e",
    # the T = 0 ledgers over N = 1..600, built from Poly, RationalFunction
    # and SymbolicNumber
    ("siegel-weil-t0", "--N", "1..600"): "7021e36014468d51f2519bf4e15d21b7432a46933689f37893d7f4761c6c8376",
    ("geometry-ledger", "--N", "1..600"): "eab6d6927cb7869d67e316671da784fb401f11c5bda6245e3e558cb45e2dfaa0",
    # every divisor t of every N <= 2400 through a_N and the Hodge ledgers
    ("geometry-ledger", "--N", "1..2400"): "f66159654bd085d90c3ab28bca6932bf80203409c63af28ba5fcebb8aaa3d4f7",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_report_matches_golden_hash(argv, capsys):
    code = main(["verify", *argv, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
