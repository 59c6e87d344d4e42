"""The eight record classes: immutable records stay immutable and hashable,
and every record crosses a process boundary, as the `--jobs N` path needs."""

import pickle
from fractions import Fraction

import pytest

from swb.analytic import fundamental_disc_split
from swb.density import DensityPolynomial, DensityValue
from swb.geometry import special_fiber
from swb.lattice import diagonal_lattice, invariants
from swb.poly import Poly
from swb.report import CaseResult, VerificationReport
from swb.suites import SuiteConfig

IMMUTABLE = {
    "DiscSplit": (lambda: fundamental_disc_split(-1, 11), "d"),
    "DensityValue": (lambda: DensityValue(Fraction(27, 32), 4, "A"), "value"),
    "DensityPolynomial": (lambda: DensityPolynomial(Poly([1, Fraction(-1, 3)])), "poly"),
    "LatticeInvariants": (lambda: invariants(diagonal_lattice([1, 3], 3)), "hasse"),
    "FiberComponent": (lambda: special_fiber(9, 3)[0], "multiplicity"),
}


def _case():
    return CaseResult.check("eq", {"a": 1}, Fraction(1, 2), Fraction(1, 2), note="n")


MUTABLE = {
    "CaseResult": _case,
    "VerificationReport": lambda: VerificationReport("demo", config={"x": 1}, cases=[_case()]),
    "SuiteConfig": lambda: SuiteConfig(suite="singular-relation", jobs=2, seed=5),
}


def _state(obj):
    """What equality of two records means: namedtuples and CaseResult
    compare by field, the other two by their attributes."""
    return obj if isinstance(obj, (tuple, CaseResult)) else vars(obj)


@pytest.mark.parametrize("name", sorted(IMMUTABLE))
def test_immutable_record_rejects_field_assignment(name):
    make, field = IMMUTABLE[name]
    rec = make()
    assert type(rec).__name__ == name
    with pytest.raises(AttributeError):
        setattr(rec, field, 0)
    assert hash(rec) == hash(make())
    assert rec == make()


@pytest.mark.parametrize("name", sorted(IMMUTABLE) + sorted(MUTABLE))
def test_record_survives_pickle(name):
    rec = IMMUTABLE[name][0]() if name in IMMUTABLE else MUTABLE[name]()
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is type(rec)
    assert _state(back) == _state(rec)


def test_report_containers_are_fresh():
    a, b = VerificationReport("a"), VerificationReport("b")
    assert a.config == {} and a.cases == []
    assert a.config is not b.config and a.cases is not b.cases
