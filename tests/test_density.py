import pickle
from fractions import Fraction

import pytest

from swb.counting import Budget, BudgetExceeded
from swb.density import (
    DensityValue,
    InterpolationError,
    StabilizationError,
    check_difference_formula,
    check_functional_equation,
    check_stabilization_source,
    check_stabilization_target,
    chi_local,
    functional_equation_sign,
    interpolate_density_polynomial,
    local_density,
    nor_factor,
    pden_rank1_closed,
    primitive_density,
)
from swb.lattice import (
    diagonal_lattice,
    hyperbolic_lattice,
    plane_lattice,
    zero_lattice,
)
from swb.poly import Poly


def test_local_density_plane_unit():
    # Den(H2, <1>) at p=3 is phi(3^d)/3^d = 2/3
    dv = local_density(plane_lattice(3), diagonal_lattice([1], 3))
    assert dv.value == Fraction(2, 3)
    assert local_density(plane_lattice(3), zero_lattice(3)).value == 1


def test_pden_closed_examples():
    assert pden_rank1_closed(3, 1, 3, 3) == Fraction(8, 9)
    assert pden_rank1_closed(4, 1, 3, 3) == (1 - Fraction(1, 9)) * (1 + Fraction(1, 3))
    # k odd, coprime level, eps*chi = +1
    assert pden_rank1_closed(3, 1, 1, 3) == 1 + Fraction(1, 3)
    assert pden_rank1_closed(4, 1, 5, 3) == 1 - Fraction(1, 9)
    with pytest.raises(ValueError):
        pden_rank1_closed(3, 1, 1, 2)


CALIBRATION = [
    (p, k, eps, nu)
    for p in (3, 5)
    for k in range(2, 7)
    for eps in (1, -1)
    for nu in (0, 1, 2)
]


@pytest.mark.parametrize("p,k,eps,nu", CALIBRATION)
def test_calibration_oddp(p, k, eps, nu):
    u = 2 if nu % 2 == 0 else 1
    N = u * p**nu
    got = primitive_density(hyperbolic_lattice(k, eps, p), diagonal_lattice([N], p))
    assert got.value == pden_rank1_closed(k, eps, N, p)


@pytest.mark.parametrize("k", [2, 4, 6])
@pytest.mark.parametrize("nu", [0, 1, 2])
@pytest.mark.parametrize("conv", ["A", "B"])
def test_calibration_p2_both_conventions(k, nu, conv):
    N = 3 * 2**nu
    got = primitive_density(
        hyperbolic_lattice(k, 1, 2), diagonal_lattice([N], 2), convention=conv
    )
    assert got.value == pden_rank1_closed(k, 1, N, 2)


def test_nor_factor():
    assert nor_factor(3, 1, 1) == Poly([1, Fraction(-1, 3)])
    assert nor_factor(3, 2, 1) == Poly([1, 0, Fraction(-1, 9)])
    assert nor_factor(3, 0, 1) == Poly([1])
    assert nor_factor(3, 3, -1) == Poly([1, Fraction(1, 9)]) * Poly([1, 0, Fraction(-1, 9)])


def test_interpolation_soundness_rank0():
    P = interpolate_density_polynomial(zero_lattice(3), "den", 1)
    assert P.poly == Poly([1])


def test_interpolation_known_flat():
    # the flat polynomial of a unimodular rank-2 lattice is constant 1
    P = interpolate_density_polynomial(diagonal_lattice([1, 1], 3), "flat", 1)
    assert P.poly == Poly([1])


def test_chi_local():
    assert chi_local(Fraction(-1), 3) == -1
    assert chi_local(Fraction(3), 3) == 0
    assert chi_local(Fraction(1), 2) == 1
    assert chi_local(Fraction(5), 2) == -1
    assert chi_local(Fraction(3), 2) == 0
    assert chi_local(Fraction(2), 2) == 0


def test_difference_formula_examples():
    # single-term case and the two-term dyadic case
    r = check_difference_formula(4, 1, diagonal_lattice([1], 3), 3)
    assert r.passed, (r.lhs, r.rhs)
    r = check_difference_formula(4, 1, diagonal_lattice([1], 2), 4)
    assert r.passed, (r.lhs, r.rhs)
    # unit N reduces to a single product
    r = check_difference_formula(4, 1, diagonal_lattice([2], 5), 1)
    assert r.passed


def test_difference_formula_rank2_sources():
    for p in (2, 3):
        u = 3 if p == 2 else 2
        M = diagonal_lattice([1, u * p], p)
        for N in (p, p**2):
            r = check_difference_formula(4, 1, M, N)
            assert r.passed, (p, N, r.lhs, r.rhs)


def test_difference_formula_convention_b():
    # both dyadic congruence conventions satisfy the identity
    for (m_vals, N) in [((1,), 4), ((1,), 8), ((1, 6), 2), ((1, 6), 4)]:
        M = diagonal_lattice(list(m_vals), 2)
        r = check_difference_formula(4, 1, M, N, convention="B")
        assert r.passed, (m_vals, N, r.lhs, r.rhs)


def test_delta_kind_interpolation():
    # the level-twisted polynomial interpolates with its verification
    # points intact, on and off the level
    P = interpolate_density_polynomial(diagonal_lattice([1], 3), "delta", 1, N=3)
    assert P.poly == Poly([1, 1])
    P = interpolate_density_polynomial(diagonal_lattice([2], 3), "delta", 1, N=1)
    assert P.degree == 0


def test_functional_equation_unit_lattice():
    rs = check_functional_equation(diagonal_lattice([1], 5), 1)
    assert all(r.passed for r in rs)
    assert functional_equation_sign(diagonal_lattice([1], 5), 1) == 1
    # a sign -1 case: <3> against the nontrivial unit class at p=3
    assert functional_equation_sign(diagonal_lattice([3], 3), -1) == -1
    rs = check_functional_equation(diagonal_lattice([3], 3), -1)
    assert all(r.passed for r in rs)


def test_functional_equation_flat_13():
    rs = check_functional_equation(diagonal_lattice([1, 3], 3), 1)
    assert all(r.passed for r in rs)


def test_functional_equation_p2_pair():
    rs = check_functional_equation(diagonal_lattice([2, 2], 2), 1)
    assert all(r.passed for r in rs)
    assert rs[0].inputs["exponent"] == 2  # 4Nt = 16 = 2^2 * 4


def test_stabilization_checks():
    r = check_stabilization_target(diagonal_lattice([1], 3), diagonal_lattice([1], 3), 1)
    assert r.passed
    r = check_stabilization_source(4, 1, diagonal_lattice([1], 3), 1)
    assert r.passed, (r.lhs, r.rhs)
    # rank-0 M variant of the limit identity
    r = check_stabilization_source(4, 1, zero_lattice(3), 2)
    assert r.passed, (r.lhs, r.rhs)


def test_density_budget_propagates():
    with pytest.raises(BudgetExceeded):
        local_density(
            hyperbolic_lattice(6, 1, 5),
            diagonal_lattice([1, 25], 5),
            budget=Budget(limit=100),
        )


@pytest.mark.parametrize(
    "exc,attrs",
    [
        (StabilizationError("no plateau", [Fraction(1, 2), 3]), ("history",)),
        (InterpolationError("degree too high", 4), ("k",)),
        (BudgetExceeded(10**7, 10**6, "hist conv"), ("needed", "limit", "what")),
    ],
)
def test_exceptions_survive_pickle(exc, attrs):
    # worker processes hand exceptions back to the pool by pickling them
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    for name in attrs:
        assert getattr(back, name) == getattr(exc, name)


def test_stabilized_at_reported():
    dv = local_density(hyperbolic_lattice(4, 1, 2), diagonal_lattice([1, 4], 2))
    assert isinstance(dv, DensityValue)
    # the (1,4) source needs depth 4: the accidental plateau at d=2,3 is skipped
    assert dv.value == Fraction(27, 32)
    assert dv.stabilized_at >= 4
