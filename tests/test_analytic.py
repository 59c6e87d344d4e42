import random
from fractions import Fraction

import pytest

from swb.analytic import (
    AnalyticError,
    a_p_closed,
    a_p_function,
    a_p_limit_route,
    beta_p_function,
    check_g_functional_equation,
    check_level_lowering,
    check_singular_relation,
    eis0_data,
    eis0_derivative,
    fundamental_disc_split,
    g_p_function,
)
from swb.padic import kronecker_symbol, prime_divisors, valuation
from swb.poly import RationalFunction
from swb.symbolic import Symbol, SymbolicNumber


def test_disc_split_examples():
    assert (fundamental_disc_split(1, 3).d, fundamental_disc_split(1, 3).c) == (3, 2)
    assert (fundamental_disc_split(-1, 1).d, fundamental_disc_split(-1, 1).c) == (-1, 2)
    assert (fundamental_disc_split(1, 1).d, fundamental_disc_split(1, 1).c) == (4, 1)
    for t, N in [(2, 2), (-6, 15), (7, 4), (-9, 1), (10, 50)]:
        s = fundamental_disc_split(t, N)
        assert 4 * N * t == s.c**2 * s.d
        assert s.c > 0


def test_chi_t_against_kronecker():
    rng = random.Random(4)
    for _ in range(50):
        t = rng.randint(-40, 40) or 1
        N = rng.randint(1, 60)
        s = fundamental_disc_split(t, N)
        for p in (2, 3, 5, 7):
            expect = 1 if s.d == -1 else kronecker_symbol(-s.d, p)
            assert s.chi(p) == expect
            assert s.chi(p) in (-1, 0, 1)


def test_g_function_zero_cases():
    assert g_p_function(3, 1, 3).is_zero()
    assert g_p_function(1, 5, 3).is_zero()
    assert not g_p_function(9, 1, 3).is_zero()


@pytest.mark.parametrize("p,nu,t", [(2, 2, 1), (2, 3, 3), (3, 2, 1), (3, 2, -5), (3, 3, 2)])
def test_g_functional_equation(p, nu, t):
    r = check_g_functional_equation(p**nu, t, p)
    assert r.passed, (p, nu, t)


def test_beta_examples():
    # v_p(N) = 1 forces g = 0 and beta'(0) = 2/(1+p) log p
    for p, N in [(3, 3), (5, 5), (2, 2)]:
        beta, b0 = beta_p_function(N, 1, p)
        assert beta(Fraction(1)) == 1
        assert b0 == SymbolicNumber.log_prime(p, Fraction(2, 1 + p))
    beta, b0 = beta_p_function(9, 1, 3)  # nontrivial g; dual check runs inside
    assert b0 == SymbolicNumber.log_prime(3, 1)


def test_a_p_routes_agree():
    for p in (2, 3, 5):
        for n in range(4):
            N = p**n * (3 if p != 3 else 2)
            assert a_p_closed(N, p) == a_p_limit_route(N, p)
            A = a_p_function(N, p)
            assert A(Fraction(1)) == (1 if n >= 1 else Fraction(p, p + 1))
    # A_p depends on N only through v_p(N), by either route
    for N in range(1, 201):
        for p in prime_divisors(N):
            n = valuation(N, p)
            assert a_p_closed(N, p) == a_p_closed(p**n, p)
            assert a_p_limit_route(N, p) == a_p_limit_route(p**n, p)


def test_eis0_data_still_compares_routes(monkeypatch):
    import swb.analytic as analytic

    limit = analytic.a_p_limit_route
    monkeypatch.setattr(analytic, "a_p_limit_route", lambda N, p: limit(N, p) + 1)
    with pytest.raises(AnalyticError, match="route mismatch"):
        eis0_data(12)


def test_a_p_closed_n1_shape():
    # n = 1 simplifies to p^(-1) (1 + p^(1-s))/(1 + p^(-1-s))
    p = 3
    X = RationalFunction.X()
    expect = Fraction(1, p) * (1 + p / X) / (1 + X / p)
    got = a_p_closed(3, 3)
    # X stands for p^(-s): p^(1-s) = pX, p^(-1-s) = X/p
    expect = Fraction(1, p) * (1 + p * X) / (1 + X * Fraction(1, p))
    assert got == expect


def test_eis0_values():
    assert eis0_derivative(1) == SymbolicNumber(
        {Symbol.log_det_y: 1, Symbol.one: 2, Symbol.lambda_ratio: -4}
    )
    # N = p: c_p = -(p-1)/(p+1)
    for p in (2, 3, 5, 7):
        term, central, c = eis0_data(p)
        assert central == 0
        assert c[p] == Fraction(-(p - 1), p + 1)
    # N = 4: c_2 = -1
    assert eis0_data(4)[2][2] == -1


def test_eis0_cp_closed_form():
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            _, central, c = eis0_data(p**n)
            assert central == 0
            expect = Fraction(-n * p ** (n + 1) + 2 * p**n + n * p ** (n - 1) - 2,
                              p ** (n - 1) * (p * p - 1))
            assert c[p] == expect, (p, n)


def test_eis0_composite():
    term, central, c = eis0_data(12)
    assert central == 0
    assert set(c) == {2, 3}
    t1, _, c1 = eis0_data(4)
    t2, _, c2 = eis0_data(3)
    assert c[2] == c1[2] and c[3] == c2[3]


@pytest.mark.parametrize("p,N,t", [(2, 4, 1), (3, 9, 1), (3, 1, 1), (5, 25, -1), (2, 8, -10)])
def test_singular_relation(p, N, t):
    rs = check_singular_relation(N, t, p)
    assert all(r.passed for r in rs), [(r.kind, r.status) for r in rs]


@pytest.mark.parametrize("p,nu,t", [(2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 3, 3), (3, 4, 1)])
def test_level_lowering(p, nu, t):
    r = check_level_lowering(p**nu, t, p)
    assert r.passed, (r.lhs, r.rhs)


def test_level_lowering_needs_depth():
    with pytest.raises(ValueError):
        check_level_lowering(3, 1, 3)
