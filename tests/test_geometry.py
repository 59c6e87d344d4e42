from fractions import Fraction

import pytest

from swb import suites
from swb.counting import Budget
from swb.geometry import (
    CUSP_INF,
    CUSP_ZERO,
    PairingUndefined,
    a_N,
    atkin_lehner_pullback,
    check_div_p_trivial,
    check_hodge_difference,
    cusp_ledger,
    delta_self_pairing,
    div_delta_section,
    f_p_ledger,
    f_p_self_pairing,
    geometric_t0_side,
    intersection_pairing,
    special_fiber,
    vertical,
    xhat_ledger,
    xhat_self_intersection,
)
from swb.padic import euler_phi, factorize, psi_index
from swb.symbolic import Symbol, SymbolicNumber


def test_a_N_values():
    for p in (2, 3, 5):
        assert a_N(p, 1) == -1
        assert a_N(p, p) == p
    # a_N(pt) = p a_(N/p)(t)
    assert a_N(4, 2) == 2 * a_N(2, 1)
    assert a_N(12, 6) == 2 * a_N(6, 3)


def _mobius(n):
    """The Moebius function of n >= 1, from the factorization of n."""
    mu = 1
    for e in factorize(n).values() if n > 1 else []:
        if e > 1:
            return 0
        mu = -mu
    return mu


def test_mobius_values():
    assert _mobius(1) == 1 and _mobius(2) == -1 and _mobius(6) == 1
    assert _mobius(4) == 0 and _mobius(30) == -1


def _a_N_loop_oracle(N, t):
    """a_N(N, t) by the sum over every r = 1..t that divides t."""
    return sum(
        _mobius(t // r) * _mobius(N // r) * euler_phi(N) // euler_phi(N // r)
        for r in range(1, t + 1)
        if t % r == 0
    )


def test_a_N_matches_loop_oracle():
    # the product of local factors over p^e || N, against the defining sum
    # over r = 1..t, at every t | N
    for N in range(1, 601):
        for t in range(1, N + 1):
            if N % t == 0:
                assert a_N(N, t) == _a_N_loop_oracle(N, t), (N, t)


@pytest.mark.parametrize("N", list(range(1, 61)))
def test_a_N_sum_rules(N):
    divs = [t for t in range(1, N + 1) if N % t == 0]
    vals = {t: a_N(N, t) for t in divs}
    assert sum(vals.values()) == euler_phi(N)
    if N > 1:  # at N = 1 the single term is 1, not 0
        assert sum(Fraction(vals[t], t) for t in divs) == 0
    assert sum(t * vals[t] for t in divs) == psi_index(N) * euler_phi(N)


def test_special_fiber_degrees():
    for p in (2, 3, 5):
        for n in (0, 1, 2, 3):
            for Np in (1, 7):
                N = Np * p**n
                comps = special_fiber(N, p)
                assert sum(c.multiplicity * c.degree for c in comps) == psi_index(N)
    comps = special_fiber(3, 3)
    assert {c.a: c.multiplicity for c in comps} == {-1: 1, 1: 1}


def test_intersection_examples():
    # both examples at N = 2
    v = intersection_pairing(vertical(2, 2, 1), vertical(2, 2, -1))
    assert v == SymbolicNumber.log_prime(2, Fraction(1, 24))
    v = intersection_pairing(vertical(2, 2, 1), vertical(2, 2, 1))
    assert v == SymbolicNumber.log_prime(2, Fraction(-1, 24))


@pytest.mark.parametrize("N,p", [(2, 2), (3, 3), (4, 2), (9, 3), (12, 2), (12, 3), (16, 2), (81, 3), (50, 5)])
def test_div_p_trivial(N, p):
    for case in check_div_p_trivial(N, p):
        assert case.passed, case.inputs


def test_pairing_out_of_domain():
    with pytest.raises(PairingUndefined):
        intersection_pairing(cusp_ledger(4), vertical(4, 2, 2))
    with pytest.raises(PairingUndefined):
        intersection_pairing(cusp_ledger(4, at_zero=True), vertical(4, 2, -2))
    # but the disjoint combinations vanish quietly
    assert intersection_pairing(cusp_ledger(4), vertical(4, 2, -2)).is_zero()
    assert intersection_pairing(cusp_ledger(4), vertical(4, 2, 0)).is_zero()


def test_atkin_lehner():
    L = vertical(12, 2, 2, 5) + cusp_ledger(12)
    W = atkin_lehner_pullback(L)
    assert W.coeffs[("vert", 2, -2)] == 5 and CUSP_ZERO in W.coeffs
    assert atkin_lehner_pullback(W) == L
    # the antisymmetric ledger flips sign
    for (N, p) in [(4, 2), (27, 3), (12, 2)]:
        X = xhat_ledger(N, p)
        assert atkin_lehner_pullback(X) == -X
    # N = 1: the single cusp is fixed
    assert atkin_lehner_pullback(cusp_ledger(1)) == cusp_ledger(1)


def test_al_equivariance_of_pairing():
    for (N, p) in [(4, 2), (18, 3), (16, 2)]:
        L1 = vertical(N, p, 0, 3) + vertical(N, p, 2, Fraction(1, 2))
        L2 = vertical(N, p, -2, 7) + vertical(N, p, 0, 2)
        lhs = intersection_pairing(atkin_lehner_pullback(L1), atkin_lehner_pullback(L2))
        assert lhs == intersection_pairing(L1, L2)


XGRID = [
    (p**n * Np, p)
    for p in (2, 3, 5)
    for n in (1, 2, 3, 4)
    for Np in (1, 2, 5)
    if Np % p != 0
]


@pytest.mark.parametrize("N,p", XGRID)
def test_xhat_self_intersection_closed_form(N, p):
    # the function itself asserts ledger == closed form
    val = xhat_self_intersection(N, p)
    assert val.coefficient(Symbol.log_prime(p)) != 0


def test_xhat_example_n2():
    v = xhat_self_intersection(2, 2)
    assert v == SymbolicNumber.log_prime(2, Fraction(-1, 24))


@pytest.mark.parametrize("N,p", XGRID)
def test_f_p_self_pairing_closed_form(N, p):
    f_p_self_pairing(N, p)


def test_f_p_example():
    # level p: single vertical term -12p at index -1
    fp = f_p_ledger(3, 3)
    assert fp.coeffs == {("vert", 3, -1): Fraction(-36)}
    # index n is always absent
    for (N, p) in [(4, 2), (27, 3), (12, 2)]:
        n = max(a for (_, q, a) in f_p_ledger(N, p).coeffs if q == p)
        nmax = {4: 2, 27: 3, 12: 2}[N]
        assert n < nmax


def test_div_delta_section():
    for N in (1, 2, 6, 12):
        full, full0 = div_delta_section(N)
        phi, psi = euler_phi(N), psi_index(N)
        assert full.coeffs.get(CUSP_INF) == psi * phi
        key = CUSP_ZERO if N > 1 else CUSP_INF
        assert full0.coeffs.get(key) == psi * phi


@pytest.mark.parametrize("N", list(range(1, 61)))
def test_hodge_difference(N):
    for case in check_hodge_difference(N):
        assert case.passed, (N, case.inputs)


def test_delta_self_pairing_values():
    # N = 1: no vertical part
    val = delta_self_pairing(1)
    assert val == SymbolicNumber({Symbol.one: 3, Symbol.lambda_ratio: -6})
    # N = p: -6 p^2 (p-1) log p vertical correction
    for p in (2, 3):
        val = delta_self_pairing(p)
        assert val.coefficient(Symbol.log_prime(p)) == 6 * p * p * (p - 1)


def _t0_results(N):
    """The siegel-weil-t0 case at N: the central value vanishes, and the
    geometric side equals the analytic constant-term derivative."""
    return suites._dispatch("siegel-weil-t0", (N,), Budget(), None)


@pytest.mark.parametrize("N", list(range(1, 61)))
def test_flagship_t0(N):
    results = _t0_results(N)
    assert [r.kind for r in results] == ["incoherence-vanishing", "siegel-weil-t0"]
    assert all(r.passed for r in results), results


def test_geometric_t0_examples():
    assert geometric_t0_side(1) == SymbolicNumber(
        {Symbol.log_det_y: 1, Symbol.one: 2, Symbol.lambda_ratio: -4}
    )
    assert geometric_t0_side(2).coefficient("log(2)") == Fraction(1, 3)


def test_flagship_headroom_beyond_60():
    for N in (64, 96, 128, 180, 210):
        assert all(r.passed for r in _t0_results(N)), N
