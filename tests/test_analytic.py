import random
from fractions import Fraction

import pytest

import swb.analytic as analytic
from swb import density, suites
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
    fundamental_disc_split,
    g_p_function,
)
from swb.counting import Budget, BudgetExceeded
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


def _formal_derivative_at(f, x):
    """The derivative as the former RationalFunction.derivative built it:
    the reduced rational function (n' d - n d') / d^2, evaluated at x."""
    return RationalFunction(
        f.num.derivative() * f.den - f.num * f.den.derivative(), f.den * f.den
    )(x)


def test_derivative_at_matches_formal_derivative_on_beta(monkeypatch):
    # every beta of the default singular-relation grid: beta'(1) at the
    # point against the formal derivative, and beta'(0) of the report
    betas = {}
    real = analytic.beta_p_function

    def recording(N, t, p, convention=None, budget=None):
        beta, b0 = real(N, t, p, convention=convention, budget=budget)
        betas[p, N, t, convention] = beta, b0
        return beta, b0

    monkeypatch.setattr(analytic, "beta_p_function", recording)
    monkeypatch.setattr(analytic, "_CLASS_CACHE", {})
    cfg = suites.SuiteConfig(suite="singular-relation")
    for kind, payload in suites._singular_cases(cfg):
        for r in suites._eval_case((kind, payload, cfg.budget, cfg.d_max)):
            assert r.passed, (r.kind, r.inputs, r.note)
    assert len(betas) > 20
    for (p, N, t, _), (beta, b0) in betas.items():
        formal = _formal_derivative_at(beta, Fraction(1))
        assert beta.derivative_at(Fraction(1)) == formal, (p, N, t)
        assert b0 == SymbolicNumber.log_prime(p, -formal), (p, N, t)


def test_derivative_at_matches_formal_derivative_on_a_p():
    # A_p for every (p, v_p(N)) with N <= 600, as eis0_data reads it
    seen = set()
    for N in range(1, 601):
        for p in prime_divisors(N):
            if (p, valuation(N, p)) in seen:
                continue
            seen.add((p, valuation(N, p)))
            A = a_p_function(N, p)
            assert A.derivative_at(Fraction(1)) == _formal_derivative_at(A, Fraction(1)), (p, N)
    assert len(seen) == 130


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
    term, central, _ = eis0_data(1)
    assert central == 0
    assert term == SymbolicNumber({Symbol.log_det_y: 1, Symbol.one: 2, Symbol.lambda_ratio: -4})
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


# ---------------------------------------------------------------------------
# g_p, the g functional equation and the singular relation are evaluated
# once per p-adic class of (t, N)

# the t of each row put (t, p^2) in pairwise different classes at p: the
# unit class of t is its unit part mod 8 at p = 2, its Legendre symbol at
# odd p
CLASS_SEPARATED = [(2, [1, 3, 5, 2]), (3, [1, 2])]
# the t of each row put (t, p^2) in one class
CLASS_SHARED = [(2, [1, 9, 17]), (3, [1, 4])]


def _entries(what):
    return sum(1 for key in analytic._CLASS_CACHE if key[0] == what)


def _check_all(N, t, p, **kw):
    return check_singular_relation(N, t, p, **kw) + [check_g_functional_equation(N, t, p, **kw)]


@pytest.mark.parametrize("p,ts", CLASS_SEPARATED, ids=str)
def test_class_cache_separates_classes(p, ts, monkeypatch):
    monkeypatch.setattr(analytic, "_CLASS_CACHE", {})
    for i, t in enumerate(ts):
        _check_all(p * p, t, p)
        for what in ("g", "singular", "g-fe"):
            assert _entries(what) == i + 1, (what, t)


def test_class_cache_separates_level_convention_and_ks(monkeypatch):
    monkeypatch.setattr(analytic, "_CLASS_CACHE", {})
    # N = 9, 18 and 27 differ in the unit class or the valuation of N at 3
    for i, N in enumerate([9, 18, 27]):
        _check_all(N, 1, 3)
        assert _entries("singular") == _entries("g-fe") == i + 1, N
    check_singular_relation(9, 1, 3, ks=(1,))
    assert _entries("singular") == 4
    _check_all(4, 1, 2, convention="A")
    _check_all(4, 1, 2, convention="B")
    assert _entries("singular") == 6 and _entries("g") == 5


@pytest.mark.parametrize("p,ts", CLASS_SHARED, ids=str)
def test_class_cache_shares_one_evaluation(p, ts, monkeypatch):
    monkeypatch.setattr(analytic, "_CLASS_CACHE", {})
    monkeypatch.setattr(density, "_POLY_CACHE", {})
    N = p * p
    assert len({analytic._class_key("singular", N, t, p, None) for t in ts}) == 1
    budget = Budget()
    _check_all(N, ts[0], p, budget=budget)
    assert budget.used > 0
    g_p = analytic.g_p_function
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return g_p(*args, **kwargs)

    monkeypatch.setattr(analytic, "g_p_function", counting)
    for t in ts[1:]:
        budget = Budget()
        served = _check_all(N, t, p, budget=budget)
        assert budget.used == 0 and not calls, t  # a hit charges no units
        split = fundamental_disc_split(t, N)
        assert served[0].inputs == {
            "p": p, "N": N, "t": t, "c": split.c, "d": split.d, "exponent": 2 * valuation(split.c, p)
        }
        assert all(r.inputs["t"] == t for r in served)
        analytic._CLASS_CACHE.clear()
        assert _check_all(N, t, p) == served, t
        assert calls
        calls.clear()


def test_class_cache_keeps_no_failure(monkeypatch):
    monkeypatch.setattr(analytic, "_CLASS_CACHE", {})

    def over_budget(*args, **kwargs):
        raise BudgetExceeded(2, 1, "test")

    g_p = analytic.g_p_function
    monkeypatch.setattr(analytic, "g_p_function", over_budget)
    with pytest.raises(BudgetExceeded):
        check_singular_relation(9, 1, 3)
    with pytest.raises(BudgetExceeded):
        check_g_functional_equation(9, 1, 3)
    assert not analytic._CLASS_CACHE
    monkeypatch.setattr(analytic, "g_p_function", g_p)

    def failing(*args, **kwargs):
        raise AnalyticError("test")

    beta_p = analytic.beta_p_function
    monkeypatch.setattr(analytic, "beta_p_function", failing)
    with pytest.raises(AnalyticError):
        check_singular_relation(9, 1, 3)
    assert _entries("g") == 1 and _entries("singular") == 0
    monkeypatch.setattr(analytic, "beta_p_function", beta_p)
    assert all(r.passed for r in check_singular_relation(9, 1, 3))


def test_class_cache_sound_on_default_grid(monkeypatch):
    # for two cases of each class of the default singular-relation grid, the
    # second case's results as served after the first equal its results
    # evaluated from an empty class cache
    cfg = suites.SuiteConfig(suite="singular-relation")
    classes = {}
    for kind, payload in suites._singular_cases(cfg):
        p, N, t, *extra, conv = payload
        classes.setdefault(analytic._class_key(kind, N, t, p, conv, *extra), []).append(payload)
    shared = [(key[0], cases[:2]) for key, cases in classes.items() if len(cases) > 1]
    assert len(shared) == 74

    def evaluate(kind, payload):
        return suites._dispatch(kind, payload, Budget(cfg.budget), None)

    monkeypatch.setattr(analytic, "_CLASS_CACHE", {})
    for kind, (first, second) in shared:
        analytic._CLASS_CACHE.clear()
        evaluate(kind, first)
        served = evaluate(kind, second)
        analytic._CLASS_CACHE.clear()
        fresh = evaluate(kind, second)
        assert served == fresh, (kind, second)
        assert all(r.passed for r in fresh), (kind, second)
