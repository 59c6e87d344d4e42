import pickle
import re
from fractions import Fraction

import pytest

import swb.density as density
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
from swb.density import lattice_chi
from swb.lattice import (
    diagonal_lattice,
    hyperbolic_lattice,
    parse_lattice,
    plane_lattice,
    zero_lattice,
)
from swb.padic import square_class
from swb.poly import Poly, lagrange_interpolate


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


def test_local_density_splits_the_source_once(monkeypatch):
    # a non-diagonal odd-p source is Jordan-split once per scan, not once
    # per depth by count_reps; the scan of hyp:6:+ <- hyp:2:+ reads 2 depths
    import swb.counting as counting

    calls = 0
    real = density.jordan_form

    def counting_jordan_form(L):
        nonlocal calls
        calls += 1
        return real(L)

    monkeypatch.setattr(density, "jordan_form", counting_jordan_form)
    monkeypatch.setattr(counting, "jordan_form", counting_jordan_form)
    M, L = parse_lattice("hyp:6:+", 3), parse_lattice("hyp:2:+", 3)
    dv = local_density(M, L)
    assert calls == 1
    assert dv.value == local_density(M, diagonal_lattice([-1, 1], 3)).value
    # a failed scan names the source as given, not its split
    L = parse_lattice("sum:diag:1+hyp:2:+", 3)
    with pytest.raises(StabilizationError, match=re.escape(f"for {L!r} -> {M!r}")):
        local_density(M, L, d_max=1)


def test_stabilized_at_reported():
    dv = local_density(hyperbolic_lattice(4, 1, 2), diagonal_lattice([1, 4], 2))
    assert isinstance(dv, DensityValue)
    # the (1,4) source needs depth 4: the accidental plateau at d=2,3 is skipped
    assert dv.value == Fraction(27, 32)
    assert dv.stabilized_at >= 4


def test_density_polynomial_is_immutable():
    # one cached object serves every source of a class, so a caller must
    # not be able to rebind its polynomial
    P = interpolate_density_polynomial(diagonal_lattice([1, 1], 3), "flat", 1)
    with pytest.raises(AttributeError):
        P.poly = Poly([2])
    assert interpolate_density_polynomial(diagonal_lattice([1, 1], 3), "flat", 1).poly == Poly([1])
    # nor change its coefficients: diag(1, 3) and diag(4, 3) share a class
    P = interpolate_density_polynomial(diagonal_lattice([1, 3], 3), "flat", 1)
    want = P.poly.c
    with pytest.raises(AttributeError):
        P.poly.c = ()
    assert interpolate_density_polynomial(diagonal_lattice([4, 3], 3), "flat", 1).poly.c == want
    assert want


def test_class_cache_sound_on_singular_grid(monkeypatch):
    # every diag(t, N) the default singular-relation grid interpolates: a
    # fresh interpolation of that very source, with the cache cleared,
    # equals the polynomial served for its class.  The analytic layer
    # evaluates each p-adic class of (t, N) once, so its cache is cleared
    # before every case: each case then interpolates its own sources.
    import swb.analytic as analytic
    from swb import suites

    served = {}

    def recording(L, kind="den", eps=1, N=None, convention=None, budget=None):
        P = interpolate_density_polynomial(L, kind, eps, N, convention, budget)
        served[L.p, L.diagonal_values(), kind, eps, N, convention] = P
        return P

    monkeypatch.setattr(analytic, "interpolate_density_polynomial", recording)
    monkeypatch.setattr(density, "_POLY_CACHE", {})
    monkeypatch.setattr(analytic, "_CLASS_CACHE", {})
    cfg = suites.SuiteConfig(suite="singular-relation")
    for kind, payload in suites._singular_cases(cfg):
        analytic._CLASS_CACHE.clear()
        for r in suites._eval_case((kind, payload, cfg.budget, cfg.d_max)):
            assert r.passed, (r.kind, r.inputs, r.note)
    assert len(served) > len(density._POLY_CACHE)  # some classes hold several sources
    for (p, diag, kind, eps, N, convention), P in served.items():
        monkeypatch.setattr(density, "_POLY_CACHE", {})
        fresh = interpolate_density_polynomial(diagonal_lattice(list(diag), p), kind, eps, N, convention)
        assert fresh.poly == P.poly, (p, diag, kind)


# each source differs from every other of its row in one valuation or one
# unit square class: the unit mod 8 at p = 2, the Legendre symbol at odd p
SEPARATED = [
    (2, "den", [[1], [3], [5], [7], [2], [6], [10], [14], [4]]),
    (3, "den", [[1], [2], [3], [6], [9]]),
    (5, "den", [[1], [2], [5], [10], [25]]),
    (3, "flat", [[1, 1], [1, 2], [1, 3], [1, 6], [2, 3], [2, 6]]),
    (5, "flat", [[1, 1], [1, 2], [1, 5], [1, 10], [2, 5]]),
]


@pytest.mark.parametrize("p,kind,sources", SEPARATED, ids=lambda x: str(x))
def test_class_cache_separates_classes(p, kind, sources, monkeypatch):
    monkeypatch.setattr(density, "_POLY_CACHE", {})
    for i, vals in enumerate(sources):
        interpolate_density_polynomial(diagonal_lattice(vals, p), kind)
        assert len(density._POLY_CACHE) == i + 1, vals


@pytest.mark.parametrize("p", [3, 5])
def test_class_cache_separates_levels(p, monkeypatch):
    # kind "delta" keys N by its class too
    monkeypatch.setattr(density, "_POLY_CACHE", {})
    n0 = 2  # a non-residue mod 3 and mod 5
    for i, N in enumerate([1, n0, p, n0 * p]):
        interpolate_density_polynomial(diagonal_lattice([1], p), "delta", N=N)
        assert len(density._POLY_CACHE) == i + 1, N


# each row is one class: the entries agree in valuation and unit square
# class up to order
SHARED = [
    (2, "den", None, [[1], [9], [17], [-7]]),
    (2, "den", None, [[6], [22], [-10]]),
    (3, "den", None, [[1], [4], [7], [-2]]),
    (5, "den", None, [[2], [3], [8], [-2]]),
    (3, "flat", None, [[1, 6], [6, 1], [4, 15]]),
    (3, "delta", 2, [[1], [4]]),
    (3, "delta", 5, [[1], [7]]),
]


@pytest.mark.parametrize("p,kind,N,sources", SHARED, ids=lambda x: str(x))
def test_class_cache_shares_one_polynomial(p, kind, N, sources, monkeypatch):
    monkeypatch.setattr(density, "_POLY_CACHE", {})
    first = interpolate_density_polynomial(diagonal_lattice(sources[0], p), kind, N=N)
    for vals in sources[1:]:
        assert interpolate_density_polynomial(diagonal_lattice(vals, p), kind, N=N) is first
    for vals in sources[1:]:
        monkeypatch.setattr(density, "_POLY_CACHE", {})
        fresh = interpolate_density_polynomial(diagonal_lattice(vals, p), kind, N=N)
        assert fresh.poly == first.poly, vals


def _trial_degree_oracle(L, kind, eps, convention):
    """The former sampling of a den or flat polynomial: L.val() + 3 points
    fitted and two more checked, each sample normalized on its own."""
    p, n, q = L.p, L.rank, Fraction(L.p)
    n_points = (L.val() if n else 0) + 3
    points = []
    for k in range(1, n_points + 3):
        target = density._sample_target(kind, p, eps, n, k)
        value = local_density(target, L, convention=convention).value
        if kind == "den":
            value /= nor_factor(p, n, eps)(q**-k)
        else:
            value *= 1 - eps * lattice_chi(L) * q**-k
            value /= nor_factor(p, n - 1, eps)(q**-k) * (1 - q ** (-2 * k))
        points.append((q**-k, value))
    poly = lagrange_interpolate(points[:n_points])
    assert all(poly(x) == y for x, y in points[n_points:])
    return poly


def test_stated_degree_bound_matches_trial_degree_on_grids(monkeypatch):
    # every class the default singular-relation and level-lowering grids
    # and functional-equation with seeds 0-3 interpolate: the polynomial
    # from L.val() + 1 samples equals the trial-degree oracle's, and its
    # degree is at most L.val()
    import swb.analytic as analytic
    from swb import suites

    served = {}
    real = density.interpolate_density_polynomial

    def recording(L, kind="den", eps=1, N=None, convention=None, budget=None):
        P = real(L, kind, eps, N, convention, budget)
        key = (
            L.p,
            tuple(sorted(square_class(a, L.p) for a in L.diagonal_values())),
            kind,
            eps,
            convention,
        )
        served.setdefault(key, (L, P))
        return P

    monkeypatch.setattr(analytic, "interpolate_density_polynomial", recording)
    monkeypatch.setattr(density, "interpolate_density_polynomial", recording)
    monkeypatch.setattr(analytic, "_CLASS_CACHE", {})
    monkeypatch.setattr(density, "_POLY_CACHE", {})
    configs = [suites.SuiteConfig(suite="singular-relation"), suites.SuiteConfig(suite="level-lowering")]
    configs += [suites.SuiteConfig(suite="functional-equation", seed=s) for s in range(4)]
    for cfg in configs:
        for kind, payload in suites.SUITES[cfg.suite][0](cfg):
            for r in suites._eval_case((kind, payload, cfg.budget, cfg.d_max)):
                assert r.passed, (r.kind, r.inputs, r.note)
    assert {key[2] for key in served} == {"den", "flat"}
    assert len(served) == len(density._POLY_CACHE) > 100
    for (p, classes, kind, eps, convention), (L, P) in served.items():
        assert P.degree <= L.val(), (p, classes, kind)
        assert P.poly == _trial_degree_oracle(L, kind, eps, convention), (p, classes, kind)


@pytest.mark.parametrize(
    "p,vals,kind", [(3, [1, 3], "den"), (5, [1], "den"), (5, [1, 25], "flat"), (2, [1, 3], "flat")]
)
def test_interpolation_rejects_degree_above_bound(p, vals, kind, monkeypatch):
    # local_density replaced by samples of a polynomial f, normalized back:
    # degree b = L.val() is fitted; degree b + 1 fails at the first check
    L = diagonal_lattice(vals, p)
    n, q, b = L.rank, Fraction(p), L.val()

    def normalization(x):
        if kind == "den":
            return 1 / nor_factor(p, n, 1)(x)
        return (1 - lattice_chi(L) * x) / (nor_factor(p, n - 1, 1)(x) * (1 - x * x))

    for degree in (b, b + 1):
        f = Poly([Fraction(i + 2, 3) for i in range(degree + 1)])

        def samples(M, source, convention=None, budget=None):
            k = (M.rank - n - (kind == "den")) // 2
            return DensityValue(f(q**-k) / normalization(q**-k), 0, "A")

        monkeypatch.setattr(density, "local_density", samples)
        monkeypatch.setattr(density, "_POLY_CACHE", {})
        if degree == b:
            assert interpolate_density_polynomial(L, kind).poly == f
            continue
        with pytest.raises(InterpolationError) as err:
            interpolate_density_polynomial(L, kind)
        assert err.value.k == b + 2
