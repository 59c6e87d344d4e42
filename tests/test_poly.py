import pickle
import random
from fractions import Fraction

import pytest

from swb.poly import Poly, RationalFunction, lagrange_interpolate


def test_poly_ops():
    p = Poly([1, -1])  # 1 - X
    q = Poly([0, 0, 2])  # 2X^2
    assert (p * q).c == (0, 0, 2, -2)
    assert (p + q)(Fraction(1, 2)) == Fraction(1) - Fraction(1, 2) + Fraction(1, 2)
    assert p.derivative() == Poly([-1])
    assert (p - p).is_zero()


def test_poly_is_immutable():
    p = Poly([1, 2])
    with pytest.raises(AttributeError, match="Poly is immutable"):
        p.c = ()
    with pytest.raises(AttributeError, match="Poly is immutable"):
        del p.c
    with pytest.raises(AttributeError):
        p.extra = 1
    assert p.c == (1, 2)
    assert pickle.loads(pickle.dumps(p)) == p


def test_rational_function_is_immutable():
    # one cached g_p serves every (t, N) of its p-adic class
    f = RationalFunction(Poly([1, 2]), Poly([3, 1]))
    with pytest.raises(AttributeError, match="RationalFunction is immutable"):
        f.num = Poly([5])
    with pytest.raises(AttributeError):
        f.den = Poly([1])
    with pytest.raises(AttributeError, match="RationalFunction is immutable"):
        del f.num
    with pytest.raises(AttributeError):
        f.extra = 1
    assert (f.num, f.den) == (Poly([1, 2]), Poly([3, 1]))
    g = pickle.loads(pickle.dumps(f))
    assert g == f and (g.num, g.den) == (f.num, f.den)


def test_poly_divmod():
    a = Poly([-1, 0, 1])  # X^2 - 1
    b = Poly([1, 1])  # X + 1
    q, r = a.divmod(b)
    assert q == Poly([-1, 1]) and r.is_zero()


def test_rational_function_reduction():
    f = RationalFunction(Poly([-1, 0, 1]), Poly([1, 1]))  # (X^2-1)/(X+1) = X-1
    assert f == RationalFunction(Poly([-1, 1]))
    g = RationalFunction(Poly([0, 2]), Poly([0, 0, 4]))  # 2X / 4X^2 = 1/(2X)
    assert g.num == Poly([Fraction(1, 2)]) and g.den == Poly([0, 1])


def test_rational_function_algebra():
    X = RationalFunction.X()
    f = (1 - X) / (1 + X)
    g = (1 + X) / (1 - X)
    assert f * g == RationalFunction(1)
    assert f + g == ((1 - X) * (1 - X) + (1 + X) * (1 + X)) / ((1 + X) * (1 - X))
    assert f(Fraction(1, 3)) == Fraction(1, 2)


def test_substitute():
    X = RationalFunction.X()
    f = (1 - 2 * X) / (1 + X)
    # X -> 3X
    g = f.substitute(3, 1)
    assert g == (1 - 6 * X) / (1 + 3 * X)
    # X -> 1/(2X): f(1/(2X)) = (1 - 1/X)/(1 + 1/(2X)) = (2X-2)/(2X+1)
    h = f.substitute(Fraction(1, 2), -1)
    assert h == (2 * X - 2) / (2 * X + 1)
    # the Poly substitutions behind both: P(aX), and X^d P(a/X)
    P = Poly([1, -2, 5])
    assert P.scaled(3) == Poly([1, -6, 45])
    assert P.inverted(Fraction(1, 2), 2) == Poly([Fraction(5, 4), -1, 1])
    assert P.inverted(1, 4) == Poly([0, 0, 5, -2, 1])


def test_derivative_at_quotient_rule():
    X = RationalFunction.X()
    f = (1 - 2 * X) / (1 + X * X)
    # f' = (-2 (1 + X^2) - (1 - 2X) 2X) / (1 + X^2)^2
    for x in (Fraction(0), Fraction(1), Fraction(-3, 7)):
        want = (-2 * (1 + x * x) - (1 - 2 * x) * 2 * x) / (1 + x * x) ** 2
        assert f.derivative_at(x) == want
    assert RationalFunction(Poly([4, 0, 3])).derivative_at(Fraction(2)) == 12
    with pytest.raises(ZeroDivisionError, match="pole"):
        (1 / (1 - X)).derivative_at(Fraction(1))


def _lagrange_oracle(points) -> Poly:
    """Textbook Lagrange interpolation: a sum of basis-polynomial products."""
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    total = Poly()
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = Poly.const(1)
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = basis * Poly([-xj, 1])
            denom *= xi - xj
        total = total + basis * Poly.const(yi / denom)
    return total


LAGRANGE_POINTS = [
    [(Fraction(1, 3), Fraction(1, 9)), (Fraction(1, 9), Fraction(1, 81)), (2, 4)],
    [(Fraction(1, k), Poly([1, Fraction(-1, 2), 0, 3])(Fraction(1, k))) for k in (2, 3, 5, 7)],
]


def test_lagrange():
    p = lagrange_interpolate(LAGRANGE_POINTS[0])
    assert p == Poly([0, 0, 1])
    # an honest cubic through four points
    q = lagrange_interpolate(LAGRANGE_POINTS[1])
    assert q == Poly([1, Fraction(-1, 2), 0, 3])
    for pts in LAGRANGE_POINTS:
        assert lagrange_interpolate(pts) == _lagrange_oracle(pts)
    assert lagrange_interpolate([]) == Poly()
    with pytest.raises(ValueError, match="distinct"):
        lagrange_interpolate([(1, 2), (Fraction(2, 2), 3)])


@pytest.mark.parametrize("n", range(1, 14))
def test_lagrange_matches_oracle_on_random_nodes(n):
    # n points, degree up to 12: random distinct rational nodes, and the
    # nodes X = p^-k (k = 1..n) at which the density polynomials are sampled
    rng = random.Random(n)
    xs = set()
    while len(xs) < n:
        xs.add(Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
    node_sets = [sorted(xs)] + [[Fraction(1, p**k) for k in range(1, n + 1)] for p in (2, 3, 5)]
    for nodes in node_sets:
        pts = [(x, Fraction(rng.randint(-99, 99), rng.randint(1, 9))) for x in nodes]
        got = lagrange_interpolate(pts)
        assert got == _lagrange_oracle(pts)
        assert all(got(x) == y for x, y in pts)
