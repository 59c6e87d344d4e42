"""The analytic side: local factors of Eisenstein coefficients.

Everything is carried exactly: rational functions in X = p^(-s) or
X = p^(-k) per prime, and symbolic constants (log p, the completed-zeta
logarithmic derivative, log det y) only at the final assembly.  The
archimedean prefactors that multiply every finite Whittaker value
(absolute values of 2 and N, Weil indices) are tracked as opaque tags and
stripped identically from both sides of each verified identity.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from swb.density import (
    DEFAULT_CONVENTION,
    _check_reflection,
    interpolate_density_polynomial,
)
from swb.lattice import diagonal_lattice
from swb.padic import (
    euler_phi,
    kronecker_symbol,
    prime_divisors,
    square_class,
    squarefree_part,
    valuation,
)
from swb.poly import Poly, RationalFunction
from swb.report import CaseResult
from swb.symbolic import Symbol, SymbolicNumber, symbolic_reduce


class AnalyticError(Exception):
    pass


# ---------------------------------------------------------------------------
# discriminant bookkeeping


class DiscSplit(namedtuple("DiscSplit", "t N d c")):
    """The factorization 4 N t = c^2 d with -d a fundamental discriminant.

    When -tN is a rational square, d = -1 and the attached character is
    trivial.
    """

    __slots__ = ()

    def chi(self, p) -> int:
        if self.d == -1:
            return 1
        return kronecker_symbol(-self.d, p)


def fundamental_disc_split(t: int, N: int) -> DiscSplit:
    if t == 0 or N < 1:
        raise ValueError("need t != 0 and N >= 1")
    m = squarefree_part(-t * N)
    if m == 1:
        d = -1
    else:
        D = m if m % 4 == 1 else 4 * m
        d = -D
    c2 = Fraction(4 * N * t, d)
    c = math.isqrt(int(c2))
    if c * c != c2:
        raise AnalyticError(f"4Nt/d = {c2} is not a perfect square")
    return DiscSplit(t, N, d, c)


# ---------------------------------------------------------------------------
# rational-function helpers in X = p^(-k)


def _X():
    return RationalFunction.X()


def _mono(p, a: int, b: int) -> RationalFunction:
    """p^a X^b as a rational function (b may be negative)."""
    coef = Fraction(p) ** a
    if b >= 0:
        return RationalFunction(Poly.monomial(coef, b))
    return RationalFunction(Poly.const(coef), Poly.monomial(1, -b))


# ---------------------------------------------------------------------------
# one evaluation per p-adic class of (t, N)

_CLASS_CACHE: dict = {}


def _class_key(what, N, t, p, convention, *extra) -> tuple:
    """The key under which `what` is evaluated once: (what, p, the square
    classes of t and N at p, convention, extra).

    g_p, the g functional equation and the singular relation depend on
    (t, N) only through this key:

    - the flat density polynomials of <t, N> and <t, N/p^2> are memoized
      per Z_p-isometry class of the source, and the square classes of t
      and N fix both classes (N/p^2 keeps the unit class of N);
    - v_p(N) is the valuation in the class of N;
    - chi_{-d}(p) and v_p(c), where 4Nt = c^2 d, depend only on the square
      class of -tN in Q_p, the product of the classes of -1, t and N.
      Here -d is m or 4m for the squarefree part m of -tN, and m lies in
      the class of -tN.  At odd p, v_p(d) = v_p(-tN) mod 2 and chi is 0 or
      the Legendre symbol of the unit part.  At p = 2, v_2(d) is 0, 2 or 3
      as m is 1 mod 4, 3 mod 4 or even, and chi reads m mod 8.  Then
      v_p(c) = (v_p(4Nt) - v_p(d)) / 2.

    So every status, rendered lhs and rhs and note is a function of the
    key; only the inputs (p, N, t, and the c and d of the case's own
    `fundamental_disc_split`) belong to the case.
    """
    return (
        what,
        p,
        square_class(t, p),
        square_class(N, p),
        convention or DEFAULT_CONVENTION,
        *extra,
    )


def _once_per_class(key, compute):
    """compute() once per key.

    Only a miss runs `compute` and charges the budget it was handed, so a
    hit charges no units; an error or BudgetExceeded propagates and leaves
    nothing cached.
    """
    value = _CLASS_CACHE.get(key)
    if value is None:
        value = _CLASS_CACHE[key] = compute()
    return value


def _class_g(N, t, p, convention, budget) -> RationalFunction:
    """g_p_function, computed once per class of (t, N)."""
    return _once_per_class(
        _class_key("g", N, t, p, convention),
        lambda: g_p_function(N, t, p, convention=convention, budget=budget),
    )


def _rebind(results, own) -> list:
    """Cached CaseResults with every input that `own` names taken from
    `own`: the p, N, t (and c, d) of the case that computed them become
    those of the case at hand."""
    return [
        CaseResult(
            r.kind, {k: own.get(k, v) for k, v in r.inputs.items()}, r.status, r.lhs, r.rhs, r.note
        )
        for r in results
    ]


# ---------------------------------------------------------------------------
# g_p and beta_p


def g_p_function(N, t, p, convention=None, budget=None) -> RationalFunction:
    """The level-lowering ratio Den(H, <t, N/p^2>)/Den(H, <t, N>).

    Returned as a rational function of X = p^(-k); identically zero when
    v_p(N) <= 1.  Built from the interpolated flat density polynomials
    evaluated at X/p.
    """
    N = Fraction(N)
    n = valuation(N, p)
    if n <= 1:
        return RationalFunction(0)
    P_low = interpolate_density_polynomial(
        diagonal_lattice([t, N / p**2], p), "flat", 1, convention=convention, budget=budget
    )
    P_top = interpolate_density_polynomial(
        diagonal_lattice([t, N], p), "flat", 1, convention=convention, budget=budget
    )
    num = RationalFunction(P_low.poly).substitute(Fraction(1, p), 1)
    den = RationalFunction(P_top.poly).substitute(Fraction(1, p), 1)
    if den.is_zero():
        raise AnalyticError("vanishing flat density polynomial")
    return num / den


def check_g_functional_equation(N, t, p, convention=None, budget=None) -> CaseResult:
    """g(k) = p^(2k+1) g(-k-1) as a formal rational-function identity,
    evaluated once per class of (t, N) (see _class_key)."""
    cached = _once_per_class(
        _class_key("g-fe", N, t, p, convention),
        lambda: (_g_functional_equation(N, t, p, convention, budget),),
    )
    (out,) = _rebind(cached, {"p": p, "N": N, "t": t})
    return out


def _g_functional_equation(N, t, p, convention, budget) -> CaseResult:
    g = _class_g(N, t, p, convention, budget)
    inputs = {"p": p, "N": N, "t": t}
    if g.is_zero():
        return CaseResult.of("g-functional-equation", inputs, True, "0", "0", note="v_p(N) <= 1")
    # p^(2k+1) = p X^(-2); the reflected argument p^(k+1) corresponds to p/X
    lhs = g
    rhs = _mono(p, 1, -2) * g.substitute(Fraction(p), -1)
    return CaseResult.check("g-functional-equation", inputs, lhs, rhs)


def beta_p_function(N, t, p, convention=None, budget=None):
    """The correction factor at p | N relating the two reflected coefficients.

    Returns (beta, beta_prime_0) where beta is a rational function of
    Y = p^(-s) with beta(0) = 1, and beta_prime_0 is the derivative at
    s = 0 as an exact multiple of log p, computed by formal
    differentiation and confirmed against the closed expression
    2/(1+p) + 2 p^(-1) g(0) / (1 - p^(-1) g(0)).
    """
    g = _class_g(N, t, p, convention, budget)
    q = Fraction(p)
    Y = Poly.X()
    # p^(s-1) = 1/(pY), p^(-s-1) = Y/p, p^(-2s) = Y^2, and g evaluated at
    # s-1 has argument X_g = p^(-(s-1)) = pY: with g(pY) = A/B,
    #   beta = (1 + 1/(pY)) / (1 + Y/p) * (1 - Y^2 A/B) / (1 - A/B)
    #        = (pY + 1) (B - Y^2 A) / (Y (p + Y) (B - A)),  reduced once
    A, B = g.num.scaled(q), g.den.scaled(q)
    beta = RationalFunction((q * Y + 1) * (B - Y * Y * A), Y * (q + Y) * (B - A))
    if beta.den(Fraction(1)) == 0:
        raise AnalyticError("pole of beta at s=0")
    val0 = beta(Fraction(1))
    if val0 != 1:
        raise AnalyticError(f"beta(0) = {val0} != 1")
    # d/ds = -log(p) Y d/dY; at Y = 1 and beta(1) = 1 this is -log(p) beta'(1)
    coeff = -beta.derivative_at(Fraction(1))
    g0 = g(Fraction(1))
    closed = Fraction(2, 1 + p) + 2 * q**-1 * g0 / (1 - q**-1 * g0)
    if coeff != closed:
        raise AnalyticError(
            f"beta'(0) mismatch: formal {coeff} vs closed {closed} (p={p}, N={N}, t={t})"
        )
    return beta, SymbolicNumber.log_prime(p, coeff)


# ---------------------------------------------------------------------------
# the degenerate coefficient factor A_p


def a_p_closed(N, p) -> RationalFunction:
    """Closed form of the local degenerate factor, X = p^(-s)."""
    N = Fraction(N)
    n = valuation(N, p)
    X = _X()
    q = Fraction(p)
    scale = RationalFunction(q**-n)
    if n == 0:
        return scale / (1 + Fraction(1, p) * X)
    lead = 1 / (1 + Fraction(1, p) * X)
    # (1 - (pX)^(n+1))/(1 - pX) and the X^2-shifted lower companion
    first = (1 - _mono(p, n + 1, n + 1)) / (1 - p * X)
    second = (1 - _mono(p, n - 1, n - 1)) / (1 - p * X)
    return scale * lead * (first - RationalFunction(Poly([0, 0, 1])) * second)


def a_p_limit_route(N, p) -> RationalFunction:
    """The same factor assembled from the stable large-weight limit of the
    level-N density polynomials:

        |N|_p Nor+(X,1) * lim Den_Delta(X) * zeta_p(2k-1)/zeta_p(2k+2)-correction

    with lim Den_Delta(X) = (1 - X^2 + (p^(n-1) - p^(n+1)) X^(n+1)) /
    ((1-pX)(1-pX^2)) for n >= 1 and 1/(1-pX^2) for n = 0 (the coprime
    normalizer).
    """
    N = Fraction(N)
    n = valuation(N, p)
    X = _X()
    q = Fraction(p)
    if n == 0:
        lim = 1 / (1 - p * X * X)
    else:
        num = 1 - X * X + (q ** (n - 1) - q ** (n + 1)) * RationalFunction(Poly.monomial(1, n + 1))
        lim = num / ((1 - p * X) * (1 - p * X * X))
    nor = 1 - Fraction(1, p) * X
    zeta_correction = (1 - p * X * X) / (1 - Fraction(1, p * p) * X * X)
    return RationalFunction(q**-n) * nor * lim * zeta_correction


def a_p_function(N, p) -> RationalFunction:
    """A_p with the two independent constructions asserted identical."""
    closed = a_p_closed(N, p)
    limit = a_p_limit_route(N, p)
    if closed != limit:
        raise AnalyticError(f"A_p route mismatch at p={p}, N={N}: {closed} vs {limit}")
    return closed


# ---------------------------------------------------------------------------
# finite Whittaker parts (prefactor-stripped)


def whittaker_parts_formal(N, t, p, convention=None, budget=None):
    """Both prefactor-stripped Whittaker parts as functions of X = p^(-k).

    genus-2 part at s = k:      flat(X)   (1 - X^2 g(k-1)) / (1 - chi X) * tail
    genus-1 part at s = 1/2 - k: flat(1/(pX)) (1 - p^(2k-1) g(-k)) / (1 - chi p^(k-1)) * tail(-k)

    Each part is a pair (numerator, denominator) of Polys, not reduced: a
    caller that combines them reduces the result once.
    """
    split = fundamental_disc_split(int(t), int(N))
    chi = split.chi(p)
    P = interpolate_density_polynomial(
        diagonal_lattice([t, N], p), "flat", 1, convention=convention, budget=budget
    )
    g = _class_g(N, t, p, convention, budget)
    X = Poly.X()
    q = Fraction(p)
    on_level = valuation(Fraction(N), p) >= 1
    # tail(k) = 1 - X/p or 1 - X^2/p^2, and tail(-k) = tail_mk / X^a
    tail_k = 1 - X * q**-1 if on_level else 1 - X * X * q**-2
    tail_mk, a = (X - q**-1, 1) if on_level else (X * X - q**-2, 2)
    # g(k-1) = g(pX) = A/B, and g(-k) = g(1/X) = C/E
    A, B = g.num.scaled(q), g.den.scaled(q)
    dg = max(g.num.degree(), g.den.degree(), 0)
    C, E = g.num.inverted(Fraction(1), dg), g.den.inverted(Fraction(1), dg)
    # flat(1/(pX)) = F / X^dP
    dP = max(P.poly.degree(), 0)
    F = P.poly.inverted(q**-1, dP)
    w2 = (P.poly * (B - X * X * A) * tail_k, B * (1 - chi * X))
    # (1 - X^-2 C/(pE)) / (1 - chi/(pX)) = (X^2 E - C/p) / (X E (X - chi/p))
    w1_reflected = (
        F * (X * X * E - C * q**-1) * tail_mk,
        Poly.monomial(1, dP + 1 + a) * E * (X - chi / q),
    )
    return w2, w1_reflected, P, g, split


# ---------------------------------------------------------------------------
# the singular-coefficient relation


def check_singular_relation(N, t, p, ks=(1, 2, 3), convention=None, budget=None):
    """The prefactor-stripped ratio identity between the two genus parts.

    Verifies, as an exact identity of rational functions in X = p^(-k)
    (and pointwise at the sampled integers k where no denominator
    vanishes):

      [W2(k) zeta_p(2k)/L_p(k,chi)] / [W1(1/2-k) zeta_p(2-2k)/L_p(1-k,chi)]
        = p^((1-2k) v_p(c)) zeta_p(2k)/zeta_p(2k+2) * (1 or beta_p(k))

    The reflected genus-1 part is produced through the flat functional
    equation, whose exponent 2 v_p(c) is itself verified on the
    polynomial first.

    Evaluated once per class of (t, N) and ks (see _class_key).
    """
    split = fundamental_disc_split(int(t), int(N))
    own = {"p": p, "N": N, "t": t, "c": split.c, "d": split.d}
    cached = _once_per_class(
        _class_key("singular", N, t, p, convention, tuple(ks)),
        lambda: tuple(_singular_relation(N, t, p, ks, convention, budget)),
    )
    return _rebind(cached, own)


def _singular_relation(N, t, p, ks, convention, budget) -> list:
    out = []
    inputs = {"p": p, "N": N, "t": t}
    w2, w1r, P, g, split = whittaker_parts_formal(N, t, p, convention, budget)
    q = Fraction(p)
    nu_c = valuation(split.c, p)
    # functional equation of the flat polynomial with exponent 2 nu_c
    ok_fe, _ = _check_reflection(P.poly, 2 * nu_c, 1, q, flat=True)
    out.append(
        CaseResult.of(
            "flat-reflection-exponent",
            inputs | {"c": split.c, "d": split.d, "exponent": 2 * nu_c},
            ok_fe,
            lhs=str(P.poly),
        )
    )
    if not ok_fe:
        return out
    chi = split.chi(p)
    X = Poly.X()
    # zeta_p(2k)/L_p(k, chi) = (1 - chi X) / (1 - X^2), and at 1/2 - k
    # (1 - chi/(pX)) / (1 - 1/(p^2 X^2)) = X (X - chi/p) / (X^2 - p^-2)
    (n2, d2), (n1, d1) = w2, w1r
    lhs = RationalFunction(
        n2 * (1 - chi * X) * d1 * (X * X - q**-2),
        d2 * (1 - X * X) * n1 * X * (X - chi / q),
    )
    # p^(nu_c) X^(2 nu_c) zeta_p(2k)/zeta_p(2k+2), times beta_p(k) at p | N
    rhs_num = Poly.monomial(q**nu_c, 2 * nu_c) * (1 - X * X * q**-2)
    rhs_den = 1 - X * X
    if valuation(Fraction(N), p) >= 1:
        beta, _ = beta_p_function(N, t, p, convention=convention, budget=budget)
        rhs_num, rhs_den = rhs_num * beta.num, rhs_den * beta.den
    rhs = RationalFunction(rhs_num, rhs_den)
    out.append(CaseResult.check("singular-relation", inputs, lhs, rhs))
    for k in ks:
        x = q**-k
        try:
            lv, rv = lhs(x), rhs(x)
        except ZeroDivisionError:
            out.append(
                CaseResult.of(
                    "singular-relation-at-k",
                    inputs | {"k": k},
                    out[-1].passed,
                    note="local factor vanishes; covered by the formal identity",
                )
            )
            continue
        out.append(CaseResult.check("singular-relation-at-k", inputs | {"k": k}, lv, rv))
    return out


# ---------------------------------------------------------------------------
# level lowering


def check_level_lowering(N, t, p, convention=None, budget=None) -> CaseResult:
    """The weighted sum over lowered levels against the g-value resolvent.

    At the point s = 1 the ratio of normalized coefficient data between
    level N/p^(2i) and level N collapses to local data at p; the weighted
    sum over i must equal p^(-1) g(0) / (1 - p^(-1) g(0)).
    """
    N = int(N)
    n = valuation(Fraction(N), p)
    if n < 2:
        raise ValueError("level lowering needs v_p(N) >= 2")
    q = Fraction(p)
    inputs = {"p": p, "N": N, "t": t}
    levels = [N // p ** (2 * i) for i in range(n // 2 + 1)]
    gs = [_class_g(level, t, p, convention, budget) for level in levels]
    g_at_0 = [Fraction(0) if gi.is_zero() else gi(Fraction(1)) for gi in gs]
    lhs = Fraction(0)
    for i in range(1, n // 2 + 1):
        Ni = levels[i]
        coprime = valuation(Fraction(Ni), p) == 0
        c_ratio = q ** (-4 * i) * (1 / (1 - q**-2) if coprime else Fraction(1))
        den_ratio = Fraction(1)
        for j in range(i):
            den_ratio *= g_at_0[j]
        bracket_ratio = (1 - q**-1 * g_at_0[i]) / (1 - q**-1 * g_at_0[0])
        tail_ratio = (1 - q**-2) / (1 - q**-1) if coprime else Fraction(1)
        R_i = c_ratio * q**i * den_ratio * bracket_ratio * tail_ratio
        weight = Fraction(p ** (n - 1) * (p - 1), euler_phi(p ** (n - 2 * i)))
        lhs += weight * R_i
    rhs = q**-1 * g_at_0[0] / (1 - q**-1 * g_at_0[0])
    return CaseResult.check("level-lowering", inputs, lhs, rhs)


# ---------------------------------------------------------------------------
# the degenerate constant term


def eis0_data(N: int):
    """Exact assembly data of the degenerate constant-term derivative.

    Returns (term, central_value, {p: c_p}) where term is the symbolic
    derivative, central_value is the s = 0 value of the assembled
    coefficient (must vanish by incoherence), and c_p are the exact
    log-derivative coefficients of the local factors.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    primes = prime_divisors(N) if N > 1 else []
    c = {}
    prod_at_0 = Fraction(1)
    for p in primes:
        A = a_p_function(N, p)
        val1 = A(Fraction(1))
        prod_at_0 *= val1
        # d/ds log A at s=0 is -log(p) A'(1)/A(1)
        c[p] = -A.derivative_at(Fraction(1)) / val1
    central = 1 - prod_at_0  # value of det(y)^(s/2) + det(y)^(-s/2) F(s) at 0
    terms = [
        (-2, Symbol.one),
        (2, "Lambda'(-1)/Lambda(-1)"),
        (-2, "LambdaRatio2"),
    ]
    for p in primes:
        terms.append((c[p], Symbol.log_prime(p)))
    dlog = symbolic_reduce(terms)
    f_prime = -dlog  # F(0) = -1, so F'(0) = F(0) * dlog F
    term = SymbolicNumber({Symbol.log_det_y: 1}) + f_prime
    return term, central, c


def eis0_derivative(N: int) -> SymbolicNumber:
    """The symbolic constant-term derivative; hard error on incoherence
    failure (nonzero central value) or on an unexpected symbol."""
    term, central, _ = eis0_data(N)
    if central != 0:
        raise AnalyticError(f"central value at N={N} is {central}, expected 0")
    allowed = {Symbol.one, Symbol.log_det_y, Symbol.lambda_ratio} | {
        Symbol.log_prime(p) for p in prime_divisors(N) if N > 1
    }
    if not term.symbols() <= allowed:
        raise AnalyticError(f"unexpected symbols in constant term: {term}")
    return term
