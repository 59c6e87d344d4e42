"""Local representation densities and their polynomial interpolations.

Two independent engines live here: the counting engine (stabilized limits
of normalized solution counts over Z/p^d) and closed forms / interpolated
polynomials in the variable X = p^(-k).  Checks that play one against the
other are the core of the verification suites.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from swb.counting import Budget, EngineUnsupported, count_reps
from swb.lattice import (
    QuadLattice,
    diagonal_lattice,
    delta_lattice,
    direct_sum,
    hyperbolic_lattice,
    invariants,
    jordan_form,
    space_det,
    twisted_hyperbolic,
)
from swb.padic import (
    hilbert_symbol,
    quad_residue_symbol,
    smallest_nonresidue,
    square_class,
    valuation,
)
from swb.poly import Poly, lagrange_interpolate
from swb.report import CaseResult

DEFAULT_CONVENTION = "A"


class DensityError(Exception):
    pass


class StabilizationError(DensityError):
    def __init__(self, msg, history):
        super().__init__(msg)
        self.history = history

    def __reduce__(self):
        return type(self), (self.args[0], self.history)


class InterpolationError(DensityError):
    def __init__(self, msg, k):
        super().__init__(msg)
        self.k = k

    def __reduce__(self):
        return type(self), (self.args[0], self.k)


def chi_local(disc, p) -> int:
    """Discriminant character of a square class: 0 ramified, +-1 unramified."""
    disc = Fraction(disc)
    if disc == 0:
        return 0
    v, u = square_class(disc, p)
    if v % 2:
        return 0
    return u if p != 2 else {1: 1, 5: -1}.get(u, 0)


def lattice_chi(L: QuadLattice) -> int:
    """chi(L) usable at every p (the p=2 value via the square class)."""
    m = L.rank
    disc = Fraction(-1) ** (m * (m - 1) // 2) * L.det_moment()
    return chi_local(disc, L.p)


DensityValue = namedtuple("DensityValue", "value stabilized_at convention")


def rep_dimension(m: int, n: int) -> int:
    return m * n - n * (n + 1) // 2


def _describe(L: QuadLattice) -> str:
    """Short human-readable lattice tag for report inputs."""
    if L.rank == 0:
        return "0"
    if L.is_diagonal():
        return "<" + ",".join(str(v) for v in L.diagonal_values()) + ">"
    if L.blocks is not None:
        parts = []
        for blk in L.blocks:
            parts.append("H2" if blk == ("plane",) else f"<{blk[1]}>")
        return "+".join(parts)
    return f"rank{L.rank}"


def _split_source(L: QuadLattice) -> QuadLattice:
    """L as a diagonal lattice: a non-diagonal source is Jordan-split here,
    once per stabilization scan, where count_reps would split it at every
    depth.  The counts are the same, since count_reps reads only the split."""
    if L.is_diagonal():
        return L
    if L.p == 2:  # jordan_form splits at odd p only, like count_reps
        raise EngineUnsupported("non-diagonal source at p=2")
    return diagonal_lattice(jordan_form(L), L.p)


def source_depth(L: QuadLattice) -> int:
    """Largest valuation among the q-values of a diagonal source."""
    if L.rank == 0:
        return 0
    return max(int(valuation(v, L.p)) for v in L.diagonal_values())


def local_density(
    M: QuadLattice,
    L: QuadLattice,
    convention: str = None,
    primitive: bool = False,
    d_max: int | None = None,
    budget: Budget | None = None,
) -> DensityValue:
    """Stabilized normalized count of Gram-preserving maps L -> M mod p^d.

    Scans d until two consecutive normalized values agree and reports the
    first such d.  Small d can show accidental plateaus before the count
    becomes uniform (e.g. a rank-2 dyadic source with q-values (1, 4)
    plateaus at d = 2,3 and only then reaches its limit), so the scan
    starts at a shape-derived depth: one past the largest diagonal
    valuation of the source, plus two more at p = 2.  Measured onsets
    across targets and sources sit strictly below this start.
    """
    convention = convention or DEFAULT_CONVENTION
    p = M.p
    n, m = L.rank, M.rank
    if n == 0:
        return DensityValue(Fraction(1), 0, convention)
    src = _split_source(L)
    d_start = source_depth(src) + 1 + (2 if p == 2 else 0)
    if d_max is None:
        d_max = d_start + 5
    dim = rep_dimension(m, n)
    history = []
    prev = None
    for d in range(d_start, d_max + 1):
        cnt = count_reps(M, src, d, primitive=primitive, convention=convention, budget=budget)
        val = Fraction(cnt, 1) / Fraction(p) ** (d * dim)
        history.append((d, val))
        if prev is not None and prev == val:
            return DensityValue(val, d - 1, convention)
        prev = val
    raise StabilizationError(
        f"no stabilization up to d_max={d_max} for {L!r} -> {M!r}", history
    )


def primitive_density(M, L, convention=None, **kw) -> DensityValue:
    return local_density(M, L, convention=convention, primitive=True, **kw)


def pden_rank1_closed(k: int, eps: int, N, p) -> Fraction:
    """Closed form for the primitive density of a rank-1 source in H_k^eps.

    Four cases split by the parity of k and whether p divides N; at p = 2
    only (k even, eps = +1) is within the supported conventions.
    """
    N = Fraction(N)
    if N == 0:
        raise ValueError("N must be nonzero")
    if eps not in (1, -1):
        raise ValueError("eps must be +-1")
    if p == 2 and (k % 2 or eps != 1):
        raise ValueError("p=2 needs k even and eps=+1")
    q = Fraction(p)
    divides = valuation(N, p) >= 1
    if k % 2:
        if divides:
            return 1 - q ** (1 - k)
        chi = quad_residue_symbol(N, p)
        return 1 + eps * chi * q ** ((1 - k) // 2)
    if divides:
        return (1 - eps * q ** (-k // 2)) * (1 + eps * q ** (1 - k // 2))
    return 1 - eps * q ** (-k // 2)


def nor_factor(p, n: int, eps: int) -> Poly:
    """Normalizing polynomial in X = p^(-k) for a rank-n source."""
    q = Fraction(p)
    out = Poly.const(1)
    if n % 2:
        out = out * Poly([1, -eps * q ** (-(n + 1) // 2)])
    i = 1
    while 2 * i < n + 1:
        out = out * Poly([1, 0, -q ** (-2 * i)])
        i += 1
    return out


class DensityPolynomial(namedtuple("DensityPolynomial", "poly")):
    """An interpolated density polynomial; one cached object serves every
    source of its Z_p-isometry class, so it is immutable."""

    __slots__ = ()

    @property
    def degree(self):
        return self.poly.degree()


def _sample_target(kind, p, eps, n, k, N=None) -> QuadLattice:
    if kind == "den":
        return hyperbolic_lattice(2 * k + n + 1, eps, p)
    if kind == "flat":
        return hyperbolic_lattice(2 * k + n, eps, p)
    if kind == "delta":
        rest = 2 * k + n - 2
        delt = delta_lattice(N, p)
        return delt if rest == 0 else direct_sum(delt, hyperbolic_lattice(rest, eps, p))
    raise ValueError(f"unknown kind {kind!r}")


_POLY_CACHE: dict = {}


def interpolate_density_polynomial(
    L: QuadLattice,
    kind: str = "den",
    eps: int = 1,
    N=None,
    convention: str = None,
    budget: Budget | None = None,
) -> DensityPolynomial:
    """Sample normalized densities at k = 1, 2, ... and interpolate in X.

    The degree has a stated bound b.  For kinds "den" and "flat", b =
    L.val(): Katsurada's functional equation for the Siegel series (Amer.
    J. Math. 1999) bounds the degree by it, and the reflection checks of
    the suites (`_check_reflection`, which fails on a degree above its
    exponent e <= L.val()) confirm it on every class they see.  For kind
    "delta", b = L.val() + v_p(2N) + 4 is padding, not a proven bound.
    The interpolation uses the first b + 1 samples and the next two must
    lie on the polynomial, otherwise InterpolationError is raised: a
    sequence of higher degree fails there.

    Results are memoized per Z_p-isometry class of a diagonal source: the
    sorted multiset of the (valuation, unit square class) of its entries,
    and for kind "delta" the class of N.  Permuting basis vectors and
    scaling one by a unit are isometries, so the counts mod p^d agree at
    every d, and every normalization below (L.val(), lattice_chi, v_p(N)
    and the symbol of N) is a class invariant.
    """
    p = L.p
    n = L.rank
    q = Fraction(p)
    if kind == "delta":
        if not N:
            raise ValueError("delta kind needs a nonzero level N")
        N = Fraction(N)
    if p == 2:
        if eps != 1:
            raise ValueError("p=2 supports eps=+1 only")
        need_even = {"den": 1, "flat": 0, "delta": 0}[kind]
        if (n + need_even) % 2:
            raise ValueError(f"p=2 kind={kind} unsupported for source rank {n}")
    bound = L.val() if n else 0  # raises for a degenerate source
    cache_key = None
    if L.is_diagonal():
        cache_key = (
            p,
            tuple(sorted(square_class(a, p) for a in L.diagonal_values())),
            kind,
            eps,
            square_class(N, p) if kind == "delta" else None,
            convention or DEFAULT_CONVENTION,
        )
        cached = _POLY_CACHE.get(cache_key)
        if cached is not None:
            return cached
    if kind == "delta":
        bound += valuation(2 * N, p) + 4
    # the normalization: each sample is multiplied by num(X) / den(X)
    X = Poly.X()
    num = Poly.const(1)
    if kind == "den":
        den = nor_factor(p, n, eps)
    elif kind == "flat":
        # the flat normalization carries an extra (1 - X^2): this is what
        # makes the reflection X -> 1/(qX) exact and the Whittaker
        # dictionary uniform across p | N and p coprime to N
        num = 1 - eps * lattice_chi(L) * X
        den = nor_factor(p, n - 1, eps) * (1 - X * X)
    elif valuation(N, p) >= 1:
        den = nor_factor(p, n - 1, eps)
    else:
        # the sign twist by chi(N) only matters for odd source rank, which
        # never reaches here at p = 2
        chi_n = quad_residue_symbol(N, p) if p != 2 else 1
        den = nor_factor(p, n, eps * chi_n)
    n_points = bound + 1
    ks = list(range(1, n_points + 2 + 1))
    points = []
    for k in ks:
        target = _sample_target(kind, p, eps, n, k, N)
        value = local_density(target, L, convention=convention, budget=budget).value
        x = q**-k
        points.append((x, value * num(x) / den(x)))
    poly = lagrange_interpolate(points[:n_points])
    for k, (x, y) in zip(ks[n_points:], points[n_points:]):
        if poly(x) != y:
            raise InterpolationError(
                f"verification point k={k} off the interpolated polynomial", k
            )
    result = DensityPolynomial(poly)
    if cache_key is not None:
        _POLY_CACHE[cache_key] = result
    return result


# ---------------------------------------------------------------------------
# identity checks


def check_difference_formula(
    k: int,
    eps: int,
    M: QuadLattice,
    N,
    convention: str = None,
    budget: Budget | None = None,
) -> CaseResult:
    """Exact two-sided evaluation of the source-splitting identity

        Den(H, M + <N>) = sum_i q^((2-k+r) i) Pden(H, <N/p^2i>) Den(H(N,i), M)

    where H = H_k^eps and H(N,i) = <-N p^(-2i)> + H_(k-2)^eps.
    """
    p = M.p
    N = Fraction(N)
    n = valuation(N, p)
    r = M.rank
    q = Fraction(p)
    inputs = {"p": p, "k": k, "eps": eps, "M": _describe(M), "N": N}
    H = hyperbolic_lattice(k, eps, p)
    lhs = local_density(H, direct_sum(M, diagonal_lattice([N], p)), convention, budget=budget).value
    rhs = Fraction(0)
    for i in range(n // 2 + 1):
        pd = primitive_density(
            H, diagonal_lattice([N / q ** (2 * i)], p), convention, budget=budget
        ).value
        tw = local_density(
            twisted_hyperbolic(k, eps, N, i, p), M, convention, budget=budget
        ).value
        rhs += q ** ((2 - k + r) * i) * pd * tw
    return CaseResult.check("difference-formula", inputs, lhs, rhs)


def functional_equation_sign(L: QuadLattice, eps: int) -> int:
    """Predicted reflection sign from the lattice invariants (odd p)."""
    p = L.p
    if p == 2:
        raise ValueError("sign formula requires odd p")
    n = L.rank
    u = Fraction(1) if eps == 1 else Fraction(smallest_nonresidue(p))
    inv = invariants(L)
    arg = -((-1) ** ((n + 1) * n // 2)) * u
    return hilbert_symbol(space_det(L), arg, p) * inv.hasse


def check_functional_equation(
    L: QuadLattice,
    eps: int = 1,
    convention: str = None,
    budget: Budget | None = None,
) -> list[CaseResult]:
    """Reflection identities of the interpolated density polynomials.

    Odd p: Den(X) = w X^val Den(1/X) with the invariant-predicted sign w,
    and the flat variant Den_f(X) = (q^(1/2) X)^(2 floor(val/2)) Den_f(1/(qX)).
    p = 2 (rank-2 diagonal <N, t> only): the flat variant with the
    exponent nu_2(c) from 4Nt = c^2 d.
    """
    from swb.analytic import fundamental_disc_split

    p = L.p
    q = Fraction(p)
    out = []
    inputs = {"p": p, "L": tuple(L.diagonal_values()) if L.is_diagonal() else "gram", "eps": eps}
    if p != 2:
        P = interpolate_density_polynomial(L, "den", eps, convention=convention, budget=budget)
        w = functional_equation_sign(L, eps)
        e = L.val()
        ok, read_sign = _check_reflection(P.poly, e, w, q, flat=False)
        out.append(
            CaseResult.of(
                "functional-equation",
                inputs | {"val": e, "w": w},
                ok,
                lhs=str(P.poly),
                rhs=f"sign {read_sign}",
                note="Den reflection",
            )
        )
        ef = e // 2
        Pf = interpolate_density_polynomial(L, "flat", eps, convention=convention, budget=budget)
        okf, _ = _check_reflection(Pf.poly, 2 * ef, 1, q, flat=True)
        out.append(
            CaseResult.of(
                "functional-equation-flat",
                inputs | {"exponent": 2 * ef},
                okf,
                lhs=str(Pf.poly),
                rhs="",
                note="flat reflection",
            )
        )
        return out
    # p = 2: flat polynomial of <N, t>
    diag = L.diagonal_values()
    if len(diag) != 2:
        raise ValueError("p=2 functional equation supports rank-2 diagonal lattices")
    Nv, tv = diag
    split = fundamental_disc_split(int(tv), int(Nv))
    e2 = valuation(split.c, 2)
    Pf = interpolate_density_polynomial(L, "flat", 1, convention=convention, budget=budget)
    okf, _ = _check_reflection(Pf.poly, 2 * e2, 1, q, flat=True)
    out.append(
        CaseResult.of(
            "functional-equation-flat",
            inputs | {"exponent": 2 * e2, "d": split.d, "c": split.c},
            okf,
            lhs=str(Pf.poly),
            rhs="",
            note="dyadic flat reflection",
        )
    )
    return out


def _check_reflection(P: Poly, e: int, w: int, q: Fraction, flat: bool):
    """Coefficient test of the two reflection shapes (e even when flat).

    flat=False:  P(X) = w X^e P(1/X)            <=>  c_i = w c_(e-i)
    flat=True:   P(X) = (q^(1/2) X)^e P(1/(qX)) <=>  c_i = q^(i - e/2) c_(e-i)

    Returns (ok, sign read off the polynomial when not flat, else None).
    """
    if P.is_zero():
        return True, None
    if P.degree() > e:
        return False, None
    c = list(P.c) + [Fraction(0)] * (e + 1 - len(P.c))
    ok = True
    for i in range(e + 1):
        if flat:
            expect = q ** (e // 2 - (e - i)) * c[e - i]
        else:
            expect = w * c[e - i]
        if c[i] != expect:
            ok = False
            break
    read = None
    if not flat:
        for i in range(e + 1):
            if c[e - i] != 0:
                read = c[i] / c[e - i]
                break
    return ok, read


def check_stabilization_target(
    M: QuadLattice,
    L: QuadLattice,
    a,
    m_max: int = 12,
    convention: str = None,
    budget: Budget | None = None,
) -> CaseResult:
    """Find m with Den(<a p^m> + M, L) = Den(M, L), confirmed at m and m+1."""
    p = M.p
    a = Fraction(a)
    base = local_density(M, L, convention, budget=budget).value
    inputs = {"p": p, "M": _describe(M), "L": _describe(L), "a": a}
    hits = []
    for m in range(m_max + 1):
        Mm = direct_sum(diagonal_lattice([a * Fraction(p) ** m], p), M)
        val = local_density(Mm, L, convention, budget=budget).value
        hits.append(val == base)
        if m >= 1 and hits[-1] and hits[-2]:
            return CaseResult.of(
                "stabilization-target", inputs | {"m": m - 1}, True, base, val
            )
    return CaseResult.of(
        "stabilization-target", inputs, False, base, "no stabilization", note=f"m_max={m_max}"
    )


def check_stabilization_source(
    k: int,
    eps: int,
    M: QuadLattice,
    a,
    m_max: int = 12,
    convention: str = None,
    budget: Budget | None = None,
) -> CaseResult:
    """Limit of Den(H_k^eps, M + <a p^m>) against its closed resolution.

    The sequence converges geometrically (its two-step recursion has
    ratio q^(2-k+r)) rather than becoming eventually constant, so the
    limit identity

        lim Den(H, M + <a p^m>) = Den(H_(k-2), M) Pden(H, <p>)/(1 - q^(2-k+r))

    is verified exactly through its two finite ingredients: the twisted
    factor Den(<-a p^m> + H_(k-2), M) is constant in m from some m0 on,
    equal to Den(H_(k-2), M), and the two-step recursion

        D_m - q^(2-k+r) D_(m-2) = Pden(H, <a p^m>) Den(<-a p^m> + H_(k-2), M)

    holds on the nose, with Pden(H, <a p^m>) = Pden(H, <p>).  Summing the
    geometric series then gives the limit.
    """
    p = M.p
    q = Fraction(p)
    a = Fraction(a)
    r = M.rank
    H = hyperbolic_lattice(k, eps, p)
    Hm2 = hyperbolic_lattice(k - 2, eps, p)
    pd_p = primitive_density(H, diagonal_lattice([p], p), convention, budget=budget).value
    base = local_density(Hm2, M, convention, budget=budget).value
    limit = base * pd_p / (1 - q ** (2 - k + r))
    inputs = {"p": p, "k": k, "eps": eps, "M": _describe(M), "a": a}

    def twisted(m):
        Tm = direct_sum(diagonal_lattice([-a * q**m], p), Hm2)
        return local_density(Tm, M, convention, budget=budget).value

    m0 = None
    for m in range(1, m_max):
        if twisted(m) == base and twisted(m + 1) == base:
            m0 = m
            break
    if m0 is None:
        return CaseResult.of(
            "stabilization-source", inputs, False, "no twisted-factor stabilization",
            limit, note=f"m_max={m_max}",
        )
    ok = True
    detail = ""
    for m in (m0 + 2, m0 + 3):
        Dm = local_density(
            H, direct_sum(M, diagonal_lattice([a * q**m], p)), convention, budget=budget
        ).value
        Dm2 = local_density(
            H, direct_sum(M, diagonal_lattice([a * q ** (m - 2)], p)), convention, budget=budget
        ).value
        pd_m = primitive_density(
            H, diagonal_lattice([a * q**m], p), convention, budget=budget
        ).value
        if pd_m != pd_p:
            ok = False
            detail = f"Pden depends on m at m={m}"
            break
        if Dm - q ** (2 - k + r) * Dm2 != pd_m * base:
            ok = False
            detail = f"recursion fails at m={m}"
            break
    return CaseResult.of(
        "stabilization-source",
        inputs | {"m0": m0},
        ok,
        lhs=limit if ok else detail,
        rhs=limit,
        note="limit resolved through the exact two-step recursion",
    )
