"""Exact counting of quadratic-congruence solutions over Z/p^d.

This is the brute-force side of the package: given an integral quadratic
lattice M (the target) and a diagonal source Gram, count tuples
(x_1, ..., x_n) in (M/p^d M)^n satisfying

    q(x_i) = q(l_i)   and   (x_i, x_j) = (l_i, l_j)   (i < j)

under one of two congruence conventions:

  * "A": all congruences mod p^d;
  * "B": variables mod 2p^d, q-values mod p^d, bilinear values mod 2p^d,
    with the raw count divided by p^(n*m) so the same normalization
    p^(d*dim) applies.  For odd p the two conventions coincide.

Everything is organized so that no enumeration ever touches more than a
few p^(2d)-sized boxes:

  * every histogram is a function of the square class of the residue
    (q(ux) = u^2 q(x), so it is invariant under unit squares): the
    valuation and the unit part modulo squares, which is the Legendre
    symbol at odd p and the unit mod 8 at p = 2, so at most 4e + 1
    values mod p^e;
  * rank-1 blocks <a> have closed-form class histograms, and convolving
    them is a scatter over pairs of classes, O(e^2) at every p instead of
    O(p^(2e)); hyperbolic planes never get a histogram;
  * every vector count on H^P + R, P = 0 included, is sum_v G[v] prof[v]:
    the count G on H^P depends only on the valuation of its residue and is
    closed in p^-P, and R enters through a profile that does not depend on
    P and is read off R's one class histogram mod p^e, so the samples of a
    density polynomial at k = 1, 2, ... share their work;
  * at p = 2 the pair tables I[delta][beta] over H^r are read once per
    2-adic class of the stratum's gamma (valuation and unit mod 8), not
    once per stratum: gamma = u^2 gamma0 turns into gamma0 by the plane
    isometry (y1, y2) -> (u^-1 y1, u y2), which rescales delta by u^-1.
    A table has one row per valuation of delta, since y -> u y rescales
    delta by u and beta by u^2, and a row enumerates 2^(D+j) host-plane
    pairs, only when it is first read.  The H^(r-1) histogram depends only
    on the valuation of the residue, so a cell of a row is a sum over k of
    the host-plane pairs folded mod 2^k, and the folds serve every r;
  * a target <w> + H^r reads the same tables: a first vector
    x = x0 e0 + 2^j h', h' primitive in H^r, with 2^j | x0 is carried by
    an Eichler transvection to 2^j (e1 + gamma' e2), gamma' = q(x / 2^j),
    so the second vector's e0-coordinate is free.  The x with v(x0) < j
    or h = 0 fall into classes of equal pair profiles, fixed by v(x0),
    the divisor of x / 2^v(x0), +-x0 / 2^v(x0) modulo it and
    q(x / 2^v(x0)): each class is read once, at one representative, by a
    scan of the 2^D values of the second vector's e0-coordinate, which
    serves every class with the same x0;
  * tuple counts are reduced to vector counts by stratifying the first
    vector, of the source value of least valuation, by content and square
    class of q-value, each stratum read at one orbit representative.  Over
    Z_p with p odd this is Witt's extension theorem for unimodular lattices;
    at p = 2 it is Eichler-transvection transitivity on unimodular vectors
    of hyperbolic sums, which the test suite checks against enumeration.

Counts are exact Python integers throughout.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from swb.lattice import PLANE, LatticeError, QuadLattice, jordan_form
from swb.padic import Frozen, legendre, rational_mod, smallest_nonresidue, valuation

DEFAULT_BUDGET = 2**32


class BudgetExceeded(Exception):
    def __init__(self, needed, limit, what=""):
        self.needed = needed
        self.limit = limit
        self.what = what
        super().__init__(
            f"enumeration budget exceeded: needs ~{needed} units, limit {limit}"
            + (f" ({what})" if what else "")
        )

    def __reduce__(self):
        return type(self), (self.needed, self.limit, self.what)


class EngineUnsupported(Exception):
    """Shape outside the fast engine; callers may fall back or skip."""


class Budget:
    def __init__(self, limit=DEFAULT_BUDGET):
        self.limit = limit
        self.used = 0

    def charge(self, amount, what=""):
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceeded(self.used, self.limit, what)


# ---------------------------------------------------------------------------
# residue-class helpers


def res_valuation(c: int, p: int, e: int) -> int:
    """Valuation of the residue c mod p^e, capped at e (v(0) = e)."""
    if e == 0 or c % p**e == 0:
        return e
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# histograms
#
# A histogram records, for each residue c mod p^e, the number of lattice
# vectors x in M/p^e M with q(x) = c.  Since q(ux) = u^2 q(x), it is
# constant on the orbits of the unit squares, the square classes: the zero
# residue, and for each valuation v < e the classes of the unit part
# c / p^v mod p^(e-v) modulo squares.  At odd p a unit's class is its
# Legendre symbol; at p = 2 the unit squares are the units = 1 mod 8, so
# the class is the unit mod 2^min(3, e-v) (Conway-Sloane, SPLAG ch. 15).
# Class 4v + s is valuation v and unit class s; class 4e is zero.  Slots
# that p or a low precision leaves unused are empty.  Only the helpers
# below know this layout.  Every histogram is built and convolved as a
# ClassHist; DenseHist, one value per residue, is only the tests' reference.


def _unit_digits(p, k):
    """Number of base-p digits of a unit mod p^k that fix its square class."""
    return min(3, k) if p == 2 else 1


def _class_index(p, e, c):
    """Square class of the residue c mod p^e."""
    c %= p**e
    if c == 0:
        return 4 * e
    if p == 2:
        v = (c & -c).bit_length() - 1
        return 4 * v + (c >> v) % 2 ** _unit_digits(2, e - v) // 2
    v = res_valuation(c, p, e)
    return 4 * v + (0 if legendre(c // p**v, p) == 1 else 1)


@functools.cache
def _classes(p, e):
    """(index, representative, size) of each non-empty square class mod p^e,
    as a tuple built once per (p, e)."""
    out = []
    for v in range(e):
        units = range(1, 2 ** _unit_digits(2, e - v), 2) if p == 2 else (1, smallest_nonresidue(p))
        size = p ** (e - v - 1) * (p - 1) // len(units)
        out += [(4 * v + s, u * p**v, size) for s, u in enumerate(units)]
    return (*out, (4 * e, 0, 1))


@functools.cache
def _base_pair_table(p, t):
    """N[s1][s2][c0] = #{units u mod p^t of class s1: c0 - u a unit of class s2}."""
    tab = [[[0] * p**t for _ in range(4)] for _ in range(4)]
    for u in range(p**t):
        s1 = _class_index(p, t, u)
        if s1 >= 4:
            continue
        for c0 in range(p**t):
            s2 = _class_index(p, t, c0 - u)
            if s2 < 4:
                tab[s1][s2][c0] += 1
    return tab


class ClassHist(Frozen):
    """Histogram of q as a function of the square class of the residue.

    vals[i] is the value on the residues of class i (see _classes);
    empty classes hold 0.  Immutable: _HIST_CACHE serves one object to
    every caller, so vals is a tuple.
    """

    __slots__ = ("p", "e", "vals")

    def __init__(self, p, e, vals):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "vals", tuple(vals))

    @classmethod
    def unit(cls, p, e):
        return cls(p, e, (0,) * (4 * e) + (1,))

    def eval(self, c):
        return self.vals[_class_index(self.p, self.e, c)]

    def total(self):
        return sum(self.vals[i] * size for i, _, size in _classes(self.p, self.e))

    def conv(self, other):
        """Histogram of the orthogonal sum: out[c] sums self[a] other[b] N over
        class pairs (a, b), N = #{z in a: c - z in b} for c in class c."""
        p, e = self.p, self.e
        if (other.p, other.e) != (p, e):
            raise ValueError(f"cannot convolve a histogram mod {other.p}^{other.e} into one mod {p}^{e}")
        classes = _classes(p, e)
        out = [0] * (4 * e + 1)
        for ia, ra, na in classes:
            fa = self.vals[ia]
            if not fa:
                continue
            v = ia // 4
            for ib, rb, nb in classes:
                fb = other.vals[ib]
                if not fb:
                    continue
                if ib // 4 != v or v == e:
                    # at odd p z + w lies in the class of the summand of lower
                    # valuation (zero counts as valuation e); at p = 2 a carry
                    # can reach the unit mod 8, so read the class of ra + rb
                    a_lower = ib // 4 > v
                    ic = _class_index(p, e, ra + rb) if p == 2 else (ia if a_lower else ib)
                    out[ic] += fa * fb * (nb if a_lower else na)
                    continue
                # equal valuations: with z = p^v u, the classes of u and of
                # c / p^v - u depend on u mod p^t, so count mod p^t and lift
                t = _unit_digits(p, e - v)
                row = _base_pair_table(p, t)[ia % 4][ib % 4]
                f = fa * fb * p ** (e - v - t)
                for ic, rc, _ in classes:
                    if ic >= 4 * v:
                        out[ic] += f * row[rc // p**v % p**t]
        return ClassHist(p, e, out)


class DenseHist:
    """Histogram as a list indexed by the residue, a[c] for c mod p^e.

    No count reads it: `conv` is the O(p^(2e)) convolution that the class
    scatter replaces, kept as the reference the tests check
    `ClassHist.conv` against.  It stays in this module because
    `perfbench/layers.py` times `DenseHist.conv` with the class scatter.
    """

    __slots__ = ("p", "e", "a")

    def __init__(self, p, e, a):
        self.p = p
        self.e = e
        self.a = a

    def conv(self, other):
        n = len(self.a)
        out = [0] * n
        for z, x in enumerate(self.a):
            if x:
                for w, y in enumerate(other.a):
                    out[(z + w) % n] += x * y
        return DenseHist(self.p, self.e, out)


def _rank1_hist(p, e, a_res):
    """Histogram of q(x) = a x^2 over Z/p^e, a given as residue mod p^e.

    With a = p^alpha a' and x = p^w y, y a unit, a x^2 = c != 0 exactly
    when v(c) = alpha + 2w and y^2 = c'/a' mod p^k, c' the unit part of c
    and k = e - v(c).  That has 0 or phi(p^k) / #squares
    roots y mod p^k, each lifting to p^(v(c) - w) values of x.  The zero
    residue takes the x of valuation >= ceil((e - alpha) / 2).
    """
    alpha = res_valuation(a_res, p, e)
    vals = [0] * (4 * e) + [p ** (e - (e - alpha + 1) // 2)]
    for i, rep, _ in _classes(p, e)[:-1]:
        v = i // 4
        w, odd = divmod(v - alpha, 2)
        if w < 0 or odd:
            continue
        k = e - v
        if _class_index(p, k, rep // p**v * pow(a_res // p**alpha, -1, p**k)) == 0:
            roots = (p - 1) * p ** (k - 1) // _classes(p, k)[0][2]
            vals[i] = roots * p ** (v - w)
    return ClassHist(p, e, vals)


# ---------------------------------------------------------------------------
# target specifications and cached histograms
#
# A target is (planes, diags): an orthogonal sum of `planes` hyperbolic
# planes and rank-1 pieces <a>.  diags entries are Fractions with
# non-negative valuation.  Only the diagonal part has a class histogram.

_HIST_CACHE: dict = {}


def target_key(p, e, diags):
    return (p, e, tuple(sorted(rational_mod(a, p, e) for a in diags)))


def _charge_hist(budget, e, blocks):
    """The "hist conv" charge of a histogram of `blocks` blocks mod p^e."""
    if budget is not None and e:
        budget.charge(4 * e * e * blocks, "hist conv")


def target_hist(p, e, diags):
    """Class histogram of q on the sum of <a>, a in diags, mod p^e, cached
    in _HIST_CACHE."""
    key = target_key(p, e, diags)
    h = _HIST_CACHE.get(key)
    if h is None:
        if e == 0 or not diags:
            h = ClassHist.unit(p, e)
        else:
            h = _rank1_hist(p, e, rational_mod(diags[-1], p, e))
            if len(diags) > 1:
                h = target_hist(p, e, diags[:-1]).conv(h)
        _HIST_CACHE[key] = h
    return h


_PROFILE_CACHE: dict = {}


@functools.cache
def _planes_counts(p, e, P):
    """(G[0], ..., G[e]): G[v] = #{x in H^P/p^e: q(x) = c} for c of valuation
    v, v = e for c = 0.

    Write x = (a, b) with a, b in (Z/p^e)^P, so q(x) = a.b.  An a of content
    j < e makes b -> a.b a map onto p^j Z/p^e with fibres of p^(eP - e + j)
    elements, and there are p^((e-j)P) - p^((e-j-1)P) such a; a = 0 adds
    p^(eP) to G[e].  So G[v] = p^((2P-1)e) [(1 - X) sum_(i <= min(v, e-1))
    (pX)^i + [v = e] (pX)^e] with X = p^-P, as integers below.  H^0 = 0
    has the unit histogram.
    """
    if not P:
        return (0,) * e + (1,)
    out, acc = [], 0
    for j in range(e):
        acc += (p**P - 1) * p ** ((2 * P - 1) * e - P - j * (P - 1))
        out.append(acc)
    return tuple(out) + (acc + p ** (P * e),)


def _rest_profile(p, e, diags, c):
    """(prof[0], ..., prof[e]): prof[v] = #{z in R/p^e: v(c - q(z)) = v},
    R the sum of <a>, a in diags, and v = e for c = q(z) mod p^e.

    prof[v] = at_least[v] - at_least[v + 1] with at_least[v] = #{z mod
    p^e: q(z) = c mod p^v} (at_least[e + 1] = 0), and every at_least[v]
    is read off the one class histogram h of R mod p^e.  Let w = v(c).
    For v <= w, q(z) = c mod p^v says v(q(z)) >= v: h times the class
    sizes, summed over the classes of valuation >= v.  For v > w it says
    v(q(z)) = w with unit part = c / p^w mod p^(v-w).  A class of
    valuation w fixes its units mod p^t, t = _unit_digits(p, e - w): if
    v - w >= t only c's class counts, with p^(e-v) residues; otherwise
    (p = 2 only) every class whose units agree with c's mod 2^(v-w)
    counts with all its residues.  With no R, h is the unit histogram and
    the profile the indicator of w.  A profile depends on the square class of c only, so
    it is cached per (p, e, residues of diags mod p^e, class of c).
    """
    ic = _class_index(p, e, c)
    key = target_key(p, e, diags) + (ic,)
    prof = _PROFILE_CACHE.get(key)
    if prof is None:
        w = ic // 4
        vals = target_hist(p, e, diags).vals
        classes = _classes(p, e)
        at_least = [0] * (e + 2)
        for i, _, size in classes:
            at_least[i // 4] += vals[i] * size
        for v in range(e - 1, -1, -1):
            at_least[v] += at_least[v + 1]
        t = _unit_digits(p, e - w)
        cu = c % p**e // p**w
        for v in range(w + 1, e + 1):
            if v - w >= t:
                at_least[v] = p ** (e - v) * vals[ic]
            else:
                at_least[v] = sum(vals[i] * size for i, rep, size in classes
                                  if i // 4 == w and (rep // p**w - cu) % p ** (v - w) == 0)
        prof = tuple(at_least[v] - at_least[v + 1] for v in range(e + 1))
        _PROFILE_CACHE[key] = prof
    return prof


def vector_count(p, planes, diags, e_var, e_q, c, budget=None):
    """#{x in M/p^e_var: q(x) = c mod p^e_q}, with e_var >= e_q.

    x = (y, z) with y in H^P and z in R, the sum of the <a>, and the count
    is sum_v G[v] prof[v] over the valuation v of c - q(z) (see
    _planes_counts and _rest_profile); with P = 0, G is the indicator of
    v = e_q and the sum is R's histogram value.  "hist conv" is charged
    4 e_q^2 per block, planes included.
    """
    if e_var < e_q:
        raise ValueError("variable precision below congruence precision")
    m = 2 * planes + len(diags)
    _charge_hist(budget, e_q, planes + len(diags))
    G = _planes_counts(p, e_q, planes)
    n = sum(g * f for g, f in zip(G, _rest_profile(p, e_q, diags, c)))
    return p ** (m * (e_var - e_q)) * n


def primitive_vector_count(p, planes, diags, e_var, e_q, c, budget=None):
    """Count of x not in pM with q(x) = c mod p^e_q, x over M/p^e_var."""
    total = vector_count(p, planes, diags, e_var, e_q, c, budget)
    if e_var == 0:
        return 0
    # x = p x', x' over M/p^(e_var - 1); q(x) = p^2 q(x')
    if c % p ** min(2, e_q):
        return total
    return total - vector_count(p, planes, diags, e_var - 1, max(e_q - 2, 0), c // p**2, budget)


# ---------------------------------------------------------------------------
# strata of the first vector
#
# Vectors x mod p^D split by content j (x = p^j x' with x' primitive mod
# p^(D-j)) and by gamma = q(x') mod p^(D-j).  q(x) = c mod p^dq pins gamma
# modulo p^t, t = max(dq - 2j, 0): j has strata iff p^(dq-t) | c, and
# they are gamma = base + p^t u, u mod p^(D-j-t).


def _progressions(c, p, D, dq):
    for j in range(D):
        t = max(dq - 2 * j, 0)
        if c % p ** (dq - t) == 0:
            yield j, c // p ** (dq - t) % p**t, t


def strata_list(c, p, D, dq):
    return [(j, base + p**t * u) for j, base, t in _progressions(c, p, D, dq)
            for u in range(p ** (D - j - t))]


def strata_classes(c, p, D):
    """(j, gamma, n) per (content, square class) of the strata at odd p, dq = D:
    base != 0 has valuation < t and fixes the class of all n strata; with
    base = 0 the classes are those of u mod p^(D-j-t), scaled by p^t."""
    for j, base, t in _progressions(c, p, D, D):
        if base:
            yield j, base, p ** (D - j - t)
        else:
            yield from ((j, p**t * g, n) for _, g, n in _classes(p, D - j - t))


# ---------------------------------------------------------------------------
# odd p: pair and triple counts via orbit reduction


@functools.cache
def _jordan_values_2x2(p, q1, bil, q2):
    """Jordan-split the rank-2 quadratic block [q1, bil; q2] over Z_p (p odd),
    as a tuple cached per argument: every sample of a density polynomial
    splits the same blocks."""
    return jordan_form(QuadLattice(p, [[q1, bil], [bil, q2]]))


def _constrained_plane_host(p, planes, diags, j, gamma_lift, D):
    """Solution module of (p^j (e1 + gamma e2), y) = 0 on planes+diags.

    Returns (planes', diags', divisor_exponent): the lattice M'' whose
    precision-D histogram, divided by p^divisor, counts constrained
    vectors y mod p^D.
    """
    if planes < 1:
        raise EngineUnsupported("no hyperbolic plane to host the representative")
    if j == 0:
        return planes - 1, tuple(diags) + (Fraction(-gamma_lift),), 0
    vals = _jordan_values_2x2(p, -gamma_lift, Fraction(p) ** (D - j), 0)
    return planes - 1, tuple(diags) + vals, D - j


def _find_rep_dense(p, diags, gamma_lift, e, budget):
    """Primitive rep with q = gamma on a unit diagonal lattice (odd p).

    Searches solutions of sum a_i x_i^2 = gamma mod p with a unit
    coordinate and Hensel-lifts that coordinate to precision e.  Returns
    the integer coordinate vector, or None when no primitive solution
    exists mod p (in which case the stratum weight vanishes).
    """
    t = len(diags)
    a = [rational_mod(x, p, e) for x in diags]
    g = gamma_lift % p**e
    sol = None
    budget.charge(p**t, "dense representative search")
    for mask in range(1, p**t):
        coords = []
        mm = mask
        for _ in range(t):
            coords.append(mm % p)
            mm //= p
        if all(c == 0 for c in coords):
            continue
        if sum(ai * ci * ci for ai, ci in zip(a, coords)) % p == g % p:
            sol = coords
            break
    if sol is None:
        return None
    istar = next(i for i, c in enumerate(sol) if c % p != 0)
    # Newton iteration on coordinate istar
    m = p**e
    rest = sum(a[i] * sol[i] * sol[i] for i in range(t) if i != istar) % m
    w = sol[istar]
    f = (a[istar] * w * w + rest - g) % m
    while f != 0:
        fp = 2 * a[istar] * w % m
        w = (w - f * pow(fp, -1, m)) % m
        f = (a[istar] * w * w + rest - g) % m
    rep = list(sol)
    rep[istar] = w
    return rep


def _constrained_dense_host(p, planes, diags, rep, j, D):
    """Solution module of (p^j rep, y) = 0 with rep on the diag coords."""
    t = len(diags)
    lam = [2 * Fraction(diags[i]) * rep[i] for i in range(t)]
    istar = max(range(t), key=lambda i: (valuation(lam[i], p) == 0, -i))
    if lam[istar] == 0 or valuation(lam[istar], p) != 0:
        raise EngineUnsupported("representative has no unit gradient coordinate")
    mu = [lam[i] / lam[istar] for i in range(t)]
    astar = Fraction(diags[istar])
    gens = []
    for i in range(t):
        if i == istar:
            continue
        gens.append((i, -mu[i]))  # e_i - mu_i e_istar
    rank = len(gens) + 1
    gram = [[Fraction(0)] * rank for _ in range(rank)]
    for r, (i, ci) in enumerate(gens):
        gram[r][r] = Fraction(diags[i]) + ci * ci * astar
        for s in range(r + 1, len(gens)):
            k, ck = gens[s]
            gram[r][s] = gram[s][r] = 2 * ci * ck * astar
    # slack generator p^(D-j) e_istar
    slack = Fraction(p) ** (D - j)
    for r, (i, ci) in enumerate(gens):
        gram[r][-1] = gram[-1][r] = 2 * ci * slack * astar
    gram[-1][-1] = slack * slack * astar
    return planes, jordan_form(QuadLattice(p, gram)), D - j


def _pair_count_odd(p, planes, diags, c1, c2, b, D, budget):
    """#{(x,y) in (M/p^D)^2: q(x)=c1, q(y)=c2, (x,y)=b mod p^D}, odd p.

    With b = 0 the count is symmetric, so x takes the value of least
    valuation, the smaller residue on a tie.  x -> u x maps the stratum
    (j, gamma) onto (j, u^2 gamma), keeping its weight W and the y with
    q(y) = c2, (x, y) = 0: the n strata of one (j, square class) share a host."""
    m = 2 * planes + len(diags)
    if m == 0:
        return 1 if (c1 == 0 and c2 == 0 and b == 0) else 0
    if m == 1:
        return _pair_count_rank1(p, diags[0], c1, c2, b, D, D, budget)
    if b % p**D != 0:
        raise EngineUnsupported("nonzero bilinear source values")
    c1, c2 = sorted((c1 % p**D, c2 % p**D), key=lambda c: (res_valuation(c, p, D), c))
    if c1 % p == 0 and not all(valuation(a, p) == 0 for a in diags):
        raise EngineUnsupported("pair count on a non-self-dual target needs a unit q-value")
    total = 0
    for j, gamma, n in strata_classes(c1, p, D):
        W = primitive_vector_count(p, planes, diags, D - j, D - j, gamma, budget)
        if W == 0:
            continue
        budget.charge(1, "pair stratum")
        if planes >= 1:
            rp, rd, divisor = _constrained_plane_host(p, planes, diags, j, gamma, D)
        else:
            rep = _find_rep_dense(p, diags, gamma, D - j, budget)
            if rep is None:
                raise AssertionError("positive stratum weight with no representative")
            rp, rd, divisor = _constrained_dense_host(p, planes, diags, rep, j, D)
        inner = vector_count(p, rp, rd, D, D, c2, budget)
        q, r = divmod(inner, p**divisor)
        if r:
            raise AssertionError("constrained count not divisible by coset size")
        total += n * W * q
    if c1 == 0:
        total += vector_count(p, planes, diags, D, D, c2, budget)
    return total


def _pair_count_rank1(p, a, c1, c2, b, D, dq, budget):
    m = p**D
    mq = p**dq
    budget.charge(p ** (2 * D), "rank-1 pair enumeration")
    ar = rational_mod(a, p, D)
    xs = [x for x in range(m) if ar * x * x % mq == c1 % mq]
    ys = [y for y in range(m) if ar * y * y % mq == c2 % mq]
    bb = b % m
    return sum(1 for x in xs for y in ys if 2 * ar * x * y % m == bb)


def _triple_count_odd(p, planes, diags, cs, D, budget):
    c1, c2, c3 = sorted((c % p**D for c in cs), key=lambda c: (res_valuation(c, p, D), c))
    if c1 % p == 0:
        raise EngineUnsupported("triple count needs a unit q-value in the source")
    if planes < 1:
        raise EngineUnsupported("triple count needs a hyperbolic plane")
    if not all(valuation(a, p) == 0 for a in diags):
        raise EngineUnsupported("triple count needs a self-dual target")
    W = vector_count(p, planes, diags, D, D, c1, budget)
    if W == 0:
        return 0
    rp, rd, _ = _constrained_plane_host(p, planes, diags, 0, c1, D)
    return W * _pair_count_odd(p, rp, rd, c2, c3, 0, D, budget)


# ---------------------------------------------------------------------------
# p = 2: pair and triple counts
#
# Pure hyperbolic sums have rigorous orbit theory (Eichler transvections
# act transitively on primitive = unimodular vectors of given q-value), so
# a pair count against H^r is reduced to tables
# I[delta][beta] = #{y: q(y)=beta, (rep, y)=delta} for the representative
# rep = 2^j (e1 + gamma e2) of each stratum.  Two unit rescalings keep the
# tables small:
#   * y -> u y is a bijection of H^r/2^D that maps (q(y), (rep, y)) to
#     (u^2 q(y), u (rep, y)), so I[u 2^(j+k)][beta] = I[2^(j+k)][u^-2 beta]:
#     a table has one row per valuation of delta, k = 0, ..., D - j
#     (k = D - j is delta = 0), and rows of delta of valuation below j
#     are zero;
#   * one table serves a whole 2-adic class of gamma mod 2^(D-j): if
#     gamma = u^2 gamma0 for a unit u, the isometry (y1, y2) -> (u^-1 y1,
#     u y2) of the first plane keeps q and maps u 2^j (e1 + gamma0 e2) to
#     rep, so I_gamma[delta] = I_gamma0[u^-1 delta].
# Write y = y1 e1 + y2 e2 + y' with y' in H^(r-1).  Row k counts the
# host-plane pairs with y2 + gamma y1 = 2^k mod 2^(D-j), 2^(D+j) of them,
# each with the y' of q(y') = beta - y1 y2.  That count of y' depends only
# on the valuation of the residue, so it is a_0 + ... + a_v(c) for a step
# vector a, and I[2^(j+k)][beta] = sum_i a_i F_i[beta mod 2^i], where
# F_i[t] counts the row's pairs with y1 y2 = t mod 2^i.  The folds
# F_0, ..., F_dq do not involve r: `_pair_table_2` enumerates them once
# per (D, dq, j, gamma, k), when the row is first read.  A pure-H query
# reads one cell per stratum, dq + 1 terms; the dense fold, which reads
# many cells of a row, convolves each row it reaches with H^(r-1) once per
# (r, row), and each plan keeps the rows of the valuations it has read.
# A target <w> + H^r splits the first vector as x = x0 e0 + 2^j h', h'
# primitive in H^r.  When 2^j | x0, O(H^r) moves h' to e1 + gamma e2 and
# the Eichler transvection E(e2, t e0), t = -x0 / 2^j, with
# E(u, z)(m) = m + (m, u) z - (m, z) u - q(z) (m, u) u, sends x to
# 2^j (e1 + gamma' e2), gamma' = q(x / 2^j) mod 2^(D-j).  Then (x, y) does
# not involve y0, so these x read the tables once per (stratum of c1,
# value of c2 - w y0^2).  The other x, with v(x0) = a < j (t is not
# integral) or h = 0 (j = D), are x = 2^a z, z = u e0 + 2 h'' with u a
# unit.  (z, M) = 2^(1+i) Z_2 with i = min(j - a - 1, v(w)), so x mod 2^D
# fixes q(z) mod 2^(D-a+1+i), and the class of z / 2^(1+i) in M^#/M is
# that of u / 2^(1+i) e0, +-u mod 2^(1+i) up to the isometry -1 of <w>.
# By Eichler's criterion the profile #{y: q(y) = c2, (x, y) = b} of x is
# then a function of the key (a, i, +-u mod 2^(1+i), Q = q(z) mod
# 2^(D-a+1+i)), which the tests check against literal enumeration; the
# +-u part matters only when 2 <= i < v(w).  So each class is read once,
# at 2^a (u0 e0 + 2^(1+i) (e1 + g e2)) with 4^(1+i) g = Q - w u0^2 (with no
# H, at 2^a u e0 with w u^2 = Q), and weighted by the number of x it holds
# (`_residual_classes_2`).  The classes whose representatives share x0
# share one scan of the 2^D values of y0 over the rows of their H-parts.
# With a unit w and a unit c1 = w mod 4 there are 2 classes under A and 4
# under B, all with x0 = 1.

_ITAB_CACHE: dict = {}
_ROW_CACHE: dict = {}


def _delta_split_2(delta, D, dq):
    """(v, e^-2 mod 2^dq) for delta = 2^v e mod 2^D, e a unit; (D, 1) for
    delta = 0."""
    delta %= 2**D
    if not delta:
        return D, 1
    v = (delta & -delta).bit_length() - 1
    return v, pow(delta >> v, -2, 2**dq)


@functools.cache
def _delta_classes_2(D, dq):
    """_delta_split_2 of every delta mod 2^D, for `_plan_count_2`."""
    return tuple(_delta_split_2(delta, D, dq) for delta in range(2**D))


def _class_rep_2(gamma, k):
    """(gamma0, u^-1 mod 2^k) with gamma = u^2 gamma0 mod 2^k, u a unit and
    gamma0 = 2^v (g mod 2^min(3, k - v)) the representative of the 2-adic
    class of gamma = 2^v g."""
    gamma %= 2**k
    gamma0 = 0
    if gamma:
        v = (gamma & -gamma).bit_length() - 1
        gamma0 = (gamma >> v) % 2 ** min(3, k - v) << v
    return gamma0, _square_ratio_inv_2(gamma, gamma0, k)


def _square_ratio_inv_2(gamma, gamma0, k):
    """u^-1 mod 2^k for a unit u with gamma = u^2 gamma0 mod 2^k.

    With gamma = 2^v g and gamma0 = 2^v g0, u^2 = g / g0 mod 2^(k - v), and
    u is lifted bit by bit from u = 1: if u^2 = a mod 2^i with i >= 3, then
    u or u + 2^(i-1) is a root mod 2^(i+1).  Raises AssertionError if
    gamma0 is not in the class of gamma.
    """
    m = 2**k
    gamma, gamma0 = gamma % m, gamma0 % m
    u = 1
    if gamma and gamma0:
        v = (gamma & -gamma).bit_length() - 1
        n = k - v
        if gamma0 >> v & 1:
            a = (gamma >> v) * pow(gamma0 >> v, -1, 2**n) % 2**n
            for i in range(3, n):
                if (u * u - a) % 2 ** (i + 1):
                    u += 2 ** (i - 1)
    if (u * u * gamma0 - gamma) % m:
        raise AssertionError(f"{gamma0} is not in the 2-adic class of {gamma} mod 2^{k}")
    return pow(u, -1, m)


def _rest_steps_2(r, D, dq, budget):
    """(a_0, ..., a_dq) with #{y in H^(r-1)/2^D: q(y) = c mod 2^dq} equal to
    a_0 + ... + a_v for v = v(c), the differences of the closed-form counts
    of H^(r-1) mod 2^dq (`_planes_counts`).

    Every call charges what the histogram of H^(r-1) mod 2^dq would cost,
    and one "dense histogram" unit per class mod 2^dq, so a query's charge
    does not depend on what ran before it.
    """
    _charge_hist(budget, dq, r - 1)
    budget.charge(len(_classes(2, dq)), "dense histogram")
    g = _planes_counts(2, dq, r - 1)
    scale = 2 ** ((2 * r - 2) * (D - dq))
    return tuple(scale * (g[i] - (g[i - 1] if i else 0)) for i in range(dq + 1))


def _pair_table_2(D, dq, j, gamma, k, budget):
    """Host row k of the representative 2^j (e1 + gamma e2): the folds
    (F_0, ..., F_dq), F_i[t] = #{(y1, y2) mod 2^D: y2 + gamma y1 = 2^k mod
    2^(D-j), y1 y2 = t mod 2^i}.

    It does not involve the rank of the host, so one row serves every H^r;
    a tuple of tuples, cached.  A miss charges its 2^(D+j) host-plane pairs
    and the 2^dq - 1 cells of its folds before it enumerates them.
    """
    key = (D, dq, j, gamma, k)
    folds = _ITAB_CACHE.get(key)
    if folds is None:
        m, mq = 2**D, 2**dq
        e = D - j
        budget.charge(2 ** (D + j) + mq - 1, "p=2 pair table")
        wmask, qmask = 2**e - 1, mq - 1
        row = [0] * mq
        for y1 in range(m):
            for y2 in range((2**k - gamma * y1) & wmask, m, 2**e):
                row[y1 * y2 & qmask] += 1
        out = [tuple(row)]
        while len(row) > 1:
            half = len(row) // 2
            row = [x + y for x, y in zip(row[:half], row[half:])]
            out.append(tuple(row))
        folds = _ITAB_CACHE[key] = tuple(reversed(out))
    return folds


@functools.cache
def _primitive_planes_counts(P, e):
    """(prim[0], ..., prim[e]): prim[v] = #{h primitive in H^P/2^e: q(h) =
    c} for c of valuation v, v = e for c = 0, like `_planes_counts`."""
    return tuple(primitive_vector_count(2, P, (), e, e, 2**v) for v in range(e + 1))


def _pair_plan_2(r, alpha, D, dq, budget, w=None):
    """The strata of x in H^r/2^D with q(x) = alpha mod 2^dq, by the
    valuation v of the pairing delta (v = D for delta = 0).

    A stratum (j, gamma) with gamma = u^2 gamma0 holds W primitive vectors
    and reads row v - j of the table of gamma0 at beta e^-2 s, where
    delta = 2^v e and s = u^2 mod 2^dq.  The plan is (steps, strata, rows):
    the step vector of H^(r-1) (`_rest_steps_2`); strata[v], the (W, j,
    gamma0, s) read at v, strata with equal (j, gamma0, s) merged; and
    rows, which `_plan_rows_2` fills with the rows of each v it reads.
    x = 0 is no stratum; `_plan_cell_2` and `_plan_count_2` add it.  No
    host row is enumerated here.

    With w, a stratum stands instead for the x = 2^j (z e0 + h') of
    <w> + H^r with h' primitive and q(z e0 + h') = gamma, which an Eichler
    transvection carries to 2^j (e1 + gamma e2), and W counts the pairs
    (z, h') mod 2^(D-j): sum_v prim[v] prof[v], prof the profile of <w> at
    gamma (`_rest_profile`), charged as the histogram of <w> + H^r.
    """
    weights: dict[tuple[int, int, int], int] = {}
    for j, gamma in strata_list(alpha, 2, D, dq) if r else ():
        e = D - j
        if w is None:
            W = primitive_vector_count(2, r, (), e, e, gamma, budget)
        else:
            _charge_hist(budget, e, r + 1)
            prof = _rest_profile(2, e, (w,), gamma)
            W = sum(g * f for g, f in zip(_primitive_planes_counts(r, e), prof))
        if W:
            gamma0, uinv = _class_rep_2(gamma, e)
            key = (j, gamma0, pow(uinv, -2, 2**dq))
            weights[key] = weights.get(key, 0) + W
    strata = [[] for _ in range(D + 1)]
    for (j, gamma0, s), W in weights.items():
        for v in range(j, D + 1):
            strata[v].append((W, j, gamma0, s))
    steps = _rest_steps_2(r, D, dq, budget) if weights else ()
    return steps, strata, {}


def _plan_cell_2(plan, r, alpha, beta, delta, D, dq, budget):
    """_hyperbolic_pair_count_2(r, alpha, beta, delta) read from the plan of
    alpha one cell at a time: each stratum adds W sum_i a_i F_i[beta e^-2 s
    mod 2^i] from its host row, charged dq + 1 "p=2 pair point" units."""
    steps, strata, _ = plan
    v, ie = _delta_split_2(delta, D, dq)
    budget.charge(len(strata[v]) * (dq + 1), "p=2 pair point")
    b = beta * ie
    total = 0
    for W, j, gamma0, s in strata[v]:
        folds = _pair_table_2(D, dq, j, gamma0, v - j, budget)
        t = b * s
        total += W * sum(a * f[t % len(f)] for a, f in zip(steps, folds))
    if v == D and alpha % 2**dq == 0:
        total += vector_count(2, r, (), D, dq, beta, budget)
    return total


def _plan_rows_2(plan, r, v, D, dq, budget):
    """(W, row, s) for each stratum of strata[v] of the plan, stored in
    rows[v] on the first read: row[beta] = I[2^v][beta] over H^r at every
    beta mod 2^dq.

    The row is the host row convolved with H^(r-1), sum_i a_i F_i[beta mod
    2^i], cached in _ROW_CACHE per (r, D, dq, j, gamma0, k), so every plan
    of the process shares it; a miss charges its 2^(dq+1) - 1 cells.
    """
    steps, strata, rows = plan
    out = []
    for W, j, gamma0, s in strata[v]:
        folds = _pair_table_2(D, dq, j, gamma0, v - j, budget)
        key = (r, D, dq, j, gamma0, v - j)
        row = _ROW_CACHE.get(key)
        if row is None:
            budget.charge(2 ** (dq + 1) - 1, "p=2 pair table")
            row = [steps[0] * folds[0][0]]
            for i in range(1, dq + 1):
                row = [o + steps[i] * f for o, f in zip(row + row, folds[i])]
            row = _ROW_CACHE[key] = tuple(row)
        out.append((W, row, s))
    rows[v] = out = tuple(out)
    return out


def _plan_count_2(plan, r, alpha, cells, D, dq, budget):
    """Sum of _hyperbolic_pair_count_2(r, alpha, beta, delta) over the
    cells (beta, delta), beta reduced mod 2^dq and delta mod 2^D, read from
    the convolved rows of the plan of alpha: with delta = 2^v e, e a unit,
    a stratum reads I_gamma0[u^-1 delta][beta] = I_gamma0[2^v][beta e^-2 u^2].
    x = 0 adds its H^r count at delta = 0 when alpha = 0 mod 2^dq, so a
    plan of chosen strata passes alpha = 1 to leave it out."""
    rows = plan[2]
    qmask = 2**dq - 1
    split = _delta_classes_2(D, dq)
    total = 0
    for beta, delta in cells:
        v, ie = split[delta]
        try:
            read = rows[v]
        except KeyError:
            read = _plan_rows_2(plan, r, v, D, dq, budget)
        b = beta * ie
        for W, row, s in read:
            total += W * row[b * s & qmask]
        if v == D and alpha & qmask == 0:
            total += vector_count(2, r, (), D, dq, beta, budget)
    return total


def _hyperbolic_pair_count_2(r, alpha, beta, delta, D, dq, budget):
    """#{(x,y) in (H^r/2^D)^2: q(x)=alpha, q(y)=beta mod 2^dq, (x,y)=delta mod 2^D},
    one cell of the plan of alpha."""
    plan = _pair_plan_2(r, alpha, D, dq, budget)
    return _plan_cell_2(plan, r, alpha, beta, delta, D, dq, budget)


def _residual_blocks_2(w, vw, c1, D, dq):
    """(a, i, u0, Qs) for each block of residual classes of <w> + H^r with
    q(x) = c1 mod 2^dq: Qs ranges over the Q mod 2^(D-a+1+i) with
    4^a Q = c1 mod 2^dq and Q = w u0^2 mod 2^(2+2i), u0 <= 2^i an odd
    representative of +-u0 mod 2^(1+i), and i <= min(D-a-1, v(w))."""
    for a in range(D):
        if c1 % 2 ** min(2 * a, dq):
            return
        t = dq - 2 * a
        for i in range(min(D - a - 1, vw) + 1):
            for u0 in range(1, 2**i + 1, 2):
                base, lo = w * u0 * u0, 2 + 2 * i
                if t > 0:
                    if (base - (c1 >> 2 * a)) % 2 ** min(lo, t):
                        continue
                    if t > lo:
                        base, lo = c1 >> 2 * a, t
                yield a, i, u0, range(base % 2**lo, 2 ** (D - a + 1 + i), 2**lo)


def _residual_classes_2(r, w, vw, c1, D, dq, budget):
    """(n, x0, j, g) for each residual class with q(x) = c1 mod 2^dq: n
    first vectors share the profile of x0 e0 + 2^j (e1 + g e2) (j = D: no
    H-part).

    A class (a, i, +-u0, Q) holds the x = 2^a (u e0 + 2^(1+i) h'''), u = +-u0
    mod 2^(1+i), h''' mod 2^k (k = D-a-1-i) primitive if i < v(w) and k > 0,
    with w u^2 + 4^(1+i) q(h''') = Q mod 2^E, E = D-a+1+i.  Over such u,
    w u^2 runs evenly over w u0^2 mod 2^c, c = min(v(w) + max(3, 2+i), E),
    so n is a count of h''' with q(h''') = g mod 2^(c-2-2i), g = (Q - w u0^2)
    / 4^(1+i), times the u per residue: one vector count per class.  The
    charge, one "p=2 dense fold" unit per Q tried, comes before any is.
    """
    blocks = list(_residual_blocks_2(w, vw, c1, D, dq))
    budget.charge(sum(len(Qs) for *_, Qs in blocks), "p=2 dense fold")
    out = []
    for a, i, u0, Qs in blocks:
        e, E = D - a, D - a + 1 + i
        k = e - 1 - i
        c = min(vw + max(3, 2 + i), E)
        per = 2 ** (e - 1 if i == 0 else e - i) >> (E - c)
        count = primitive_vector_count if i < vw and k > 0 else vector_count
        for Q in Qs:
            g = (Q - w * u0 * u0) >> (2 + 2 * i)
            n = per * count(2, r, (), k, c - 2 - 2 * i, g, budget)
            if not n:
                continue
            if r:
                out.append((n, 2**a * u0, a + 1 + i, g % 2**k))
            else:
                # no H-part to carry g: a unit u = u0 mod 2^(1+i) with
                # w u^2 = Q mod 2^E, which the class holds
                u = u0 * pow(_square_ratio_inv_2(Q, w * u0 * u0, E), -1, 2**E)
                out.append((n, 2**a * u, D, 0))
    return out


def _pair_count_2(planes, diags, c1, c2, b, D, dq, budget):
    if len(diags) == 0:
        return _hyperbolic_pair_count_2(planes, c1, c2, b, D, dq, budget)
    if len(diags) > 1:
        raise EngineUnsupported("p=2 pair counts support at most one rank-1 block")
    w = rational_mod(diags[0], 2, D) or 2**D
    vw = res_valuation(w, 2, D)
    m = 2**D
    mq = 2**dq
    # the scan of the 2^D values of y0, charged before it is made
    budget.charge(m, "p=2 dense fold")
    betas = [(c2 - w * y0 * y0) % mq for y0 in range(m)]
    total = 0
    if planes:
        # x = x0 e0 + 2^j h' with 2^j | x0 sits in the first plane after a
        # transvection, so (x, y) = b whatever y0 is: read each beta once,
        # times the number of y0 that reach it
        plan = _pair_plan_2(planes, c1, D, dq, budget, w)
        strata = plan[1]
        hits = [0] * mq
        for beta in betas:
            hits[beta] += 1
        reach = [(beta, n) for beta, n in enumerate(hits) if n]
        v, ie = _delta_split_2(b, D, dq)
        budget.charge(len(strata[v]) * len(reach), "p=2 dense fold")
        for W, row, s in _plan_rows_2(plan, planes, v, D, dq, budget):
            t = ie * s
            total += W * sum(n * row[beta * t % mq] for beta, n in reach)
    if c1 % mq == 0 and b % m == 0:  # x = 0
        total += vector_count(2, planes, diags, D, dq, c2, budget)
    # the residual x: one y0 scan per x0 of a class, whose (x, y) =
    # b - 2 w x0 y0 reads the rows of the H-parts 2^j (e1 + g e2) of its
    # classes; they all have (x, y) = b mod 2^min(j, v(2 w x0)), so a class
    # misses b by valuation or reads it in every cell
    by_x0, bare = {}, []
    for n, x0, j, g in _residual_classes_2(planes, w, vw, c1 % mq, D, dq, budget):
        if b % 2 ** min(j, res_valuation(2 * w * x0, 2, D)):
            continue
        if j < D:
            gamma0, uinv = _class_rep_2(g, D - j)
            by_x0.setdefault(x0, []).append((n, j, gamma0, pow(uinv, -2, mq)))
        else:
            bare.append((n, x0))
    budget.charge((len(by_x0) + len(bare)) * m, "p=2 dense fold")
    steps = _rest_steps_2(planes, D, dq, budget) if by_x0 else ()
    # alpha = 1 keeps x = 0 out of the plans; alpha = 0 reads the H^r count
    # at delta = 0 for a class with no H-part
    scans = [(1, x0, [[c for c in cls if c[1] <= v] for v in range(D + 1)], 1)
             for x0, cls in by_x0.items()]
    scans += [(n, x0, [[] for _ in range(D + 1)], 0) for n, x0 in bare]
    for n, x0, strata, alpha in scans:
        coup = 2 * w * x0
        cells = zip(betas, ((b - coup * y0) % m for y0 in range(m)))
        total += n * _plan_count_2((steps, strata, {}), planes, alpha, cells, D, dq, budget)
    return total


def _triple_count_2(planes, diags, cs, D, dq, budget):
    if diags:
        raise EngineUnsupported("p=2 triple counts need a hyperbolic-sum target")
    if all(c % 2 == 0 for c in cs):
        raise EngineUnsupported("triple count needs a unit q-value in the source")
    order = max(range(3), key=lambda i: cs[i] % 2 != 0)
    c1, (c2, c3) = cs[order], tuple(cs[i] for i in range(3) if i != order)
    if planes < 1:
        raise EngineUnsupported("triple count needs a hyperbolic plane")
    total = 0
    for gamma_top in range(c1 % 2**dq, 2**D, 2**dq):
        W = vector_count(2, planes, (), D, D, gamma_top, budget)
        if W == 0:
            continue
        total += W * _pair_count_2(planes - 1, (Fraction(-gamma_top),), c2, c3, 0, D, dq, budget)
    return total


# ---------------------------------------------------------------------------
# public entry points


def _engine_target(M: QuadLattice):
    """(planes, diags) for the counting engine, re-diagonalizing if needed."""
    if M.blocks is not None:
        planes = sum(1 for blk in M.blocks if blk == PLANE)
        diags = tuple(blk[1] for blk in M.blocks if blk != PLANE)
        return planes, diags
    if M.p == 2:
        raise EngineUnsupported("unstructured target at p=2")
    return 0, jordan_form(M)


def _engine_source(L: QuadLattice):
    if L.is_diagonal():
        # a diagonal Gram matrix is singular exactly when an entry is 0
        vals = L.diagonal_values()
        if 0 in vals:
            raise ValueError("degenerate source lattice")
        return vals
    if L.p == 2:
        if L.det_bilinear() == 0:
            raise ValueError("degenerate source lattice")
        raise EngineUnsupported("non-diagonal source at p=2")
    try:
        return jordan_form(L)
    except LatticeError:
        raise ValueError("degenerate source lattice") from None


def _conv_params(p, d, convention):
    if convention == "B" and p == 2:
        return d + 1, d
    if convention in ("A", "B"):
        return d, d
    raise ValueError(f"unknown convention {convention!r}")


def count_reps(
    M: QuadLattice,
    L: QuadLattice,
    d: int,
    primitive: bool = False,
    convention: str = "A",
    budget: Budget | None = None,
) -> int:
    """Number of Gram-preserving n-tuples in (M/p^d M)^n for the source L.

    With `primitive`, additionally require the coordinate matrix to have
    full rank mod p (source rank 1 only on the fast path).  Convention
    "B" counts with variables mod 2p^d, q-values mod p^d and bilinear
    congruences mod 2p^d; the raw count is always divisible by
    p^(nm - n(n-1)/2) (translating solutions by p^d w changes each
    bilinear value by p^d * linear(w)), and dividing by that power makes
    the usual p^(d dim) normalization apply.  At odd p, "B" equals "A".
    """
    if M.p != L.p:
        raise ValueError("count_reps needs matching primes")
    if d < 0:
        raise ValueError("d must be >= 0")
    p = M.p
    budget = budget or Budget()
    D, dq = _conv_params(p, d, convention)
    planes, diags = _engine_target(M)
    qs = _engine_source(L)
    n = len(qs)
    m = 2 * planes + len(diags)
    norm = p ** ((D - d) * (n * m - n * (n - 1) // 2))
    if d == 0:
        return 1
    if n == 0:
        return 1
    cs = [rational_mod(q, p, dq) for q in qs]
    if n == 1:
        if primitive:
            raw = primitive_vector_count(p, planes, diags, D, dq, cs[0], budget)
        else:
            raw = vector_count(p, planes, diags, D, dq, cs[0], budget)
        return _exact_div(raw, norm)
    if primitive:
        raise EngineUnsupported("primitive counts only on rank-1 sources")
    if n == 2:
        if p == 2:
            raw = _pair_count_2(planes, diags, cs[0], cs[1], 0, D, dq, budget)
        else:
            raw = _pair_count_odd(p, planes, diags, cs[0], cs[1], 0, D, budget)
        return _exact_div(raw, norm)
    if n == 3:
        if p == 2:
            raw = _triple_count_2(planes, diags, cs, D, dq, budget)
        else:
            raw = _triple_count_odd(p, planes, diags, cs, D, budget)
        return _exact_div(raw, norm)
    raise EngineUnsupported("source rank > 3 is out of scope")


def _exact_div(a, b):
    q, r = divmod(a, b)
    if r:
        raise AssertionError("count not divisible by convention normalization")
    return q
