"""Integral quadratic lattices over Z_p with exact rational Gram data.

The Gram record stores q(e_i) on the diagonal and the bilinear values
(e_i, e_j) = q(e_i + e_j) - q(e_i) - q(e_j) off the diagonal.  The derived
"moment matrix" in the bilinear sense has 2q(e_i) on the diagonal; its
determinant valuation is the `val` invariant used by the functional
equations and by interpolation-degree bounds.

Lattices built through the constructors carry a block structure (planes
q(x,y) = xy and rank-1 pieces <a>) that the counting engine consumes; a
lattice produced by an arbitrary change of basis loses it and is
re-diagonalized when needed (odd p only).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from swb.padic import (
    INFINITY,
    Frozen,
    hilbert_symbol,
    is_prime,
    quad_residue_symbol,
    smallest_nonresidue,
    valuation,
)

PLANE = ("plane",)


def _frac_matrix(rows):
    """The rows as a tuple of tuples of Fractions; entries that already are
    Fractions are kept, since Fraction(Fraction) is not free."""
    return tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in rows)


class LatticeError(ValueError):
    pass


class QuadLattice(Frozen):
    """Quadratic lattice over Z_p given by its exact Gram record.

    Immutable: `hyperbolic_lattice` serves one cached object to every
    caller, so the Gram record is a tuple of tuples.
    """

    __slots__ = ("p", "gram", "blocks")

    def __init__(self, p, gram, blocks=None):
        if not is_prime(p):
            raise LatticeError(f"not a prime: {p}")
        gram = _frac_matrix(gram)
        m = len(gram)
        for row in gram:
            if len(row) != m:
                raise LatticeError("gram must be square")
        for i in range(m):
            for j in range(i + 1, m):
                if gram[i][j] != gram[j][i]:
                    raise LatticeError("gram must be symmetric")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "blocks", tuple(blocks) if blocks is not None else None)

    @property
    def rank(self):
        return len(self.gram)

    def q_value(self, i):
        return self.gram[i][i]

    def bilinear_matrix(self):
        """The matrix of (e_i, e_j), i.e. 2q on the diagonal."""
        m = self.rank
        return [
            [2 * self.gram[i][j] if i == j else self.gram[i][j] for j in range(m)]
            for i in range(m)
        ]

    def is_integral(self):
        return all(
            valuation(x, self.p) >= 0
            for row in self.gram
            for x in row
            if x != 0
        )

    def det_bilinear(self):
        q = _diagonalize(self)
        return Fraction(0) if q is None else math.prod((2 * x for x in q), start=Fraction(1))

    def det_moment(self):
        """Determinant of the half-integral moment matrix (q on the diagonal)."""
        return self.det_bilinear() / 2**self.rank

    def val(self):
        """p-adic valuation of the bilinear Gram determinant."""
        d = self.det_bilinear()
        if d == 0:
            raise LatticeError("degenerate lattice has no val")
        return valuation(d, self.p)

    def is_diagonal(self):
        m = self.rank
        return all(
            self.gram[i][j] == 0 for i in range(m) for j in range(m) if i != j
        )

    def diagonal_values(self):
        if not self.is_diagonal():
            raise LatticeError("lattice is not diagonal")
        return tuple(self.gram[i][i] for i in range(self.rank))

    def __eq__(self, other):
        if not isinstance(other, QuadLattice):
            return NotImplemented
        return self.p == other.p and self.gram == other.gram

    def __repr__(self):
        if self.blocks is not None:
            parts = []
            for b in self.blocks:
                parts.append("H2" if b == PLANE else f"<{b[1]}>")
            return f"QuadLattice(p={self.p}, {' + '.join(parts) or 'rank0'})"
        return f"QuadLattice(p={self.p}, rank={self.rank})"


def diagonal_lattice(values, p) -> QuadLattice:
    values = [Fraction(v) for v in values]
    m = len(values)
    gram = [[values[i] if i == j else Fraction(0) for j in range(m)] for i in range(m)]
    return QuadLattice(p, gram, blocks=[("diag", v) for v in values])


def plane_lattice(p) -> QuadLattice:
    """The rank-2 lattice with q(x, y) = xy."""
    return QuadLattice(p, [[0, 1], [1, 0]], blocks=[PLANE])


def zero_lattice(p) -> QuadLattice:
    return QuadLattice(p, [], blocks=[])


def direct_sum(L: QuadLattice, M: QuadLattice) -> QuadLattice:
    if L.p != M.p:
        raise LatticeError("direct_sum needs matching primes")
    a, b = L.rank, M.rank
    gram = [[Fraction(0)] * (a + b) for _ in range(a + b)]
    for i in range(a):
        for j in range(a):
            gram[i][j] = L.gram[i][j]
    for i in range(b):
        for j in range(b):
            gram[a + i][a + j] = M.gram[i][j]
    blocks = None
    if L.blocks is not None and M.blocks is not None:
        blocks = L.blocks + M.blocks
    return QuadLattice(L.p, gram, blocks=blocks)


def _block_lattice(p, blocks) -> QuadLattice:
    """The orthogonal sum of `blocks` (PLANE or ("diag", a), a a Fraction),
    its Gram record filled in one pass instead of one direct_sum per block."""
    m = sum(2 if blk == PLANE else 1 for blk in blocks)
    zero, one = Fraction(0), Fraction(1)
    gram = [[zero] * m for _ in range(m)]
    i = 0
    for blk in blocks:
        if blk == PLANE:
            gram[i][i + 1] = gram[i + 1][i] = one
            i += 2
        else:
            gram[i][i] = blk[1]
            i += 1
    return QuadLattice(p, gram, blocks)


_HYPERBOLIC_CACHE: dict = {}


def hyperbolic_lattice(k: int, eps: int, p) -> QuadLattice:
    """Self-dual lattice of rank k and discriminant eps.

    For odd p every (k, eps) is realized as planes plus a small unimodular
    tail.  At p = 2 only even rank with eps = +1 is supported, as k/2
    copies of the plane q(x, y) = xy.
    """
    if eps not in (1, -1):
        raise LatticeError("eps must be +-1")
    if k < 0:
        raise LatticeError("rank must be >= 0")
    cached = _HYPERBOLIC_CACHE.get((k, eps, p))
    if cached is not None:
        return cached
    if k == 0 and eps != 1:
        raise LatticeError("rank 0 has discriminant +1")
    if p == 2 and (k % 2 or eps != 1):
        raise LatticeError("at p=2 only even rank with eps=+1 is supported")
    if k % 2 == 0:
        tail = [] if eps == 1 else [1, -smallest_nonresidue(p)]
    else:
        planes = (k - 1) // 2
        # moment determinant of a plane is -1/4, a square class of -1;
        # pick the unit tail to hit the requested discriminant
        tail = None
        for a in (1, smallest_nonresidue(p)):
            disc = (
                Fraction(-1) ** (k * (k - 1) // 2) * Fraction(-1) ** planes * a
            )
            if quad_residue_symbol(disc, p) == eps:
                tail = [a]
                break
        if tail is None:
            raise LatticeError("unreachable: no unit tail matches the discriminant")
    blocks = [PLANE] * ((k - len(tail)) // 2) + [("diag", Fraction(a)) for a in tail]
    out = _block_lattice(p, blocks)
    _HYPERBOLIC_CACHE[(k, eps, p)] = out
    return out


def delta_lattice(N, p) -> QuadLattice:
    """Rank-3 lattice of the level-N determinant form: q(a,b,c) = -N a^2 - bc.

    Stored in the equivalent split shape <-N> + plane (the change of basis
    c -> -c identifies q = -bc with q = bc).
    """
    N = Fraction(N)
    if N == 0:
        raise LatticeError("delta lattice needs N != 0")
    return direct_sum(diagonal_lattice([-N], p), plane_lattice(p))


def twisted_hyperbolic(k: int, eps: int, N, i: int, p) -> QuadLattice:
    """The twisted lattice <-N p^(-2i)> + H_{k-2}^eps."""
    N = Fraction(N)
    n = valuation(N, p)
    if n is INFINITY:
        raise LatticeError("twist needs N != 0")
    if i < 0 or 2 * i > n:
        raise LatticeError(f"twist index out of range: 2*{i} > v_p(N)={n}")
    if k < 2:
        raise LatticeError("rank must be >= 2")
    head = diagonal_lattice([-N / Fraction(p) ** (2 * i)], p)
    if k == 2:
        return head
    return direct_sum(head, hyperbolic_lattice(k - 2, eps, p))


# chi is None at p=2 (not computed)
LatticeInvariants = namedtuple("LatticeInvariants", "rank chi hasse val")


def _diagonalize(L: QuadLattice) -> tuple[Fraction, ...] | None:
    """The q-values of an orthogonal basis of L in pivot order, or None when
    L is degenerate (the active block is zero before every value is found).

    Symmetric elimination on the bilinear matrix, O(m^3): each step takes
    the entry of least valuation in the active block as pivot (a diagonal
    one first, then the lowest indices) and keeps the Schur complement, the
    bilinear matrix of the pivot's orthogonal complement.  An off-diagonal
    pivot (i, j) first replaces e_i by e_i + e_j, or by e_i - e_j where that
    norm vanishes: the two norms differ by 4 (e_i, e_j), and only at p = 2
    can the first be zero.  At odd p the new norm keeps the least valuation,
    so every step is a basis change over Z_p and the values are a Jordan
    splitting.  Every step has determinant 1, so twice the values multiply
    to the determinant exactly.
    """
    p = L.p
    b = L.bilinear_matrix()
    idx = list(range(L.rank))
    out = []
    while idx:
        keys = [
            (valuation(b[i][j], p), i != j, i, j)
            for n, i in enumerate(idx)
            for j in idx[n:]
            if b[i][j]
        ]
        if not keys:
            return None
        _, _, i, j = min(keys)
        if i != j:
            s = 1 if b[i][i] + b[j][j] + 2 * b[i][j] else -1
            for k in idx:
                b[i][k] += s * b[j][k]
            for k in idx:
                b[k][i] += s * b[k][j]
        piv = b[i][i]
        idx.remove(i)
        for r in idx:
            f = b[r][i] / piv
            if f:
                for k in idx:
                    b[r][k] -= f * b[i][k]
        out.append(piv / 2)
    return tuple(out)


def field_diagonalize(L: QuadLattice) -> tuple[Fraction, ...]:
    """Diagonalize the quadratic space over Q_p, returning the q-values of
    `_diagonalize`.  Works at every p; used for the Hasse invariant."""
    q = _diagonalize(L)
    if q is None:
        raise LatticeError("degenerate quadratic space")
    return q


def invariants(L: QuadLattice) -> LatticeInvariants:
    """Rank, discriminant character chi (odd p), Hasse invariant, and val.

    chi is the extended residue symbol of (-1)^(m(m-1)/2) times the moment
    determinant; the Hasse invariant is prod_{i<j} (a_i, a_j)_p over a
    field diagonalization q = sum a_i x_i^2.  At p = 2 chi is reported as
    None: the even-rank convention there is not pinned down by anything
    this package needs.
    """
    diag = _diagonalize(L)
    if diag is None:
        raise LatticeError("degenerate lattice")
    m = L.rank
    p = L.p
    if m == 0:
        return LatticeInvariants(0, 1, 1, 0)
    detb = math.prod((2 * x for x in diag), start=Fraction(1))
    hasse = 1
    for i in range(m):
        for j in range(i + 1, m):
            hasse *= hilbert_symbol(diag[i], diag[j], p)
    if p == 2:
        chi = None
    else:
        chi = quad_residue_symbol((-1) ** (m * (m - 1) // 2) * detb / 2**m, p)
    return LatticeInvariants(m, chi, hasse, valuation(detb, p))


def space_det(L: QuadLattice) -> Fraction:
    """Determinant of the quadratic space (moment determinant, up to squares)."""
    d = L.det_moment()
    if d == 0:
        raise LatticeError("degenerate lattice")
    return d


def jordan_form(L: QuadLattice) -> tuple[Fraction, ...]:
    """The q-values of a Jordan splitting of L over Z_p (odd p), in the
    pivot order of `_diagonalize`."""
    if L.p == 2:
        raise LatticeError("jordan_form requires odd p")
    q = _diagonalize(L)
    if q is None:
        raise LatticeError("degenerate lattice")
    return q


def change_of_basis(L: QuadLattice, U) -> QuadLattice:
    """Transform the Gram record by an integer basis change f_j = sum U[i][j] e_i."""
    m = L.rank
    U = [[Fraction(x) for x in row] for row in U]
    b = L.bilinear_matrix()
    nb = [
        [
            sum(U[r][i] * b[r][s] * U[s][j] for r in range(m) for s in range(m))
            for j in range(m)
        ]
        for i in range(m)
    ]
    gram = [
        [nb[i][j] / 2 if i == j else nb[i][j] for j in range(m)]
        for i in range(m)
    ]
    return QuadLattice(L.p, gram, blocks=None)


def parse_lattice(spec: str, p) -> QuadLattice:
    """Parse the textual lattice grammar.

    diag:a1,a2,...  |  hyp:k:+|-  |  delta:N  |  sum:<spec>+<spec>
    Exact integers or rationals (a/b), no whitespace.
    """
    spec = spec.strip()
    if spec.startswith("sum:"):
        parts = _split_sum(spec[4:])
        out = zero_lattice(p)
        for part in parts:
            out = direct_sum(out, parse_lattice(part, p))
        return out
    if spec.startswith("diag:"):
        vals = [Fraction(tok) for tok in spec[5:].split(",") if tok]
        if not vals:
            raise LatticeError(f"empty diagonal in {spec!r}")
        return diagonal_lattice(vals, p)
    if spec.startswith("hyp:"):
        body = spec[4:]
        try:
            k_str, sign = body.split(":")
        except ValueError:
            raise LatticeError(f"bad hyperbolic spec {spec!r}") from None
        if sign not in ("+", "-"):
            raise LatticeError(f"bad sign in {spec!r}")
        return hyperbolic_lattice(int(k_str), 1 if sign == "+" else -1, p)
    if spec.startswith("delta:"):
        return delta_lattice(Fraction(spec[6:]), p)
    raise LatticeError(f"cannot parse lattice spec {spec!r}")


def _split_sum(body: str) -> list[str]:
    """Split 'sum:' bodies on '+' separators that begin a new sub-spec."""
    prefixes = ("diag:", "hyp:", "delta:", "sum:")
    parts = []
    current = ""
    i = 0
    while i < len(body):
        if body[i] == "+" and any(body[i + 1 :].startswith(pre) for pre in prefixes):
            parts.append(current)
            current = ""
            i += 1
            continue
        current += body[i]
        i += 1
    parts.append(current)
    if not all(parts):
        raise LatticeError(f"cannot split sum spec {body!r}")
    return parts
