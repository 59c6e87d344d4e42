import math
import pickle
import random
from fractions import Fraction

import pytest

from swb import lattice
from swb.lattice import (
    LatticeError,
    QuadLattice,
    LatticeInvariants,
    change_of_basis,
    delta_lattice,
    diagonal_lattice,
    direct_sum,
    field_diagonalize,
    hyperbolic_lattice,
    invariants,
    jordan_form,
    parse_lattice,
    plane_lattice,
    space_det,
    twisted_hyperbolic,
    zero_lattice,
)
from swb.padic import hilbert_symbol, quad_residue_symbol, smallest_nonresidue, valuation


def random_unimodular(rng, m, bound=3):
    """Random integer matrix with determinant +-1 (product of elementaries)."""
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for _ in range(4 * m):
        i, j = rng.randrange(m), rng.randrange(m)
        if i == j:
            continue
        c = rng.randint(-bound, bound)
        for k in range(m):
            U[i][k] += c * U[j][k]
    if rng.random() < 0.5:
        U[0] = [-x for x in U[0]]
    return U


def test_delta_lattice_invariants():
    for p in (3, 5, 7):
        for N in (1, 2, 3, 4, 6, 9, 10, 45):
            inv = invariants(delta_lattice(N, p))
            assert inv.rank == 3
            assert inv.chi == quad_residue_symbol(Fraction(-N), p)
            assert inv.hasse == hilbert_symbol(N, -1, p)


def test_delta_dual_index():
    # det of the bilinear Gram is 2N, so the dual quotient has order p^v(2N)
    for p in (2, 3, 5):
        for N in (1, 2, 4, 6, 9, 12, 54):
            L = delta_lattice(N, p)
            assert valuation(L.det_bilinear(), p) == valuation(2 * N, p)


def test_plane_and_sums():
    for p in (2, 3):
        H = plane_lattice(p)
        assert H.q_value(0) == 0 and H.q_value(1) == 0 and H.gram[0][1] == 1
        L = diagonal_lattice([1], 3)
        assert direct_sum(L, zero_lattice(3)) == L
        assert direct_sum(diagonal_lattice([1], 3), diagonal_lattice([3], 3)) == diagonal_lattice([1, 3], 3)
    assert direct_sum(hyperbolic_lattice(2, 1, 5), delta_lattice(10, 5)).rank == 5


def test_hyperbolic_invariants():
    for p in (3, 5):
        for k in (1, 2, 3, 4, 5, 6):
            for eps in (1, -1):
                L = hyperbolic_lattice(k, eps, p)
                inv = invariants(L)
                assert inv.rank == k
                assert inv.chi == eps
                assert inv.val == 0  # self-dual
    # p=2 restrictions
    assert hyperbolic_lattice(4, 1, 2).rank == 4
    with pytest.raises(LatticeError):
        hyperbolic_lattice(3, 1, 2)
    with pytest.raises(LatticeError):
        hyperbolic_lattice(4, -1, 2)


def test_val_examples():
    for p in (3, 5):
        L = diagonal_lattice([1, p, p * p], p)
        # bilinear Gram is 2*diag(1, p, p^2)
        assert L.val() == 3
    assert diagonal_lattice([1], 3).val() == 0
    assert diagonal_lattice([1], 2).val() == 1  # v_2(2)


def test_invariants_unimodular_invariance():
    rng = random.Random(3)
    for p in (3, 5):
        for base in (
            diagonal_lattice([1, p, 2], p),
            delta_lattice(p * p, p),
            hyperbolic_lattice(4, -1, p),
        ):
            inv0 = invariants(base)
            for _ in range(20):
                U = random_unimodular(rng, base.rank)
                inv = invariants(change_of_basis(base, U))
                assert inv == inv0


def test_hasse_product_rule():
    rng = random.Random(5)
    pool = [1, 2, 3, 5, 6, 9, 10, 18, 45, 50]
    for p in (2, 3, 5):
        for _ in range(50):
            a = [Fraction(rng.choice(pool)) * rng.choice([1, -1]) for _ in range(rng.randint(1, 2))]
            b = [Fraction(rng.choice(pool)) * rng.choice([1, -1]) for _ in range(rng.randint(1, 2))]
            L, M = diagonal_lattice(a, p), diagonal_lattice(b, p)
            s = direct_sum(L, M)
            lhs = invariants(s).hasse
            rhs = (
                invariants(L).hasse
                * invariants(M).hasse
                * hilbert_symbol(space_det(L), space_det(M), p)
            )
            assert lhs == rhs, (a, b, p)


def test_jordan_form_roundtrip():
    rng = random.Random(9)
    for p in (3, 5):
        for _ in range(25):
            vals = [
                Fraction(rng.choice([1, 2, -1, -2])) * p ** rng.randint(0, 2)
                for _ in range(rng.randint(1, 3))
            ]
            L0 = diagonal_lattice(vals, p)
            L = change_of_basis(L0, random_unimodular(rng, L0.rank))
            jf = jordan_form(L)
            back = diagonal_lattice(jf, p)
            assert invariants(back) == invariants(L0)


def test_twisted_hyperbolic():
    L = twisted_hyperbolic(4, 1, 12, 0, 3)
    assert L.diagonal_values() if L.is_diagonal() else True
    assert L.rank == 3 and L.q_value(0) == -12
    assert twisted_hyperbolic(2, 1, 12, 0, 3) == diagonal_lattice([-12], 3)
    assert twisted_hyperbolic(4, 1, 9, 1, 3).q_value(0) == -1
    with pytest.raises(LatticeError):
        twisted_hyperbolic(4, 1, 3, 1, 3)


def test_parse_lattice():
    assert parse_lattice("diag:1,3", 3) == diagonal_lattice([1, 3], 3)
    assert parse_lattice("hyp:4:+", 3) == hyperbolic_lattice(4, 1, 3)
    assert parse_lattice("delta:6", 3) == delta_lattice(6, 3)
    s = parse_lattice("sum:hyp:2:++diag:1/2,5", 5)
    assert s.rank == 4 and s.q_value(2) == Fraction(1, 2)
    with pytest.raises(LatticeError):
        parse_lattice("spam:1", 3)


def _hyperbolic_by_direct_sums(k, eps, p):
    """hyperbolic_lattice built block by block through direct_sum."""
    if eps not in (1, -1) or k < 0:
        raise LatticeError("bad (k, eps)")
    if k == 0:
        if eps != 1:
            raise LatticeError("rank 0 has discriminant +1")
        return zero_lattice(p)
    if p == 2 and (k % 2 or eps != 1):
        raise LatticeError("at p=2 only even rank with eps=+1 is supported")
    if p == 2 or k % 2 == 0:
        planes = k // 2 if eps == 1 else k // 2 - 1
        tail = [] if eps == 1 else [1, -smallest_nonresidue(p)]
    else:
        planes = (k - 1) // 2
        tail = [
            a
            for a in (1, smallest_nonresidue(p))
            if quad_residue_symbol(Fraction(-1) ** (k * (k - 1) // 2 + planes) * a, p) == eps
        ][:1]
    out = zero_lattice(p)
    for _ in range(planes):
        out = direct_sum(out, plane_lattice(p))
    if tail:
        out = direct_sum(out, diagonal_lattice(tail, p))
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_hyperbolic_lattice_matches_direct_sums(p):
    for k in range(21):
        for eps in (1, -1):
            try:
                want = _hyperbolic_by_direct_sums(k, eps, p)
            except LatticeError:
                with pytest.raises(LatticeError):
                    hyperbolic_lattice(k, eps, p)
                continue
            got = hyperbolic_lattice(k, eps, p)
            assert got.gram == want.gram and got.blocks == want.blocks, (k, eps)


def test_cached_hyperbolic_lattice_is_immutable():
    H = hyperbolic_lattice(6, -1, 3)
    with pytest.raises(TypeError):
        H.gram[0][1] = Fraction(2)
    with pytest.raises(TypeError):
        H.gram[0] = (Fraction(0),) * 6
    for name in ("p", "gram", "blocks"):
        with pytest.raises(AttributeError, match="QuadLattice is immutable"):
            setattr(H, name, getattr(H, name))
        with pytest.raises(AttributeError, match="QuadLattice is immutable"):
            delattr(H, name)
    assert hyperbolic_lattice(6, -1, 3) is H
    copy = pickle.loads(pickle.dumps(H))
    assert copy == H and copy.blocks == H.blocks


def _field_diagonalize_oracle(L):
    """The former field_diagonalize: Gram-Schmidt on basis vectors, O(m^4)."""
    m = L.rank
    g = [
        [L.gram[i][j] if i != j else 2 * L.gram[i][j] for j in range(m)]
        for i in range(m)
    ]  # bilinear matrix
    basis = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]

    def bform(x, y):
        return sum(x[i] * g[i][j] * y[j] for i in range(m) for j in range(m))

    diag = []
    remaining = list(basis)
    while remaining:
        # find a vector with nonzero norm, combining two if necessary
        v = next((w for w in remaining if bform(w, w) != 0), None)
        if v is None:
            w0 = remaining[0]
            partner = next((w for w in remaining[1:] if bform(w0, w) != 0), None)
            if partner is None:
                raise LatticeError("degenerate quadratic space")
            v = [a + b for a, b in zip(w0, partner)]
        nv = bform(v, v)
        diag.append(nv / 2)  # q-value
        remaining = [
            [wi - bform(w, v) / nv * vi for wi, vi in zip(w, v)]
            for w in remaining
            if w is not v
        ]
        remaining = [w for w in remaining if any(w)]
    if len(diag) != m:
        raise LatticeError("degenerate quadratic space")
    return diag


def _is_rational_square(x):
    return x > 0 and all(math.isqrt(n) ** 2 == n for n in (x.numerator, x.denominator))


def _check_diagonalization(L):
    """field_diagonalize gives q-values of a basis of the same space: their
    product is the moment determinant times det(P)^2."""
    diag = field_diagonalize(L)
    assert len(diag) == L.rank and all(diag)
    assert _is_rational_square(math.prod(diag) / L.det_moment())


def _oracle_invariants(L, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(lattice, "field_diagonalize", _field_diagonalize_oracle)
        return invariants(L)


def test_field_diagonalize_matches_oracle(monkeypatch):
    rng = random.Random(14)
    for p in (2, 3, 5, 7):
        bases = [
            diagonal_lattice([1, p, 2], p),
            diagonal_lattice([-1, p * p, 3 * p, 5], p),
            delta_lattice(p * p, p),
            delta_lattice(6, p),
            direct_sum(plane_lattice(p), diagonal_lattice([p], p)),
            twisted_hyperbolic(4, 1, p * p, 1, p),
        ] + [
            hyperbolic_lattice(k, eps, p)
            for k in range(1, 9)
            for eps in (1, -1)
            if p != 2 or (k % 2 == 0 and eps == 1)
        ]
        # every norm zero, so the first step pairs two basis vectors
        zero_diagonal = []
        while len(zero_diagonal) < 6:
            m = rng.randint(2, 6)
            gram = [[0] * m for _ in range(m)]
            for i in range(m):
                for j in range(i + 1, m):
                    gram[i][j] = gram[j][i] = rng.choice([0, 1, -1, 2, p, 3 * p])
            L = lattice.QuadLattice(p, gram)
            if L.det_bilinear():
                zero_diagonal.append(L)
        bases += zero_diagonal
        for base in bases:
            want = _oracle_invariants(base, monkeypatch)
            assert invariants(base) == want
            _check_diagonalization(base)
            for _ in range(3):
                L = change_of_basis(base, random_unimodular(rng, base.rank))
                assert invariants(L) == want
                _check_diagonalization(L)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_hyperbolic_invariants_up_to_rank_20(p):
    """A plane is <1, -1> over Q_p, so H^k is the diagonal form of its blocks."""
    for k in range(1, 21):
        for eps in (1, -1):
            try:
                L = hyperbolic_lattice(k, eps, p)
            except LatticeError:
                continue
            diag = []
            for blk in L.blocks:
                diag += [1, -1] if blk == lattice.PLANE else [blk[1]]
            hasse = math.prod(
                hilbert_symbol(a, b, p) for i, a in enumerate(diag) for b in diag[i + 1:]
            )
            chi = None if p == 2 else eps
            assert invariants(L) == LatticeInvariants(k, chi, hasse, 0), (k, eps)
            _check_diagonalization(L)


def test_field_diagonalize_rejects_degenerate_space():
    for gram in ([[0]], [[0, 1, 0], [1, 0, 0], [0, 0, 0]], [[1, 2], [2, 1]]):
        L = lattice.QuadLattice(3, gram)
        with pytest.raises(LatticeError):
            field_diagonalize(L)


def _det_oracle(rows):
    """The former _det: Gaussian elimination with row swaps."""
    m = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(m):
        piv = next((r for r in range(col, m) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, m):
            f = a[r][col] * inv
            if f:
                for c in range(col, m):
                    a[r][c] -= f * a[col][c]
    return det


def _jordan_form_oracle(L):
    """The former jordan_form: (unit, exponent) pairs from full-matrix row
    and column operations, after a determinant pass to reject a degenerate
    lattice."""
    p = L.p
    if p == 2:
        raise LatticeError("jordan_form requires odd p")
    m = L.rank
    b = L.bilinear_matrix()
    if _det_oracle(b) == 0:
        raise LatticeError("degenerate lattice")

    def v(x):
        return valuation(x, p) if x != 0 else math.inf

    out = []
    idx = list(range(m))
    while idx:
        # minimal valuation entry among the active block
        best = None
        for ii, i in enumerate(idx):
            for j in idx[ii:]:
                x = b[i][j]
                if x == 0:
                    continue
                key = (v(x), i != j, i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
        if best is None:
            raise LatticeError("degenerate lattice")
        _, i, j = best
        if i != j:
            # make the diagonal entry (i,i) minimal: e_i += e_j
            for k in range(m):
                b[i][k] += b[j][k]
            for k in range(m):
                b[k][i] += b[k][j]
        piv = b[i][i]
        for r in idx:
            if r == i:
                continue
            f = b[r][i] / piv
            if f:
                for k in range(m):
                    b[r][k] -= f * b[i][k]
                for k in range(m):
                    b[k][r] -= f * b[k][i]
        q = piv / 2
        e = valuation(q, p)
        out.append((q / Fraction(p) ** e, e))
        idx.remove(i)
    return out


def _random_gram(rng, p):
    """A symmetric Gram record of rank <= 6 with half-integral, p-power and
    zero entries; about one in twenty is degenerate."""
    pool = [0, 0, 1, -1, 2, -2, 3, 6, Fraction(1, 2), p, -p, 3 * p, p * p]
    m = rng.randint(1, 6)
    gram = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            gram[i][j] = gram[j][i] = Fraction(rng.choice(pool))
    return lattice.QuadLattice(p, gram)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_diagonalize_matches_former_eliminations(p):
    rng = random.Random(23 + p)
    degenerate = 0
    for _ in range(300):
        L = _random_gram(rng, p)
        det = _det_oracle(L.bilinear_matrix())
        assert L.det_bilinear() == det
        half = [[x if i == j else x / 2 for j, x in enumerate(row)] for i, row in enumerate(L.gram)]
        assert L.det_moment() == _det_oracle(half)
        if det == 0:
            degenerate += 1
            with pytest.raises(LatticeError):
                field_diagonalize(L)
        else:
            assert math.prod(2 * q for q in field_diagonalize(L)) == det
        if p == 2:
            with pytest.raises(LatticeError, match="odd p"):
                jordan_form(L)
        elif det == 0:
            with pytest.raises(LatticeError, match="degenerate"):
                jordan_form(L)
        else:
            want = tuple(u * Fraction(p) ** e for u, e in _jordan_form_oracle(L))
            assert jordan_form(L) == want
    assert degenerate >= 10


def test_diagonalize_vanishing_pivot_at_2():
    # the off-diagonal pivot (0, 1): e0 + e1 has norm -2 + 0 + 2 = 0, so
    # e0 - e1 (norm -4) is taken instead
    L = lattice.QuadLattice(2, [[-1, 1], [1, 0]])
    assert field_diagonalize(L) == (-2, Fraction(1, 8))
    assert L.det_bilinear() == -1 == _det_oracle(L.bilinear_matrix())
    assert invariants(L).val == 0


def test_one_elimination_per_invariants_and_source(monkeypatch):
    # invariants reads det from the q-values of its one elimination, and a
    # non-diagonal odd-p source is split once, its degeneracy read from the
    # same split; the count is run once first so that the memoized 2 x 2
    # splits of the pair count's hosts are warm
    from swb.counting import count_reps

    calls = 0
    real = lattice._diagonalize

    def counted(L):
        nonlocal calls
        calls += 1
        return real(L)

    M, L = parse_lattice("hyp:6:+", 3), parse_lattice("hyp:2:+", 3)
    want = count_reps(M, L, 4)
    monkeypatch.setattr(lattice, "_diagonalize", counted)
    assert invariants(M) == LatticeInvariants(6, 1, 1, 0)
    assert calls == 1
    calls = 0
    assert count_reps(M, L, 4) == want == 160595083033826220
    assert calls == 1
    # the one split still rejects a degenerate source or lattice; at p = 2
    # degeneracy is reported before the non-diagonal shape
    for p in (2, 3):
        flat = QuadLattice(p, [[1, 2], [2, 1]])
        with pytest.raises(ValueError, match="degenerate source lattice"):
            count_reps(hyperbolic_lattice(4, 1, p), flat, 2)
        with pytest.raises(LatticeError, match="degenerate lattice"):
            invariants(flat)
