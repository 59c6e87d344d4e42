import functools
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from swb.counting import (
    Budget,
    BudgetExceeded,
    ClassHist,
    DenseHist,
    EngineUnsupported,
    _charge_hist,
    _class_index,
    _class_rep_2,
    _classes,
    _hyperbolic_pair_count_2,
    _jordan_values_2x2,
    _pair_count_2,
    _pair_count_odd,
    _pair_plan_2,
    _pair_table_2,
    _planes_counts,
    _plan_cell_2,
    _plan_count_2,
    _plan_rows_2,
    _primitive_planes_counts,
    _rank1_hist,
    _residual_classes_2,
    _rest_profile,
    _rest_steps_2,
    _square_ratio_inv_2,
    count_reps,
    res_valuation,
    strata_classes,
    strata_list,
    target_hist,
    vector_count,
    primitive_vector_count,
)
from swb.lattice import (
    QuadLattice,
    change_of_basis,
    delta_lattice,
    diagonal_lattice,
    direct_sum,
    hyperbolic_lattice,
    plane_lattice,
    twisted_hyperbolic,
    zero_lattice,
)
from swb.padic import rational_mod, smallest_nonresidue

from literal_oracle import components, literal_count


def dense_hist_of(p, e, blocks_planes, diags):
    """Literal histogram by enumeration, for validating the fast builders."""
    m = p**e
    coords = 2 * blocks_planes + len(diags)
    out = [0] * m
    diag_res = [int(Fraction(a)) % m for a in diags]
    for idx in range(m**coords):
        x = []
        k = idx
        for _ in range(coords):
            x.append(k % m)
            k //= m
        q = 0
        for i in range(blocks_planes):
            q += x[2 * i] * x[2 * i + 1]
        for i, a in enumerate(diag_res):
            xi = x[2 * blocks_planes + i]
            q += a * xi * xi
        out[q % m] += 1
    return out


def _plane_hist(p, e):
    """Histogram of the plane q(x, y) = xy over Z/p^e: it depends on v(c)
    only.  The engine builds none; the tests convolve it as the reference
    for the closed-form counts of H^P."""
    vals = [0] * (4 * e) + [p**e + e * (p - 1) * p**e // p]
    for i, _, _ in _classes(p, e)[:-1]:
        vals[i] = (i // 4 + 1) * (p - 1) * p ** (e - 1)
    return ClassHist(p, e, vals)


def _target_hist_oracle(p, e, planes, diags, budget=None):
    """Class histogram of H^planes + the sum of <a>, a in diags, mod p^e:
    the engine's histogram of the diagonal part convolved with one plane
    histogram per plane, charged "hist conv" 4 e^2 per block."""
    _charge_hist(budget, e, planes + len(diags))
    return _convolved_hist(p, e, planes, tuple(diags))


@functools.cache
def _convolved_hist(p, e, planes, diags):
    h = target_hist(p, e, diags)
    for _ in range(planes):
        h = h.conv(_plane_hist(p, e))
    return h


@pytest.mark.parametrize("p,e", [(3, 1), (3, 2), (5, 1), (5, 2), (2, 1), (2, 3)])
def test_plane_hist_matches_enumeration(p, e):
    h = _plane_hist(p, e)
    ref = dense_hist_of(p, e, 1, [])
    for c in range(p**e):
        assert h.eval(c) == ref[c], (p, e, c)


@pytest.mark.parametrize(
    "p,e,a",
    [(3, 2, 1), (3, 2, 2), (3, 3, 3), (5, 2, 10), (3, 2, Fraction(1, 2)), (2, 3, 3)],
)
def test_rank1_hist_matches_enumeration(p, e, a):
    from swb.padic import rational_mod

    h = _rank1_hist(p, e, rational_mod(a, p, e))
    ref = dense_hist_of(p, e, 0, [rational_mod(a, p, e)])
    for c in range(p**e):
        assert h.eval(c) == ref[c]


@pytest.mark.parametrize(
    "p,e", [(p, e) for p, emax in ((2, 6), (3, 6), (5, 4)) for e in range(1, emax + 1)]
)
def test_rank1_hist_every_a_matches_enumeration(p, e):
    # every a mod p^e, including a = 0 and a of positive valuation
    for a in range(p**e):
        h = _rank1_hist(p, e, a)
        assert [h.eval(c) for c in range(p**e)] == dense_hist_of(p, e, 0, [a]), (p, e, a)


@pytest.mark.parametrize("p", [3, 5, 2])
def test_class_conv_matches_dense_conv(p):
    e = 2
    h1 = _rank1_hist(p, e, 2)
    h2 = _plane_hist(p, e)
    conv = h1.conv(h2)
    ref = dense_hist_of(p, e, 1, [2])
    for c in range(p**e):
        assert conv.eval(c) == ref[c], (p, c)
    assert conv.total() == p ** (3 * e)
    # every pair of blocks <u p^v>, H against the dense convolution, and
    # one more plane on top, up to e = 6 at p = 2
    units = (1, 3, 5, 7) if p == 2 else (1, 2)
    for e in range(1, 7 if p == 2 else 4):
        m = p**e
        blocks = [_plane_hist(p, e)] + [
            _rank1_hist(p, e, u * p**v % m) for u in units for v in range(e + 1)
        ]
        dense = [DenseHist(p, e, [h.eval(c) for c in range(m)]) for h in blocks]
        for h1, d1 in zip(blocks, dense):
            for h2, d2 in zip(blocks, dense):
                conv = h1.conv(h2).conv(blocks[0])
                ref = d1.conv(d2).conv(dense[0]).a
                assert [conv.eval(c) for c in range(m)] == ref, (p, e)
                assert conv.total() == sum(ref)


def test_class_conv_rejects_mismatched_operands():
    # the scatter reads the other histogram's slots with this one's class
    # layout, so operands of another prime or precision are refused
    h = _plane_hist(3, 3)
    for other in (_plane_hist(3, 2), _plane_hist(3, 4), _plane_hist(5, 3), _rank1_hist(2, 3, 1)):
        with pytest.raises(ValueError, match="cannot convolve"):
            h.conv(other)
        with pytest.raises(ValueError, match="cannot convolve"):
            other.conv(h)
    assert h.conv(_rank1_hist(3, 3, 1)).total() == 3 ** (3 * 3)


def test_target_hist_composite():
    # H4 + <3> at p=3 and p=2, and p=2 targets with two diagonal entries,
    # against literal enumeration
    for p, e, planes, diags in [
        (3, 2, 2, [3]),
        (2, 3, 2, [3]),
        (2, 4, 1, [1, 6]),
        (2, 4, 0, [3, 12]),
    ]:
        h = _target_hist_oracle(p, e, planes, tuple(Fraction(a) for a in diags))
        ref = dense_hist_of(p, e, planes, diags)
        for c in range(p**e):
            assert h.eval(c) == ref[c], (p, e, planes, diags, c)


def _strata_list_oracle(c, p, D, dq):
    """Every stratum (j, gamma) of q(x) = c mod p^dq on x mod p^D, listed
    content by content: gamma mod p^(D-j) is pinned modulo p^(dq-2j)."""
    out = []
    for j in range(D):
        egam = D - j
        t = dq - 2 * j
        if t > 0:
            if c % p ** min(2 * j, dq) != 0:
                continue
            base = (c // p ** (2 * j)) % p**t
            step = p**t
        else:
            if c % p**dq != 0:
                continue
            base = 0
            step = 1
        for u in range(p**egam // step):
            out.append((j, base + step * u))
    return out


def _strata_classes_oracle(c, p, D):
    """The oracle's strata grouped by (j, square class of gamma), each group
    read at its first gamma, as (j, gamma, n)."""
    groups = {}
    for j, gamma in _strata_list_oracle(c, p, D, D):
        key = j, _class_index(p, D - j, gamma)
        n, first = groups.get(key, (0, gamma))
        groups[key] = n + 1, first
    return [(j, gamma, n) for (j, _), (n, gamma) in groups.items()]


def _strata_values(p, D):
    """0 and u p^k for k <= D and small units u, both signs: every
    valuation, both halves of j < D/2 and j >= D/2, and c = 0 mod p^D."""
    units = [u for u in range(1, 2 * p) if u % p]
    return [0] + [s * u * p**k for k in range(D + 1) for u in units for s in (1, -1)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_strata_list_matches_oracle(p):
    for D in range(1, 9):
        for dq in (D, D - 1):
            for c in _strata_values(p, D):
                assert strata_list(c, p, D, dq) == _strata_list_oracle(c, p, D, dq), (D, dq, c)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_strata_classes_matches_oracle(p):
    # one (j, gamma, n) per (content, square class), gamma the class's first
    # stratum, so the hosts and cache keys are those of the per-gamma grouping
    for D in range(1, 9):
        for c in _strata_values(p, D) + [p**D, 2 * p**D, p ** ((D + 1) // 2)]:
            assert sorted(strata_classes(c, p, D)) == sorted(_strata_classes_oracle(c, p, D)), (D, c)


def test_strata_partition():
    # strata weights sum to the full histogram value, stratum by stratum and
    # class by class
    for p, D, planes in product((3, 5), (1, 2, 3), (1, 2)):
        for c in range(p**D):
            zero = 1 if c == 0 else 0
            by_stratum = sum(
                primitive_vector_count(p, planes, (), D - j, D - j, g)
                for j, g in strata_list(c, p, D, D)
            )
            by_class = sum(
                n * primitive_vector_count(p, planes, (), D - j, D - j, g)
                for j, g, n in strata_classes(c, p, D)
            )
            want = vector_count(p, planes, (), D, D, c)
            assert by_stratum + zero == want == by_class + zero, (p, D, planes, c)


@pytest.mark.parametrize("p,D", [(3, 10), (5, 6)])
def test_pair_count_odd_reads_classes_not_strata(p, D, monkeypatch):
    # odd p never lists strata: with strata_list refusing, pairs whose values
    # both vanish mod p^D count as with the per-gamma grouping of the oracle
    import swb.counting as counting

    def refuse(*args):
        raise AssertionError("odd-p pair count listed its strata")

    monkeypatch.setattr(counting, "strata_list", refuse)
    targets = [(2, ()), (1, (Fraction(1),)), (0, (Fraction(1), Fraction(-2), Fraction(1)))]
    values = [(p**D, p**D), (p**D, p ** (D - 1)), (p ** (D // 2), 2 * p ** (D // 2 + 1))]
    for planes, diags in targets:
        for c1, c2 in values:
            got = _pair_count_odd(p, planes, diags, c1, c2, 0, D, Budget())
            with monkeypatch.context() as m:
                m.setattr(counting, "strata_classes", _strata_classes_oracle)
                want = _pair_count_odd(p, planes, diags, c1, c2, 0, D, Budget())
            assert got == want, (planes, diags, c1, c2)


@pytest.mark.parametrize(
    "planes,diags,c2",
    [
        (2, (), 0),
        (1, (Fraction(1),), 0),
        (0, (Fraction(1), Fraction(-2), Fraction(1)), 0),
        (2, (Fraction(-27),), 1),
    ],
    ids=["H4", "H2+1", "diag", "H4-27"],
)
def test_pair_stratum_charge_counts_strata(planes, diags, c2, monkeypatch):
    # x -> u x carries the stratum (j, gamma) of the first vector onto
    # (j, u^2 gamma), so each (j, square class of gamma mod p^(D-j)) with a
    # nonzero weight builds one constrained host, and the "pair stratum"
    # charge is one unit per host; their histograms are charged as "hist
    # conv".  c2 = 0 keeps c1 first; on <-27> + H4, whose pairs need a unit
    # first value, c2 = 1 goes first whenever c1 is not a unit.
    import swb.counting as counting

    keys = []

    def plane_host(p, planes, diags, j, gamma, D):
        keys.append((j, counting._class_index(p, D - j, gamma)))
        return build_plane(p, planes, diags, j, gamma, D)

    def dense_host(p, planes, diags, rep, j, D):
        gamma = sum(rational_mod(a, p, D - j) * x * x for a, x in zip(diags, rep))
        keys.append((j, counting._class_index(p, D - j, gamma)))
        return build_dense(p, planes, diags, rep, j, D)

    build_plane, build_dense = counting._constrained_plane_host, counting._constrained_dense_host
    monkeypatch.setattr(counting, "_constrained_plane_host", plane_host)
    monkeypatch.setattr(counting, "_constrained_dense_host", dense_host)
    p = 3
    for D in (1, 2, 3, 4):
        for c1 in range(p**D):
            budget = _LabelBudget()
            keys.clear()
            _pair_count_odd(p, planes, diags, c1, c2, 0, D, budget)
            assert budget.by_label.get("pair stratum", 0) == len(keys), (D, c1)
            assert keys and len(set(keys)) == len(keys), (D, c1, keys)


def _h_rest_dense(r, D, dq):
    """#{y in H^(r-1)/2^D: q(y) = c mod 2^dq} at every residue c, expanded
    from the class histogram of H^(r-1) mod 2^dq."""
    h = _target_hist_oracle(2, dq, r - 1, ())
    return tuple(2 ** ((2 * r - 2) * (D - dq)) * h.eval(c) for c in range(2**dq))


def _pair_table_2_oracle(r, D, dq, j, gamma):
    """I[delta][beta] over H^r by the dense double loop: every delta-row of
    the host-plane table convolved residue by residue with H^(r-1)."""
    m, mq = 2**D, 2**dq
    P = {}
    for y1 in range(m):
        for y2 in range(m):
            row = P.setdefault(2**j * (y2 + gamma * y1) % m, {})
            t = y1 * y2 % mq
            row[t] = row.get(t, 0) + 1
    HR = _h_rest_dense(r, D, dq)
    return {
        delta: [sum(cnt * HR[(beta - t) % mq] for t, cnt in row.items()) for beta in range(mq)]
        for delta, row in P.items()
    }


def _pair_table_2_loop_oracle(r, D, dq, j, gamma):
    """The whole table of 2^j (e1 + gamma e2) over H^r, one row per
    valuation of delta, as one loop builds it: each row's host-plane pairs
    counted by y1 y2 mod 2^dq, folded mod 2^i for every i and recombined
    with the steps of the dense H^(r-1) array, collapsed by valuation."""
    m = 2**D
    mq = 2**dq
    e = D - j
    HR = _h_rest_dense(r, D, dq)
    g = [None] * (dq + 1)
    for c, h in enumerate(HR):
        v = res_valuation(c, 2, dq)
        assert g[v] in (None, h)
        g[v] = h
    a = [g[0]] + [g[k] - g[k - 1] for k in range(1, dq + 1)]
    wmask, qmask = 2**e - 1, mq - 1
    tab = []
    for k in range(e + 1):
        row = [0] * mq
        for y1 in range(m):
            for y2 in range((2**k - gamma * y1) & wmask, m, 2**e):
                row[y1 * y2 & qmask] += 1
        folds = [row]
        for _ in range(dq):
            half = len(row) // 2
            row = [x + y for x, y in zip(row[:half], row[half:])]
            folds.append(row)
        arr = [a[0] * row[0]]
        for i in range(1, dq + 1):
            arr = [o + a[i] * s for o, s in zip(arr + arr, folds[dq - i])]
        tab.append(tuple(arr))
    return tuple(tab)


def _all_strata_2(D, dq):
    """Every (j, gamma mod 2^(D - j)) that some q-value mod 2^dq reaches."""
    return sorted(
        {
            (j, gamma % 2 ** (D - j))
            for alpha in range(2**dq)
            for j, gamma in strata_list(alpha, 2, D, dq)
        }
    )


def _read_pair_table_2(tab, D, dq, j, delta, beta):
    """I[delta][beta] from a compact table: delta = 2^v e, e a unit, reads
    row v - j at e^-2 beta; delta of valuation below j reads 0."""
    delta %= 2**D
    if delta == 0:
        return tab[D - j][beta % 2**dq]
    v = (delta & -delta).bit_length() - 1
    if v < j:
        return 0
    return tab[v - j][beta * pow(delta >> v, -2, 2**dq) % 2**dq]


def _stratum_plan(r, D, dq, j, gamma):
    """A plan (see _pair_plan_2) of the one stratum (j, gamma), weight 1,
    read at its own gamma: its reads are the table of 2^j (e1 + gamma e2)."""
    strata = [[(1, j, gamma, 1)] if v >= j else [] for v in range(D + 1)]
    return _rest_steps_2(r, D, dq, Budget()), strata, {}


def _stratum_reads(plan, r, D, dq, delta, beta):
    """(single-cell read, convolved-row read) of I[delta][beta] from a
    `_stratum_plan`; alpha = 1 keeps x = 0 out of both."""
    cell = _plan_cell_2(plan, r, 1, beta, delta, D, dq, Budget())
    bulk = _plan_count_2(plan, r, 1, [(beta, delta)], D, dq, Budget())
    return cell, bulk


def _reset_row_caches(monkeypatch):
    import swb.counting as counting

    monkeypatch.setattr(counting, "_ITAB_CACHE", {})
    monkeypatch.setattr(counting, "_ROW_CACHE", {})


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("D", [1, 2, 3, 4, 5])
def test_pair_table_2_matches_dense_oracle(r, D, monkeypatch):
    # both reads of the host rows, one cell at a time and through the
    # convolved rows, against the dense double loop and the whole-table
    # loop at every (j, gamma, beta, delta)
    _reset_row_caches(monkeypatch)
    for dq in (D, D - 1):
        if dq < 1:
            continue
        zeros = [0] * 2**dq
        for j, gamma in _all_strata_2(D, dq):
            oracle = _pair_table_2_oracle(r, D, dq, j, gamma)
            tab = _pair_table_2_loop_oracle(r, D, dq, j, gamma)
            assert [len(row) for row in tab] == [2**dq] * (D - j + 1)
            plan = _stratum_plan(r, D, dq, j, gamma)
            for delta in range(2**D):
                want = oracle.get(delta, zeros)
                for beta in range(2**dq):
                    loop = _read_pair_table_2(tab, D, dq, j, delta, beta)
                    got = _stratum_reads(plan, r, D, dq, delta, beta)
                    assert got == (loop, loop) and loop == want[beta], (dq, j, gamma, delta, beta)


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("D", [1, 2, 3, 4, 5])
def test_pair_table_2_oracle_unit_rescaling(r, D):
    # y -> u y sends (q(y), (rep, y)) to (u^2 q(y), u (rep, y)): the identity
    # I[u delta][u^2 beta] = I[delta][beta] that lets a table keep one row
    # per valuation of delta, checked on the dense oracle
    for dq in (D, D - 1):
        if dq < 1:
            continue
        zeros = [0] * 2**dq
        for j, gamma in _all_strata_2(D, dq):
            oracle = _pair_table_2_oracle(r, D, dq, j, gamma)
            for u in range(1, 2**D, 2):
                for delta in range(2**D):
                    row = oracle.get(delta, zeros)
                    urow = oracle.get(u * delta % 2**D, zeros)
                    for beta in range(2**dq):
                        assert urow[u * u * beta % 2**dq] == row[beta], (dq, j, gamma, u, delta)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("D", [1, 2, 3, 4, 5])
def test_pair_table_2_class_rescaling(r, D, monkeypatch):
    # the reads of each gamma's own host rows are the oracle for reading
    # the class representative's rows at u^-1 delta
    _reset_row_caches(monkeypatch)
    for dq in (D, D - 1):
        if dq < 1:
            continue
        for j, gamma in _all_strata_2(D, dq):
            gamma0, uinv = _class_rep_2(gamma, D - j)
            plan = _stratum_plan(r, D, dq, j, gamma)
            plan0 = _stratum_plan(r, D, dq, j, gamma0)
            for delta in range(2**D):
                for beta in range(2**dq):
                    got = _stratum_reads(plan, r, D, dq, delta, beta)
                    want = _stratum_reads(plan0, r, D, dq, delta * uinv % 2**D, beta)
                    assert got == want, (dq, j, gamma, delta, beta)


class _LabelBudget(Budget):
    """Budget that also tallies its charges by label."""

    def __init__(self):
        super().__init__(limit=float("inf"))
        self.by_label = {}

    def charge(self, amount, what=""):
        self.by_label[what] = self.by_label.get(what, 0) + amount
        super().charge(amount, what)


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("D", [1, 2, 3, 4])
def test_pair_table_2_charge_counts_iterations(r, D, monkeypatch):
    # the "p=2 pair table" charge is the row builders' iteration count:
    # the host-plane pairs a host row enumerates, counted here by scanning
    # the whole plane, plus the cells written by its folds and by the
    # convolution of the row with H^(r-1), counted through `zip`
    import builtins

    import swb.counting as counting

    cells = 0

    def counting_zip(*iterables):
        nonlocal cells
        for item in builtins.zip(*iterables):
            cells += 1
            yield item

    monkeypatch.setattr(counting, "zip", counting_zip, raising=False)
    for dq in (D, D - 1):
        if dq < 1:
            continue
        for j, gamma in _all_strata_2(D, dq):
            _reset_row_caches(monkeypatch)
            e = D - j
            rows = {2**k % 2**e for k in range(e + 1)}
            pairs = sum(
                1 for y1 in range(2**D) for y2 in range(2**D) if (y2 + gamma * y1) % 2**e in rows
            )
            plan = _stratum_plan(r, D, dq, j, gamma)
            budget = _LabelBudget()
            cells = 0
            for v in range(j, D + 1):
                _plan_rows_2(plan, r, v, D, dq, budget)
            # each convolved row's first cell, a_0 F_0[0], is the one not
            # written by a zip
            assert budget.by_label["p=2 pair table"] == pairs + cells + e + 1, (dq, j, gamma)
            # a second plan reads the same rows from the caches
            again = _LabelBudget()
            for v in range(j, D + 1):
                _plan_rows_2(_stratum_plan(r, D, dq, j, gamma), r, v, D, dq, again)
            assert "p=2 pair table" not in again.by_label


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("D", [1, 2, 3, 4])
def test_pair_point_charge_counts_fold_reads(r, D, monkeypatch):
    # the "p=2 pair point" charge of a pure-H query is the number of fold
    # entries F_i[t] it reads from the host rows, dq + 1 per stratum,
    # counted here on the rows; the rows themselves are "p=2 pair table"
    import swb.counting as counting

    reads = 0

    class CountingFold(tuple):
        def __getitem__(self, i):
            nonlocal reads
            reads += 1
            return tuple.__getitem__(self, i)

    host_row = counting._pair_table_2

    def counting_host_row(*args):
        return tuple(CountingFold(f) for f in host_row(*args))

    monkeypatch.setattr(counting, "_pair_table_2", counting_host_row)
    for dq in (D, D - 1):
        if dq < 1:
            continue
        for alpha in range(2**dq):
            for beta, delta in ((1, 0), (alpha, 2), (3, 1), (0, 0)):
                budget = _LabelBudget()
                reads = 0
                _hyperbolic_pair_count_2(r, alpha, beta, delta, D, dq, budget)
                assert budget.by_label.get("p=2 pair point", 0) == reads, (dq, alpha, beta, delta)
                assert reads % (dq + 1) == 0


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("D", [1, 2, 3, 4])
def test_pair_count_2_fold_charge_counts_cells(r, D, monkeypatch):
    # the "p=2 dense fold" charge is the scan of the 2^D values of y0, one
    # beta per y0, plus the row reads of the transvected first vectors,
    # counted on the rows, plus the residual classes: each Q whose weight
    # is tried, counted as the weights iterate over them, and the (beta,
    # delta) cells that the y0 scan of each x0 of a class hands to
    # `_plan_count_2`, counted as they are read; dq = D is convention A and
    # dq = D - 1 convention B
    import swb.counting as counting

    plan_count = counting._plan_count_2
    plan_rows = counting._plan_rows_2
    blocks = counting._residual_blocks_2
    residual_classes = counting._residual_classes_2
    cells = tried = scans = classes = 0
    in_scan = False

    def counting_plan_count(plan, planes, alpha, it, D, dq, budget):
        nonlocal cells, scans, in_scan
        it = list(it)
        cells += len(it)
        scans += 1
        in_scan = True
        try:
            return plan_count(plan, planes, alpha, it, D, dq, budget)
        finally:
            in_scan = False

    class CountingRow(tuple):
        def __getitem__(self, i):
            nonlocal cells
            cells += 1
            return tuple.__getitem__(self, i)

    def counting_plan_rows(plan, r, v, D, dq, budget):
        rows = plan_rows(plan, r, v, D, dq, budget)
        if in_scan:
            return rows
        return tuple((W, CountingRow(row), s) for W, row, s in rows)

    class CountingQs(list):
        def __iter__(self):
            nonlocal tried
            for Q in list.__iter__(self):
                tried += 1
                yield Q

    def counting_blocks(*args):
        for *head, Qs in blocks(*args):
            yield (*head, CountingQs(Qs))

    def counting_residual_classes(*args):
        nonlocal classes
        out = residual_classes(*args)
        classes += len(out)
        return out

    monkeypatch.setattr(counting, "_plan_count_2", counting_plan_count)
    monkeypatch.setattr(counting, "_plan_rows_2", counting_plan_rows)
    monkeypatch.setattr(counting, "_residual_blocks_2", counting_blocks)
    monkeypatch.setattr(counting, "_residual_classes_2", counting_residual_classes)
    for dq in (D, D - 1):
        if dq < 1:
            continue
        for w, c1, c2, b in [
            (1, 1, 2, 0), (3, 2, 1, 1), (2, 3, 3, 2), (1, 0, 0, 0), (5, 4, 1, 0), (8, 0, 1, 0),
            (3, 7, 1, 0), (1, 3, 2, 0),
        ]:
            budget = _LabelBudget()
            cells = tried = scans = classes = 0
            _pair_count_2(r, (Fraction(w),), c1, c2, b, D, dq, budget)
            assert budget.by_label["p=2 dense fold"] == cells + tried + 2**D, (dq, w, c1, c2, b)
            assert cells <= 4**D
            if w % 2 and c1 % 2 and b % 2 == 0:
                # unit w and c1: a = 0, and Q = c1 mod 2^dq and Q = w mod 4
                # leave 2 classes mod 2^(D+1) under A and 4 under B once
                # dq >= 2, none if c1 != w mod 2^min(2, dq); all have x0 = 1,
                # so they share one y0 scan
                want = 2 ** (D + 1 - max(2, dq)) if (c1 - w) % 2 ** min(2, dq) == 0 else 0
                assert (classes, scans) == (want, min(want, 1)), (dq, w, c1, c2, b)


def test_pair_count_2_charges_before_it_allocates():
    # the scans of the 2^D <w>-coordinates are charged before they are
    # made, so a budget below that charge stops the query before it
    # allocates them: tens of MB at d = 20, and no end in sight at d = 30
    import tracemalloc

    M = direct_sum(diagonal_lattice([-3], 2), hyperbolic_lattice(4, 1, 2))
    L = diagonal_lattice([1, 2], 2)
    for d in (20, 30):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                count_reps(M, L, d, budget=Budget(limit=10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (d, peak)


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("D", [1, 2, 3, 4])
def test_hyperbolic_pair_count_2_bulk_matches_point(r, D, monkeypatch):
    # the convolved rows of the plan of alpha (class tables read at the
    # valuation of u^-1 delta) against the single-cell reads of the host rows
    _reset_row_caches(monkeypatch)
    for dq in (D, D - 1):
        if dq < 1:
            continue
        for alpha in range(2**dq):
            plan = _pair_plan_2(r, alpha, D, dq, Budget())
            for beta in range(2**dq):
                for delta in range(2**D):
                    got = _plan_count_2(plan, r, alpha, [(beta, delta)], D, dq, Budget())
                    assert got == _hyperbolic_pair_count_2(
                        r, alpha, beta, delta, D, dq, Budget()
                    ), (dq, alpha, beta, delta)


@pytest.mark.parametrize("D", [1, 2, 3])
def test_pair_count_2_fold_matches_point_sum(D, monkeypatch):
    # the fold over one x0 per unit orbit, read from plans, against the sum
    # of single-cell pure-H reads over every <w>-coordinate pair (x0, y0)
    _reset_row_caches(monkeypatch)
    m = 2**D
    for dq in (D, D - 1):
        if dq < 1:
            continue
        mq = 2**dq
        for r in (0, 1):
            for w in range(1, m):
                for c1, c2, b in ((1, 2, 0), (3, 3, 1), (0, 1, 2), (2, 0, 0)):
                    want = sum(
                        _hyperbolic_pair_count_2(
                            r, c1 - w * x0 * x0, c2 - w * y0 * y0,
                            b - 2 * w * x0 * y0, D, dq, Budget(),
                        )
                        for x0 in range(m)
                        for y0 in range(m)
                    )
                    got = _pair_count_2(r, (Fraction(w),), c1 % mq, c2 % mq, b % m, D, dq, Budget())
                    assert got == want, (dq, r, w, c1, c2, b)


@functools.cache
def _unit_orbits_oracle(D, dq):
    """(x0, orbit size) for one x0 of each orbit of x0 -> u x0 mod 2^D,
    u over the units with u^2 = 1 mod 2^dq."""
    m = 2**D
    units = [u for u in range(1, m, 2) if u * u % 2**dq == 1]
    seen = set()
    out = []
    for x0 in range(m):
        if x0 not in seen:
            orbit = {x0 * u % m for u in units}
            seen |= orbit
            out.append((x0, len(orbit)))
    return tuple(out)


def _pair_count_2_fold_oracle(r, w, c1, c2, b, D, dq, plans):
    """The p = 2 pair count into <w> + H^r by the dense fold over both
    <w>-coordinates (x0, y0): one x0 per unit orbit, every stratum of the
    H-part read from the plan of alpha = c1 - w x0^2 (cached in `plans`),
    2^D cells per x0."""
    budget = Budget(limit=float("inf"))
    m = 2**D
    mq = 2**dq
    betas = [(c2 - w * y0 * y0) % mq for y0 in range(m)]
    total = 0
    for x0, n in _unit_orbits_oracle(D, dq):
        alpha = (c1 - w * x0 * x0) % mq
        plan = plans.get(alpha)
        if plan is None:
            plan = plans[alpha] = _pair_plan_2(r, alpha, D, dq, budget)
        coup = 2 * w * x0
        deltas = [(b - coup * y0) % m for y0 in range(m)]
        total += n * _plan_count_2(plan, r, alpha, zip(betas, deltas), D, dq, budget)
    return total


PAIR_COUNT_2_UNITS = (1, 3, 5, 7, 2, 6)


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("D", [1, 2, 3, 4])
def test_pair_count_2_matches_fold_oracle(r, D):
    # the transvection reduction (first vectors with 2^j | x0 read as
    # 2^j (e1 + gamma' e2), y0 free) and the fold restricted to the other
    # x0 orbits, against the dense fold, on every (c1, c2, b)
    m = 2**D
    for dq in (D, D - 1):
        if dq < 1:
            continue
        plans = {}
        for w in PAIR_COUNT_2_UNITS:
            for c1 in range(2**dq):
                for c2 in range(2**dq):
                    for b in range(m):
                        want = _pair_count_2_fold_oracle(r, w, c1, c2, b, D, dq, plans)
                        got = _pair_count_2(r, (Fraction(w),), c1, c2, b, D, dq, Budget())
                        assert got == want, (dq, w, c1, c2, b)


@pytest.mark.parametrize("D", [5, 6])
def test_pair_count_2_matches_fold_oracle_sampled(D):
    rng = random.Random(10 + D)
    m = 2**D
    plans = {}
    for _ in range(150):
        r = rng.choice((1, 2))
        dq = rng.choice((D, D - 1))
        w = rng.choice(PAIR_COUNT_2_UNITS + (4, 12))
        c1 = rng.choice((0, rng.randrange(2**dq), 2 ** rng.randrange(dq) * rng.randrange(2**dq)))
        c1 %= 2**dq
        c2 = rng.randrange(2**dq)
        b = rng.choice((0, rng.randrange(m)))
        cache = plans.setdefault((r, dq), {})
        want = _pair_count_2_fold_oracle(r, w, c1, c2, b, D, dq, cache)
        got = _pair_count_2(r, (Fraction(w),), c1, c2, b, D, dq, Budget())
        assert got == want, (r, dq, w, c1, c2, b)


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("D", [3, 4])
def test_pair_count_2_matches_fold_oracle_divisible_w(r, D):
    # w = 0 mod 8, where a class also needs +-u mod 2^(1+i), and w = 0
    # mod 2^D, on every (c1, c2, b)
    m = 2**D
    for dq in (D, D - 1):
        plans = {}
        for w in (8, 24, 16, 32):
            for c1 in range(2**dq):
                for c2 in range(2**dq):
                    for b in range(m):
                        want = _pair_count_2_fold_oracle(r, w, c1, c2, b, D, dq, plans)
                        got = _pair_count_2(r, (Fraction(w),), c1, c2, b, D, dq, Budget())
                        assert got == want, (dq, w, c1, c2, b)


@pytest.mark.parametrize("D", [5, 6])
def test_pair_count_2_matches_fold_oracle_divisible_w_sampled(D):
    rng = random.Random(20 + D)
    m = 2**D
    plans = {}
    for _ in range(100):
        r = rng.choice((1, 2))
        dq = rng.choice((D, D - 1))
        w = rng.choice((8, 24, 16, 48, 32, 96))
        c1 = rng.choice((0, rng.randrange(2**dq), 2 ** rng.randrange(dq) * rng.randrange(2**dq)))
        c1 %= 2**dq
        c2 = rng.randrange(2**dq)
        b = rng.choice((0, rng.randrange(m)))
        cache = plans.setdefault((r, dq), {})
        want = _pair_count_2_fold_oracle(r, w, c1, c2, b, D, dq, cache)
        got = _pair_count_2(r, (Fraction(w),), c1, c2, b, D, dq, Budget())
        assert got == want, (r, dq, w, c1, c2, b)


def _first_plane_y_counts(w, D, dq):
    """Literal y-counts on <w> + H over Z/2^D: for each x = (x0, x1, x2),
    the dict (q(y) mod 2^dq, (x, y) mod 2^D) -> #{y}, with
    q = w x0^2 + x1 x2 and (x, y) = 2 w x0 y0 + x1 y2 + x2 y1."""
    m, mq = 2**D, 2**dq
    ys = [(y0, y1, y2) for y0 in range(m) for y1 in range(m) for y2 in range(m)]
    qs = [(w * y0 * y0 + y1 * y2) % mq for y0, y1, y2 in ys]
    cache = {}

    def counts(x):
        x0, x1, x2 = (c % m for c in x)
        got = cache.get((x0, x1, x2))
        if got is None:
            got = {}
            for (y0, y1, y2), q in zip(ys, qs):
                key = (q, (2 * w * x0 * y0 + x1 * y2 + x2 * y1) % m)
                got[key] = got.get(key, 0) + 1
            cache[x0, x1, x2] = got
        return got

    return counts


@functools.cache
def _plane_profile(x1, x2, D, dq):
    """Literal {(y1 y2 mod 2^dq, x1 y2 + x2 y1 mod 2^D): #{(y1, y2)}} on H."""
    m, mq = 2**D, 2**dq
    return Counter((y1 * y2 % mq, (x1 * y2 + x2 * y1) % m) for y1 in range(m) for y2 in range(m))


def _join_profiles(A, B, D, dq):
    """The profile of an orthogonal sum: q-values and pairings add."""
    out = Counter()
    for (b1, d1), n1 in A.items():
        for (b2, d2), n2 in B.items():
            out[(b1 + b2) % 2**dq, (d1 + d2) % 2**D] += n1 * n2
    return out


@functools.cache
def _h_profile(h, D, dq):
    """The profile of h in H^r, h = (h1, h2, h3, h4, ...), as a frozenset."""
    out = Counter({(0, 0): 1})
    for k in range(0, len(h), 2):
        out = _join_profiles(out, _plane_profile(h[k], h[k + 1], D, dq), D, dq)
    return frozenset(out.items())


@functools.cache
def _residual_profile(w, x0, hprof, D, dq):
    """{(q(y) mod 2^dq, (x, y) mod 2^D): #{y}} for x = x0 e0 + h in <w> + H^r,
    literally: the <w>-coordinate joined with the H-part's profile."""
    m, mq = 2**D, 2**dq
    e0 = Counter((w * y0 * y0 % mq, 2 * w * x0 * y0 % m) for y0 in range(m))
    return _join_profiles(e0, dict(hprof), D, dq)


def _residual_key(w, x0, h, D, exact=True):
    """(a, i, +-u mod 2^(1+i), Q mod 2^(D-a+1+i)) of x = 2^a u e0 + h, h of
    content j > a: i = min(j - a - 1, v(w)) and Q = q(x / 2^a).  Without
    `exact`, the key without the v(w) terms, (a, Q mod 2^(D-a+1))."""
    a = res_valuation(x0, 2, D)
    j = min([res_valuation(c, 2, D) for c in h] + [D])
    i = min(j - a - 1, res_valuation(w, 2, D))
    u = x0 >> a
    Q = w * u * u + sum(h[k] * h[k + 1] for k in range(0, len(h), 2)) // 4**a
    if not exact:
        return a, Q % 2 ** (D - a + 1)
    return a, i, min(u % 2 ** (1 + i), -u % 2 ** (1 + i)), Q % 2 ** (D - a + 1 + i)


def _residual_members(r, D):
    """Every x = (x0, h) of <w> + H^r mod 2^D with v(x0) < content of h."""
    m = 2**D
    for x0 in range(1, m):
        a = res_valuation(x0, 2, D)
        for h in product(range(0, m, 2 ** (a + 1)), repeat=2 * r):
            yield x0, h


@pytest.mark.parametrize("r,D", [(r, D) for r in (0, 1, 2) for D in (1, 2, 3)] + [(0, 4), (1, 4)])
def test_residual_classes_2_match_literal_profiles(r, D):
    # literal enumeration of <w> + H^r mod 2^D: every residual first vector
    # x = 2^a u e0 + h (h of content j > a, h = 0 included) has the full
    # (c2, b) profile of its class representative, the class weights count
    # the members, and every member's key has a class
    m = 2**D
    for dq in (D, D - 1):
        if dq < 1:
            continue
        for w in (1, 3, 5, 7, 2, 6, 4, 12, 8, 24):
            wl = w % m or m
            by_c1 = {}
            for x0, h in _residual_members(r, D):
                c1 = (wl * x0 * x0 + sum(h[k] * h[k + 1] for k in range(0, 2 * r, 2))) % 2**dq
                by_c1.setdefault(c1, []).append((x0, h))
            vw = res_valuation(wl, 2, D)
            for c1 in range(2**dq):
                reps = {}
                for n, x0, j, g in _residual_classes_2(r, wl, vw, c1, D, dq, Budget()):
                    h = ((2**j % m, 2**j * g % m) + (0,) * (2 * r - 2)) if j < D else (0,) * (2 * r)
                    key = _residual_key(wl, x0 % m, h, D)
                    assert key not in reps, (dq, w, c1, key)
                    reps[key] = n, _residual_profile(wl, x0 % m, _h_profile(h, D, dq), D, dq)
                members = by_c1.get(c1, [])
                keys = Counter(_residual_key(wl, x0, h, D) for x0, h in members)
                assert keys == {key: n for key, (n, _) in reps.items()}, (dq, w, c1)
                for x0, h in members:
                    got = _residual_profile(wl, x0, _h_profile(h, D, dq), D, dq)
                    assert got == reps[_residual_key(wl, x0, h, D)][1], (dq, w, c1, x0, h)


def test_residual_key_needs_the_v_w_terms():
    # at w = 2 the key without i and with Q mod 2^(D-a+1) puts first
    # vectors of different profiles into one class
    D = dq = 3
    profiles = {}
    for x0, h in _residual_members(1, D):
        key = _residual_key(2, x0, h, D, exact=False)
        profile = _residual_profile(2, x0, _h_profile(h, D, dq), D, dq)
        profiles.setdefault(key, set()).add(frozenset(profile.items()))
    assert any(len(p) > 1 for p in profiles.values())


@pytest.mark.parametrize("w", PAIR_COUNT_2_UNITS)
def test_transvection_carries_h_dominant_vectors_to_first_plane(w):
    # literal enumeration, no engine: on <w> + H, every x = x0 e0 + 2^j h'
    # with h' primitive and 2^j | x0 has, for every (c2, b), as many y as
    # 2^j (e1 + gamma' e2) with gamma' = q(x / 2^j) mod 2^(D - j), for
    # both conventions up to D = 3
    for D in (1, 2, 3):
        m = 2**D
        for dq in (D, D - 1):
            if dq < 1:
                continue
            counts = _first_plane_y_counts(w, D, dq)
            seen = 0
            for x0 in range(m):
                for x1 in range(m):
                    for x2 in range(m):
                        if x1 == x2 == 0:
                            continue
                        j = min(((c & -c).bit_length() - 1 if c else D) for c in (x1, x2))
                        if x0 % 2**j:
                            continue
                        e = D - j
                        s, h1, h2 = x0 >> j, x1 >> j, x2 >> j
                        gamma = (w * s * s + h1 * h2) % 2**e
                        assert counts((x0, x1, x2)) == counts((0, 2**j, 2**j * gamma)), (
                            D, dq, x0, x1, x2,
                        )
                        seen += 1
            assert seen


@pytest.mark.parametrize("k", range(1, 9))
def test_class_rep_2(k):
    m = 2**k
    reps = {_class_rep_2(gamma, k)[0] for gamma in range(m)}
    # the zero residue and, per valuation v < k, the units mod 2^min(3, k - v)
    assert len(reps) == 1 + sum(2 ** (min(3, k - v) - 1) for v in range(k))
    for gamma in range(m):
        gamma0, uinv = _class_rep_2(gamma, k)
        assert _class_rep_2(gamma0, k) == (gamma0, 1)
        u = pow(uinv, -1, m)
        assert u * u * gamma0 % m == gamma, (gamma, gamma0)
        for other in reps - {gamma0}:
            with pytest.raises(AssertionError, match="not in the 2-adic class"):
                _square_ratio_inv_2(gamma, other, k)


def test_pair_tables_built_per_class_only(monkeypatch):
    # a p = 2 pair query builds host rows and convolved rows for class
    # representatives only, at most one per class of gamma mod 2^(D - j)
    # and valuation of delta
    import swb.counting as counting

    _reset_row_caches(monkeypatch)
    M = direct_sum(diagonal_lattice([-3], 2), hyperbolic_lattice(4, 1, 2))
    count_reps(M, diagonal_lattice([1, 2], 2), 7)
    keys = list(counting._ITAB_CACHE)
    assert keys and counting._ROW_CACHE
    for D, dq, j, gamma, k in keys:
        assert _class_rep_2(gamma, D - j)[0] == gamma, (D, dq, j, gamma)
        assert 0 <= k <= D - j
    assert {key[1:] for key in counting._ROW_CACHE} <= set(keys)


def test_pair_table_2_is_read_only(monkeypatch):
    _reset_row_caches(monkeypatch)
    tab = _pair_table_2(3, 3, 0, 1, 0, Budget())
    assert [len(f) for f in tab] == [1, 2, 4, 8]
    with pytest.raises(TypeError):
        tab[0] = (0,)
    with pytest.raises(TypeError):
        del tab[0]
    with pytest.raises(TypeError):
        tab[3][0] = 1
    assert _pair_table_2(3, 3, 0, 1, 0, Budget()) is tab
    plan = _pair_plan_2(2, 1, 3, 3, Budget())
    for W, row, s in _plan_rows_2(plan, 2, 3, 3, 3, Budget()):
        with pytest.raises(TypeError):
            row[0] = 1


def test_pair_table_2_rejects_non_invariant_histogram(monkeypatch):
    # a pair-table read over H^2 takes its H^(r-1) steps from the closed
    # form, not from the class values of H; the histogram route it is
    # checked against rejects values that differ within one valuation
    real = _target_hist_oracle

    def fake(p, e, planes, diags, budget=None):
        if planes:
            return ClassHist(p, e, range(4 * e + 1))
        return real(p, e, planes, diags, budget)

    _reset_row_caches(monkeypatch)
    want = _hyperbolic_pair_count_2(2, 1, 1, 0, 3, 3, Budget())
    _reset_row_caches(monkeypatch)
    monkeypatch.setitem(globals(), "_target_hist_oracle", fake)
    assert _hyperbolic_pair_count_2(2, 1, 1, 0, 3, 3, Budget()) == want
    with pytest.raises(AssertionError, match="unit invariant"):
        _rest_steps_2_hist_oracle(2, 3, 3)


@pytest.mark.parametrize("slot", [0, 1, 2, 3, 4, 5])
def test_pair_table_2_rejects_corrupted_class_values(slot, monkeypatch):
    # unit classes 0-3 of valuation 0 and 4-5 of valuation 1 are the
    # non-empty ones mod 8; corrupting any one breaks unit invariance
    real = _target_hist_oracle
    vals = list(real(2, 3, 1, ()).vals)
    vals[slot] += 1

    def corrupted(p, e, planes, diags, budget=None):
        if (p, e, planes, diags) == (2, 3, 1, ()):
            return ClassHist(2, 3, vals)
        return real(p, e, planes, diags, budget)

    _reset_row_caches(monkeypatch)
    want = _hyperbolic_pair_count_2(2, 1, 1, 0, 3, 3, Budget())
    _reset_row_caches(monkeypatch)
    monkeypatch.setitem(globals(), "_target_hist_oracle", corrupted)
    assert _hyperbolic_pair_count_2(2, 1, 1, 0, 3, 3, Budget()) == want
    with pytest.raises(AssertionError, match="unit invariant"):
        _rest_steps_2_hist_oracle(2, 3, 3)


def test_cached_class_hist_is_immutable():
    h = target_hist(3, 2, (Fraction(1), Fraction(2)))
    with pytest.raises(TypeError):
        h.vals[0] += 1
    for name in ("p", "e", "vals"):
        with pytest.raises(AttributeError, match="ClassHist is immutable"):
            setattr(h, name, getattr(h, name))
        with pytest.raises(AttributeError, match="ClassHist is immutable"):
            delattr(h, name)
    assert target_hist(3, 2, (Fraction(1), Fraction(2))) is h
    assert pickle.loads(pickle.dumps(h)).vals == h.vals


def _valuation_sizes(p, e):
    """Number of residues mod p^e of each valuation v = 0, ..., e."""
    return [(p - 1) * p ** (e - v - 1) for v in range(e)] + [1]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_planes_counts_match_plane_convolution(p):
    # G[v] against every non-empty class value of the convolved histogram:
    # the histogram of H^P depends on the valuation of the residue only.
    # P = 0 is the unit histogram, in integers like every other P
    for e in range(7):
        for P in range(7):
            G = _planes_counts(p, e, P)
            assert all(type(g) is int for g in G), (e, P, G)
            h = _target_hist_oracle(p, e, P, ())
            for i, rep, _ in _classes(p, e):
                assert G[i // 4] == h.vals[i], (e, P, rep)
            assert sum(G[v] * n for v, n in enumerate(_valuation_sizes(p, e))) == p ** (2 * P * e)


def _vector_count_oracle(p, planes, diags, e_var, e_q, c, budget):
    """#{x in M/p^e_var: q(x) = c mod p^e_q} by the convolved histogram of
    the whole target."""
    m = 2 * planes + len(diags)
    return p ** (m * (e_var - e_q)) * _target_hist_oracle(p, e_q, planes, diags, budget).eval(c)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_vector_count_closed_matches_convolution(p, monkeypatch):
    # seeded random R of rank <= 3, every unit class at valuations 0-3,
    # every residue c (the profile cache is keyed by its class): the values
    # and the budget units agree with the convolution route
    import swb.counting as counting

    monkeypatch.setattr(counting, "_PROFILE_CACHE", {})
    rng = random.Random(p)
    units = (1, 3, 5, 7) if p == 2 else (1, smallest_nonresidue(p))
    entries = [Fraction(u * p**v) for u in units for v in range(4)]
    e_max = {2: 4, 3: 3, 5: 2, 7: 2}[p]
    for _ in range(12):
        diags = tuple(rng.choice(entries) for _ in range(rng.randrange(4)))
        planes = rng.randrange(1, 4)
        for e_q in range(1, e_max + 1):
            e_var = e_q + rng.randrange(1, 3)
            for c in range(p**e_q):
                got, want = Budget(), Budget()
                assert vector_count(p, planes, diags, e_var, e_q, c, got) == _vector_count_oracle(
                    p, planes, diags, e_var, e_q, c, want
                ), (planes, diags, e_q, c)
                assert got.used == want.used


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rest_profile_counts_literally(p):
    # prof[v] = #{z in R/p^e: v(c - q(z)) = v} by enumerating R, with
    # entries of valuation 0-3 in every unit class; e = 4, 5 at p = 2 reach
    # the classes of valuation v(c) whose units agree with c's mod 2^(v -
    # v(c)) < 8
    units = (1, 3, 5, 7) if p == 2 else (1, smallest_nonresidue(p))
    n = units[-1]
    cases = [(), (1,), (p, 3), (1, 2, p * p)]
    cases += [(u * p**v,) for u in units for v in range(4)]
    cases += [(n, p**3), (n * p, p**2, n * p**3), (units[1] * p**2, 1), (n * p**2, n * p**3)]
    for diags in cases:
        for e in range(1, {2: 5, 3: 4, 5: 3}[p] + 1):
            m = p**e
            qs = Counter([0])
            for a in diags:
                step = Counter()
                for s, k in qs.items():
                    for z in range(m):
                        step[(s + a * z * z) % m] += k
                qs = step
            for c in range(m):
                want = [0] * (e + 1)
                for s, k in qs.items():
                    want[res_valuation(c - s, p, e)] += k
                got = _rest_profile(p, e, tuple(Fraction(a) for a in diags), c)
                assert list(got) == want, (diags, e, c)


def _rest_profile_oracle(p, e, diags, c):
    """The profile from a histogram of R at every precision v <= e:
    #{z mod p^e: q(z) = c mod p^v} = p^(r(e-v)) h_v(c), h_0 = 1."""
    r = len(diags)
    at_least = [p ** (r * (e - v)) * target_hist(p, v, diags).eval(c) for v in range(e + 1)]
    return tuple(at_least[v] - at_least[v + 1] for v in range(e)) + (at_least[e],)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rest_profile_matches_per_precision_oracle(p, monkeypatch):
    # seeded random R of rank <= 3 with entries of valuation 0-4, e <= 10,
    # a representative of every class of c and a multiple of it by a unit
    # square, each read from a cleared profile cache
    import swb.counting as counting

    rng = random.Random(100 + p)
    units = (1, 3, 5, 7) if p == 2 else (1, smallest_nonresidue(p))
    for _ in range(10):
        diags = tuple(Fraction(rng.choice(units) * p ** rng.randrange(5)) for _ in range(rng.randrange(4)))
        for e in range(11):
            for _, rep, _ in _classes(p, e):
                for c in (rep, rep * 9 if p != 3 else rep * 4):
                    monkeypatch.setattr(counting, "_PROFILE_CACHE", {})
                    assert _rest_profile(p, e, diags, c) == _rest_profile_oracle(p, e, diags, c), (
                        diags, e, c
                    )


def test_rest_profile_builds_no_lower_precision_histogram(monkeypatch):
    # the profile at precision e reads the histogram of R mod p^e alone
    import swb.counting as counting

    for p, e, diags in [(2, 6, (3, 4, 40)), (3, 5, (2, 9)), (5, 4, (1, 2, 125)), (7, 3, (21,))]:
        monkeypatch.setattr(counting, "_HIST_CACHE", {})
        monkeypatch.setattr(counting, "_PROFILE_CACHE", {})
        for c in range(p**e):
            _rest_profile(p, e, tuple(Fraction(a) for a in diags), c)
        assert counting._HIST_CACHE
        assert {key[1] for key in counting._HIST_CACHE} == {e}, (p, e, diags)


def _pair_point_2_oracle(r, D, dq, j, gamma, beta, delta):
    """Single-entry evaluation of I[delta][beta] over H^r: one pass over
    the host-plane solutions of the linear constraint, reading H^(r-1) at
    every residue."""
    m = 2**D
    mq = 2**dq
    if delta % 2 ** min(j, D) != 0:
        return 0
    w0 = (delta // 2**j) % 2 ** (D - j)
    HR = _h_rest_dense(r, D, dq)
    total = 0
    step = 2 ** (D - j)
    for y1 in range(m):
        base = w0 - gamma * y1
        for s in range(2**j):
            y2 = (base + step * s) % m
            total += HR[(beta - y1 * y2) % mq]
    return total


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("D", [1, 2, 3, 4, 5])
def test_pair_point_2_matches_loop_oracle(r, D, monkeypatch):
    # the single-cell read of the host rows at every (j, gamma, beta,
    # delta), gamma not only a class representative
    _reset_row_caches(monkeypatch)
    for dq in (D, D - 1):
        if dq < 1:
            continue
        for j in range(D):
            for gamma in range(2 ** (D - j)):
                plan = _stratum_plan(r, D, dq, j, gamma)
                for delta in range(2**D):
                    for beta in range(2**dq):
                        budget = _LabelBudget()
                        got = _plan_cell_2(plan, r, 1, beta, delta, D, dq, budget)
                        want = _pair_point_2_oracle(r, D, dq, j, gamma, beta, delta)
                        assert got == want, (dq, j, gamma, beta, delta)
                        if delta % 2**j == 0:
                            assert budget.by_label["p=2 pair point"] == dq + 1


def test_rest_steps_2_match_enumeration_and_charge_every_call():
    # a_0 + ... + a_v(c) against the literal histogram of H^(r-1), and the
    # charges: the histogram, and one "dense histogram" unit per class mod
    # 2^dq.  A second call returns the same vector and charges the same
    # units.
    for r in (1, 2, 3):
        for dq in (1, 2, 3, 4):
            ref = dense_hist_of(2, dq, r - 1, [])
            for D in (dq, dq + 1):
                first, second = _LabelBudget(), _LabelBudget()
                steps = _rest_steps_2(r, D, dq, first)
                want = {
                    "hist conv": 4 * dq * dq * (r - 1),
                    "dense histogram": len(_classes(2, dq)),
                }
                got = [sum(steps[: res_valuation(c, 2, dq) + 1]) for c in range(2**dq)]
                assert got == [2 ** ((2 * r - 2) * (D - dq)) * x for x in ref], (r, D, dq)
                assert _rest_steps_2(r, D, dq, second) == steps
                assert first.by_label == second.by_label == want


def _rest_steps_2_hist_oracle(r, D, dq):
    """The step vector of H^(r-1) read from the class values of its
    convolved histogram mod 2^dq.  H^(r-1) is invariant under scaling one
    coordinate of each plane by a unit u, which maps q to u q, so all
    non-empty unit classes of one valuation hold the same value."""
    h = _target_hist_oracle(2, dq, r - 1, ())
    g = [None] * (dq + 1)
    for i, _, _ in _classes(2, dq):
        v = i // 4
        if g[v] is None:
            g[v] = h.vals[i]
        assert g[v] == h.vals[i], "H^(r-1) histogram is not unit invariant"
    scale = 2 ** ((2 * r - 2) * (D - dq))
    return tuple(scale * (g[i] - (g[i - 1] if i else 0)) for i in range(dq + 1))


def test_rest_steps_2_match_histogram_oracle():
    for r in range(1, 7):
        for dq in range(11):
            for D in (dq, dq + 1):
                want = _rest_steps_2_hist_oracle(r, D, dq)
                assert _rest_steps_2(r, D, dq, Budget()) == want, (r, D, dq)


def _dominant_hist_2_oracle(r, e, w):
    """#{(z, h') mod 2^e: h' primitive in H^r, w z^2 + q(h') = c}, as a
    class histogram: the rank-1 histogram of <w> convolved with that of
    the primitive vectors of H^r."""
    prim = [0] * (4 * e + 1)
    for i, rep, _ in _classes(2, e):
        prim[i] = primitive_vector_count(2, r, (), e, e, rep)
    return _rank1_hist(2, e, w).conv(ClassHist(2, e, prim))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_dominant_weights_2_match_histogram_convolution(r):
    # the stratum weights of <w> + H^r, sum_v prim[v] prof[v], against the
    # convolved histogram at every w mod 2^e of valuation <= 3 and every
    # class of gamma, read from the j = 0 stratum of a plan at D = dq = e
    for e in range(1, 9):
        for w in range(2**e):
            if res_valuation(w, 2, e) > 3:
                continue
            want = _dominant_hist_2_oracle(r, e, w)
            for i, gamma, _ in _classes(2, e):
                strata = _pair_plan_2(r, gamma, e, e, Budget(), w)[1]
                got = [W for W, j, _, _ in strata[0]]
                assert got == ([want.vals[i]] if want.vals[i] else []), (e, w, gamma)
        assert _primitive_planes_counts(r, e) is _primitive_planes_counts(r, e)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_primitive_vector_count_matches_enumeration(p):
    # every x of H^planes + <diags> mod p^e_var, planes <= 1 and diags of
    # rank <= 2 with unit and p-multiple entries, counted by q(x) mod p^e_q
    # with and without a coordinate prime to p, at most 10^5 vectors a case
    u = 3 if p == 2 else smallest_nonresidue(p)
    for planes in (0, 1):
        for diags in [(), (1,), (p,), (u, p), (1, u * p * p)]:
            m = 2 * planes + len(diags)
            for e_var in range(5):
                if p ** (e_var * m) > 10**5:
                    continue
                mv = p**e_var
                qs, prim = Counter(), Counter()
                for x in product(range(mv), repeat=m):
                    q = sum(x[2 * i] * x[2 * i + 1] for i in range(planes))
                    q += sum(a * z * z for a, z in zip(diags, x[2 * planes:]))
                    qs[q % mv] += 1
                    if any(z % p for z in x):
                        prim[q % mv] += 1
                fracs = tuple(Fraction(a) for a in diags)
                for e_q in (e_var - 1, e_var):
                    if not 0 <= e_q <= 3:
                        continue
                    mq = p**e_q
                    for c in range(mq):
                        want = sum(k for q, k in prim.items() if (q - c) % mq == 0)
                        total = sum(k for q, k in qs.items() if (q - c) % mq == 0)
                        case = (planes, diags, e_var, e_q, c)
                        assert primitive_vector_count(p, planes, fracs, e_var, e_q, c) == want, case
                        assert vector_count(p, planes, fracs, e_var, e_q, c) == total, case


def test_jordan_values_2x2_memo_matches_jordan_form(monkeypatch):
    import swb.counting as counting

    _jordan_values_2x2.cache_clear()
    calls = 0
    jordan_form = counting.jordan_form

    def counted(L):
        nonlocal calls
        calls += 1
        return jordan_form(L)

    monkeypatch.setattr(counting, "jordan_form", counted)
    # the blocks [-gamma, p^s; 0] that _constrained_plane_host splits
    for p in (3, 5, 7):
        for s in range(1, 4):
            for gamma in range(p ** (s + 1)):
                args = (p, -gamma, Fraction(p) ** s, 0)
                L = QuadLattice(p, [[-gamma, args[2]], [args[2], 0]])
                want = jordan_form(L)
                before = calls
                got = _jordan_values_2x2(*args)
                assert got == want and calls == before + 1
                assert _jordan_values_2x2(*args) is got and calls == before + 1


def test_count_example_plane():
    # xy = 1 mod 9 has phi(9) = 6 solutions
    H = plane_lattice(3)
    L1 = diagonal_lattice([1], 3)
    assert count_reps(H, L1, 2) == 6
    assert count_reps(H, L1, 2, primitive=True) == 6
    assert count_reps(H, zero_lattice(3), 2) == 1


ENGINE_CASES_N1 = []
for p in (2, 3):
    targets = [
        ("H4", hyperbolic_lattice(4, 1, p)),
        ("H2+delta", direct_sum(plane_lattice(p), delta_lattice(2 * p, p))),
        ("twist", twisted_hyperbolic(4, 1, p * p, 0, p)),
    ]
    for name, M in targets:
        for a in (1, 3, p, 2 * p * p, -1):
            ENGINE_CASES_N1.append((p, name, M, a))


@pytest.mark.parametrize("p,name,M,a", ENGINE_CASES_N1)
def test_engine_vs_naive_rank1(p, name, M, a):
    L = diagonal_lattice([a], p)
    for d in (1, 2):
        for conv in ("A", "B"):
            got = count_reps(M, L, d, convention=conv)
            want = literal_count(M, L, d, convention=conv)
            assert got == want, (p, name, a, d, conv)


@pytest.mark.parametrize("p,name,M,a", [c for c in ENGINE_CASES_N1 if c[1] == "H4"])
def test_engine_vs_naive_rank1_primitive(p, name, M, a):
    L = diagonal_lattice([a], p)
    for d in (1, 2):
        got = count_reps(M, L, d, primitive=True)
        want = literal_count(M, L, d, primitive=True)
        assert got == want, (p, name, a, d)


PAIR_SOURCES = {
    2: [(1, 1), (1, 3), (3, 7), (1, 2), (1, 4), (2, 6), (4, 12), (3, 8), (2, 2)],
    3: [(1, 1), (1, 2), (2, 2), (1, 3), (2, 6), (3, 3), (1, 9), (3, 9), (6, 18)],
}


@pytest.mark.parametrize("p", [2, 3])
def test_engine_vs_naive_pairs_hyperbolic(p):
    M = hyperbolic_lattice(4, 1, p)
    for (a, b) in PAIR_SOURCES[p]:
        L = diagonal_lattice([a, b], p)
        for d in (1, 2):
            for conv in ("A", "B"):
                got = count_reps(M, L, d, convention=conv)
                want = literal_count(M, L, d, convention=conv)
                assert got == want, (p, a, b, d, conv)


def test_engine_vs_naive_pairs_hyperbolic_deeper():
    # deeper precision at p=2 exercises the pair tables hard
    M = hyperbolic_lattice(4, 1, 2)
    for (a, b) in [(1, 4), (3, 4), (2, 8), (1, 8)]:
        L = diagonal_lattice([a, b], 2)
        got = count_reps(M, L, 3)
        want = literal_count(M, L, 3)
        assert got == want, (a, b)
    M6 = hyperbolic_lattice(6, 1, 2)
    L = diagonal_lattice([3, 4], 2)
    assert count_reps(M6, L, 2) == literal_count(M6, L, 2)


@pytest.mark.parametrize("p", [2, 3])
def test_engine_vs_naive_pairs_twisted(p):
    # non-self-dual target <w> + H2; sources carry a unit q-value, as in
    # every in-scope identity
    u = 3 if p == 2 else 2
    for w in (p, 2 * p, p * p):
        M = direct_sum(diagonal_lattice([-w], p), plane_lattice(p))
        for (a, b) in [(1, 1), (1, p), (u, 2 * p), (1, p * p)]:
            L = diagonal_lattice([a, b], p)
            for d in (1, 2):
                got = count_reps(M, L, d)
                want = literal_count(M, L, d)
                assert got == want, (p, w, a, b, d)


def test_pair_nonunit_source_on_twisted_target_unsupported():
    from swb.counting import EngineUnsupported

    M = direct_sum(diagonal_lattice([-3], 3), plane_lattice(3))
    with pytest.raises(EngineUnsupported):
        count_reps(M, diagonal_lattice([3, 6], 3), 1)


def test_conventions_genuinely_distinct():
    # the two dyadic congruence conventions give different finite-depth
    # counts (here 64 vs 65) even though both stabilize to limits that
    # satisfy every verified identity
    M = hyperbolic_lattice(4, 1, 2)
    L = diagonal_lattice([2, 2], 2)
    a = count_reps(M, L, 1, convention="A")
    b = count_reps(M, L, 1, convention="B")
    assert (a, b) == (64, 65)
    assert literal_count(M, L, 1, convention="B") == 65


def test_engine_vs_naive_pairs_twisted_p2_convention_b():
    for w in (2, 4):
        M = direct_sum(diagonal_lattice([-w], 2), plane_lattice(2))
        for (a, b) in [(1, 1), (3, 2), (1, 4)]:
            L = diagonal_lattice([a, b], 2)
            for d in (1, 2):
                got = count_reps(M, L, d, convention="B")
                want = literal_count(M, L, d, convention="B")
                assert got == want, (w, a, b, d)


def test_engine_vs_naive_pairs_negative_disc():
    # eps = -1 targets have a rank-2 unit tail (dense host path)
    M = hyperbolic_lattice(4, -1, 3)
    for (a, b) in [(1, 1), (1, 3), (2, 3), (3, 3), (2, 9)]:
        L = diagonal_lattice([a, b], 3)
        for d in (1, 2):
            got = count_reps(M, L, d)
            want = literal_count(M, L, d)
            assert got == want, (a, b, d)


def test_engine_vs_naive_pairs_dense_host():
    # pure diagonal self-dual target at odd p (no plane to host the rep)
    M = diagonal_lattice([1, -2, 1], 3)
    for (a, b) in [(1, 1), (1, 3), (2, 3), (1, 9)]:
        L = diagonal_lattice([a, b], 3)
        for d in (1, 2):
            got = count_reps(M, L, d)
            want = literal_count(M, L, d)
            assert got == want, (a, b, d)


@pytest.mark.parametrize("p", [2, 3])
def test_engine_vs_naive_triples(p):
    M = hyperbolic_lattice(4, 1, p)
    sources = [(1, 1, 1), (1, 1, p), (1, p, p), (3, 1, 2 * p), (1, 2, p * p)]
    for qs in sources:
        L = diagonal_lattice(list(qs), p)
        for conv in ("A", "B"):
            got = count_reps(M, L, 1, convention=conv)
            want = literal_count(M, L, 1, convention=conv)
            assert got == want, (p, qs, conv)


def test_engine_vs_naive_triples_d2():
    # p=2 at full H4; odd p on a rank-3 self-dual target
    M = hyperbolic_lattice(4, 1, 2)
    for qs in [(1, 1, 2), (1, 2, 4), (3, 2, 4)]:
        L = diagonal_lattice(list(qs), 2)
        got = count_reps(M, L, 2)
        want = literal_count(M, L, 2)
        assert got == want, qs
    M3 = direct_sum(plane_lattice(3), diagonal_lattice([1], 3))
    for qs in [(1, 1, 3), (2, 3, 9)]:
        L = diagonal_lattice(list(qs), 3)
        got = count_reps(M3, L, 2)
        want = literal_count(M3, L, 2)
        assert got == want, qs


def test_engine_vs_naive_triples_h4minus():
    M = hyperbolic_lattice(4, -1, 3)
    for qs in [(1, 1, 3), (2, 3, 3), (1, 2, 9)]:
        L = diagonal_lattice(list(qs), 3)
        got = count_reps(M, L, 1)
        want = literal_count(M, L, 1)
        assert got == want, qs


def brute_count(M, L, d, primitive=False, convention="A"):
    """literal_count over all (M/p^D)^(m n) coordinate tuples at once."""
    p, m, n = M.p, M.rank, L.rank
    D, dq = d + (convention == "B" and p == 2), d
    B = [[rational_mod(x, p, D) * (1 + (i == j)) for j, x in enumerate(r)] for i, r in enumerate(M.gram)]
    want = [[rational_mod(L.gram[k][l], p, dq if k == l else D) for l in range(n)] for k in range(n)]
    count = 0
    for xs in product(product(range(p**D), repeat=m), repeat=n):
        count += (not primitive or any(c % p for c in xs[0])) and all(
            sum(B[i][j] * xs[k][i] * xs[l][j] for i in range(m) for j in range(m)) // (1 + (k == l))
            % p ** (dq if k == l else D) == want[k][l]
            for k in range(n)
            for l in range(k + 1)
        )
    return count // p ** ((D - d) * (n * m - n * (n - 1) // 2))


def _three_blocks(p):
    """<-3> + H + <p>, and the same lattice with the plane spread over
    coordinates 0 and 3 and its basis sheared: no block record is left, so
    the components are read off the Gram pattern."""
    M = direct_sum(diagonal_lattice([-3], p), plane_lattice(p))
    M = direct_sum(M, diagonal_lattice([p], p))
    U = [[0, 1, 0, 0], [1, 0, 0, 1], [0, 0, 0, 1], [0, 0, 1, 0]]
    return M, change_of_basis(M, U)


@pytest.mark.parametrize("p", [2, 3])
def test_literal_count_matches_brute_force(p):
    # D <= 2: rank 1 with and without primitivity under A and B, pairs at
    # D = 1 (and D = 2 at p = 2), the pair (2, 2), whose A and B counts
    # differ at p = 2, and a dyadic triple
    for M in _three_blocks(p):
        assert len(components(M)) == 3
        depths = [(1, "A"), (1, "B"), (2, "A")]
        cases = [(d, conv, [a]) for d, conv in depths for a in (1, 3, p, 2 * p**2)]
        cases += [(1, "A", [1, p]), (1, "A", [3, 2 * p]), (1, "B", [2, 2])]
        cases += [(1, "A", [1, 1, p]), (2, "A", [1, p])] if p == 2 else []
        for d, conv, vals in cases:
            L = diagonal_lattice(vals, p)
            for prim in (False, True)[: 1 + (L.rank == 1)]:
                got = literal_count(M, L, d, primitive=prim, convention=conv)
                assert got == brute_count(M, L, d, primitive=prim, convention=conv), (vals, d, conv)


@pytest.mark.parametrize("w", [1, 3, 5, 7, 2, 6])
def test_engine_vs_literal_pairs_twisted_p2_deep(w):
    # <-w> + H2 at p = 2: the pair tables, transvected first vectors and the
    # residual fold, one and two levels past the d <= 2 checks above
    M = direct_sum(diagonal_lattice([-w], 2), hyperbolic_lattice(4, 1, 2))
    for (a, b) in [(1, 2), (3, 2), (1, 4)]:
        L = diagonal_lattice([a, b], 2)
        for d in (3, 4) if w in (3, 2) else (3,):
            for conv in ("A", "B"):
                got = count_reps(M, L, d, convention=conv)
                assert got == literal_count(M, L, d, convention=conv), (w, a, b, d, conv)


def test_engine_vs_literal_triples_deep():
    M = hyperbolic_lattice(4, 1, 2)
    for qs in [(1, 1, 2), (1, 2, 4), (3, 2, 4), (1, 3, 2)]:
        L = diagonal_lattice(list(qs), 2)
        for d, conv in [(2, "A"), (2, "B"), (3, "A")]:
            got = count_reps(M, L, d, convention=conv)
            assert got == literal_count(M, L, d, convention=conv), (qs, d, conv)


def test_engine_vs_literal_pairs_h3_deep():
    M = hyperbolic_lattice(6, 1, 2)
    for (a, b) in PAIR_SOURCES[2]:
        L = diagonal_lattice([a, b], 2)
        for conv in ("A", "B"):
            got = count_reps(M, L, 3, convention=conv)
            assert got == literal_count(M, L, 3, convention=conv), (a, b, conv)


def test_engine_vs_literal_pairs_p3_deep():
    H2 = hyperbolic_lattice(4, 1, 3)
    twisted = direct_sum(diagonal_lattice([-3], 3), H2)
    for M, sources in [(H2, PAIR_SOURCES[3]), (twisted, [(1, 1), (1, 3), (2, 6), (1, 9), (2, 2)])]:
        for (a, b) in sources:
            L = diagonal_lattice([a, b], 3)
            assert count_reps(M, L, 3) == literal_count(M, L, 3), (M, a, b)


@pytest.mark.parametrize("p, d_max", [(3, 3), (5, 2)])
def test_engine_vs_literal_pairs_nonunit_first_value(p, d_max):
    # sources whose first value is not a unit, in both orders: the engine
    # stratifies the value of least valuation, whichever comes first
    sources = [(p, 1), (p * p, 2), (p * p, p**3), (2 * p, p * p)]
    # both values vanish mod p^d: the strata of the first run over every
    # square class of each content
    vanishing = sources + [(p**3, p**3), (p**3, 2 * p**4)]
    targets = [
        (hyperbolic_lattice(4, 1, p), vanishing),
        (hyperbolic_lattice(4, -1, p), vanishing),
        (diagonal_lattice([1, -2, 1], p), sources),
        # <-p> + H needs a unit value in the source
        (direct_sum(diagonal_lattice([-p], p), plane_lattice(p)), sources[:2]),
    ]
    for M, pairs in targets:
        for a, b in pairs:
            for d in range(1, d_max + 1):
                want = literal_count(M, diagonal_lattice([a, b], p), d)
                for L in (diagonal_lattice([a, b], p), diagonal_lattice([b, a], p)):
                    assert count_reps(M, L, d) == want, (M, a, b, d)


@pytest.mark.parametrize("p", [3, 5])
def test_pair_count_odd_ignores_source_order(p):
    # both orders of a source stratify the same value, so they agree in
    # the count and in the budget units spent
    sources = [(p**6, 1), (p**5, 2), (2 * p**5, p**6), (p**3, 2 * p**3), (p, 2 * p**4)]
    targets = [
        (hyperbolic_lattice(4, 1, p), sources),
        (hyperbolic_lattice(4, -1, p), sources),
        (diagonal_lattice([1, -2, 1], p), sources),
        (direct_sum(diagonal_lattice([-p], p), plane_lattice(p)), sources[:2]),
    ]
    for M, pairs in targets:
        for a, b in pairs:
            for d in (4, 8, 12):
                runs = []
                for L in (diagonal_lattice([a, b], p), diagonal_lattice([b, a], p)):
                    budget = Budget()
                    runs.append((count_reps(M, L, d, budget=budget), budget.used))
                assert runs[0] == runs[1], (M, a, b, d, runs)


def test_isometry_invariance_of_counts():
    # counts only depend on the isometry class of the source
    import tests.test_lattice as tl

    rng = random.Random(21)
    M = hyperbolic_lattice(4, 1, 3)
    for _ in range(20):
        vals = [Fraction(rng.choice([1, 2, 3, 6])) for _ in range(2)]
        L0 = diagonal_lattice(vals, 3)
        from swb.lattice import change_of_basis

        L1 = change_of_basis(L0, tl.random_unimodular(rng, 2))
        assert count_reps(M, L0, 2) == count_reps(M, L1, 2)


@pytest.mark.parametrize("p", [3, 5])
def test_sheared_target_counts_like_its_blocks(p):
    # the sheared <-3> + H + <p> has no block record, so count_reps reads
    # its Jordan split (_engine_target), a diagonal target, not planes
    M, sheared = _three_blocks(p)
    assert sheared.blocks is None
    for vals in ([1], [p], [1, 3], [1, p]):
        L = diagonal_lattice(vals, p)
        for d in (1, 2, 3):
            assert count_reps(sheared, L, d) == count_reps(M, L, d), (vals, d)


def test_budget_exceeded():
    M = hyperbolic_lattice(6, 1, 5)
    L = diagonal_lattice([1, 5], 5)
    with pytest.raises(BudgetExceeded):
        count_reps(M, L, 4, budget=Budget(limit=10))


def test_unsupported_shapes():
    M = hyperbolic_lattice(4, 1, 2)
    with pytest.raises(EngineUnsupported):
        count_reps(M, diagonal_lattice([1, 1, 1, 1], 2), 1)
    with pytest.raises(EngineUnsupported):
        count_reps(M, diagonal_lattice([2, 2, 2], 2), 1)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("vals", [[0, 1], [1, 0], [0]])
def test_degenerate_diagonal_source_rejected(p, vals):
    # a diagonal source is degenerate exactly when one entry is 0
    with pytest.raises(ValueError, match="degenerate source"):
        count_reps(hyperbolic_lattice(4, 1, p), diagonal_lattice(vals, p), 2)
