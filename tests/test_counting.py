import pickle
import random
from fractions import Fraction

import pytest

from swb.counting import (
    Budget,
    BudgetExceeded,
    ClassHist,
    DenseHist,
    EngineUnsupported,
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
    _plane_hist,
    _rank1_hist,
    _rest_profile,
    _rest_steps_2,
    _square_ratio_inv_2,
    _unit_orbits_2,
    count_reps,
    naive_count_reps,
    res_valuation,
    strata_list,
    target_hist,
    target_key,
    vector_count,
    primitive_vector_count,
)
from swb.lattice import (
    QuadLattice,
    delta_lattice,
    diagonal_lattice,
    direct_sum,
    hyperbolic_lattice,
    plane_lattice,
    twisted_hyperbolic,
    zero_lattice,
)
from swb.padic import smallest_nonresidue


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


def test_target_hist_composite():
    # H4 + <3> at p=3 and p=2, and p=2 targets with two diagonal entries,
    # against literal enumeration
    for p, e, planes, diags in [
        (3, 2, 2, [3]),
        (2, 3, 2, [3]),
        (2, 4, 1, [1, 6]),
        (2, 4, 0, [3, 12]),
    ]:
        h = target_hist(p, e, planes, tuple(Fraction(a) for a in diags))
        ref = dense_hist_of(p, e, planes, diags)
        for c in range(p**e):
            assert h.eval(c) == ref[c], (p, e, planes, diags, c)


def test_strata_partition():
    # strata weights sum to the full histogram value
    p, D = 3, 3
    for c in range(p**D):
        total = sum(
            primitive_vector_count(p, 1, (), D - j, D - j, g)
            for j, g in strata_list(c, p, D, D)
        )
        if c == 0:
            total += 1  # zero vector
        assert total == vector_count(p, 1, (), D, D, c), c


@pytest.mark.parametrize(
    "planes,diags,units_only",
    [
        (2, (), False),
        (1, (Fraction(1),), False),
        (0, (Fraction(1), Fraction(-2), Fraction(1)), False),
        (2, (Fraction(-27),), True),
    ],
    ids=["H4", "H2+1", "diag", "H4-27"],
)
def test_pair_stratum_charge_counts_strata(planes, diags, units_only, monkeypatch):
    # the "pair stratum" charge is one unit per stratum of the first vector
    # with a nonzero weight, counted here by the constrained hosts built
    # for them; their histograms are charged as "hist conv"
    import swb.counting as counting

    hosts = 0

    def counted(build):
        def wrapper(*args):
            nonlocal hosts
            hosts += 1
            return build(*args)

        return wrapper

    for name in ("_constrained_plane_host", "_constrained_dense_host"):
        monkeypatch.setattr(counting, name, counted(getattr(counting, name)))
    p = 3
    for D in (1, 2, 3):
        for c1 in range(p**D):
            if units_only and c1 % p == 0:
                continue
            budget = _LabelBudget()
            hosts = 0
            _pair_count_odd(p, planes, diags, c1, 1, 0, D, budget)
            assert budget.by_label.get("pair stratum", 0) == hosts, (D, c1)
            assert hosts or c1 % p


def _h_rest_dense(r, D, dq):
    """#{y in H^(r-1)/2^D: q(y) = c mod 2^dq} at every residue c, expanded
    from the class histogram of H^(r-1) mod 2^dq."""
    h = target_hist(2, dq, r - 1, ())
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
    # the "p=2 dense fold" charge is the number of (beta, delta) cells the
    # fold hands to the per-alpha plans, counted here as they are read,
    # plus the row reads of the transvected first vectors, counted on the
    # rows, plus the two scans of the 2^D <w>-coordinates: x0, counted by
    # the orbit sizes, and y0, one beta per y0; dq = D is convention A and
    # dq = D - 1 convention B
    import swb.counting as counting

    plan_count = counting._plan_count_2
    plan_rows = counting._plan_rows_2
    unit_orbits = counting._unit_orbits_2
    cells = scanned = 0
    in_fold = False

    def counting_plan_count(plan, planes, alpha, it, D, dq, budget):
        nonlocal cells, in_fold
        it = list(it)
        cells += len(it)
        in_fold = True
        try:
            return plan_count(plan, planes, alpha, it, D, dq, budget)
        finally:
            in_fold = False

    class CountingRow(tuple):
        def __getitem__(self, i):
            nonlocal cells
            cells += 1
            return tuple.__getitem__(self, i)

    def counting_plan_rows(plan, r, v, D, dq, budget):
        rows = plan_rows(plan, r, v, D, dq, budget)
        if in_fold:
            return rows
        return tuple((W, CountingRow(row), s) for W, row, s in rows)

    def counting_unit_orbits(D, dq):
        nonlocal scanned
        orbits = unit_orbits(D, dq)
        scanned += sum(n for _, n in orbits)
        return orbits

    monkeypatch.setattr(counting, "_plan_count_2", counting_plan_count)
    monkeypatch.setattr(counting, "_plan_rows_2", counting_plan_rows)
    monkeypatch.setattr(counting, "_unit_orbits_2", counting_unit_orbits)
    for dq in (D, D - 1):
        if dq < 1:
            continue
        for w, c1, c2, b in [(1, 1, 2, 0), (3, 2, 1, 1), (2, 3, 3, 2), (1, 0, 0, 0), (5, 4, 1, 0)]:
            budget = _LabelBudget()
            cells = scanned = 0
            _pair_count_2(r, (Fraction(w),), c1, c2, b, D, dq, budget)
            assert budget.by_label["p=2 dense fold"] == cells + scanned + 2**D, (dq, w, c1, c2, b)
            assert cells <= 4**D


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
            plan = _pair_plan_2(r, alpha, D, dq, 0, Budget())
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
    for x0, n in _unit_orbits_2(D, dq):
        alpha = (c1 - w * x0 * x0) % mq
        plan = plans.get(alpha)
        if plan is None:
            plan = plans[alpha] = _pair_plan_2(r, alpha, D, dq, 0, budget)
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
    plan = _pair_plan_2(2, 1, 3, 3, 0, Budget())
    for W, row, s in _plan_rows_2(plan, 2, 3, 3, 3, Budget()):
        with pytest.raises(TypeError):
            row[0] = 1


def test_pair_table_2_rejects_non_invariant_histogram(monkeypatch):
    # a pair-table read over H^2 takes its H^(r-1) steps from the class
    # values of H; values that differ within one valuation are rejected
    import swb.counting as counting

    real = counting.target_hist

    def fake(p, e, planes, diags, budget=None):
        if planes:
            return ClassHist(p, e, range(4 * e + 1))
        return real(p, e, planes, diags, budget)

    _reset_row_caches(monkeypatch)
    monkeypatch.setattr(counting, "target_hist", fake)
    with pytest.raises(AssertionError, match="unit invariant"):
        _hyperbolic_pair_count_2(2, 1, 1, 0, 3, 3, Budget())


@pytest.mark.parametrize("slot", [0, 1, 2, 3, 4, 5])
def test_pair_table_2_rejects_corrupted_class_values(slot, monkeypatch):
    # unit classes 0-3 of valuation 0 and 4-5 of valuation 1 are the
    # non-empty ones mod 8; corrupting any one breaks unit invariance
    import swb.counting as counting

    _reset_row_caches(monkeypatch)
    vals = list(target_hist(2, 3, 1, ()).vals)
    vals[slot] += 1
    # the cached histogram is immutable, so a corrupted copy is substituted
    monkeypatch.setattr(counting, "_HIST_CACHE", {target_key(2, 3, 1, ()): ClassHist(2, 3, vals)})
    with pytest.raises(AssertionError, match="unit invariant"):
        _hyperbolic_pair_count_2(2, 1, 1, 0, 3, 3, Budget())


def test_cached_class_hist_is_immutable():
    h = target_hist(3, 2, 1, (Fraction(2),))
    with pytest.raises(TypeError):
        h.vals[0] += 1
    for name in ("p", "e", "vals"):
        with pytest.raises(AttributeError):
            setattr(h, name, getattr(h, name))
        with pytest.raises(AttributeError):
            delattr(h, name)
    assert target_hist(3, 2, 1, (Fraction(2),)) is h
    assert pickle.loads(pickle.dumps(h)).vals == h.vals


def _valuation_sizes(p, e):
    """Number of residues mod p^e of each valuation v = 0, ..., e."""
    return [(p - 1) * p ** (e - v - 1) for v in range(e)] + [1]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_planes_counts_match_plane_convolution(p):
    # G[v] against every non-empty class value of the convolved histogram:
    # the histogram of H^P depends on the valuation of the residue only
    for e in range(1, 7):
        for P in range(1, 7):
            G = _planes_counts(p, e, P)
            h = target_hist(p, e, P, ())
            for i, rep, _ in _classes(p, e):
                assert G[i // 4] == h.vals[i], (e, P, rep)
            assert sum(G[v] * n for v, n in enumerate(_valuation_sizes(p, e))) == p ** (2 * P * e)


def _vector_count_oracle(p, planes, diags, e_var, e_q, c, budget):
    """#{x in M/p^e_var: q(x) = c mod p^e_q} by the convolved histogram of
    the whole target, the route vector_count takes without planes."""
    m = 2 * planes + len(diags)
    return p ** (m * (e_var - e_q)) * target_hist(p, e_q, planes, diags, budget).eval(c)


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


@pytest.mark.parametrize("p", [2, 3])
def test_rest_profile_counts_literally(p):
    # prof[v] = #{z in R/p^e: v(c - q(z)) = v} by enumerating R
    for diags in [(), (1,), (p, 3), (1, 2, p * p)]:
        for e in range(1, 4):
            m = p**e
            qs = [0]
            for a in diags:
                qs = [s + a * z * z for s in qs for z in range(m)]
            for c in range(m):
                want = [0] * (e + 1)
                for s in qs:
                    want[res_valuation(c - s, p, e)] += 1
                got = _rest_profile(p, e, tuple(Fraction(a) for a in diags), c)
                assert list(got) == want, (diags, e, c)


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


def test_rest_steps_2_match_enumeration_and_charge_every_call(monkeypatch):
    # a_0 + ... + a_v(c) against the literal histogram of H^(r-1), and the
    # charges: the histogram, and one "dense histogram" unit per class
    # value read, counted here on the histogram, on every call
    import swb.counting as counting

    reads = 0

    class CountingVals(tuple):
        def __getitem__(self, i):
            nonlocal reads
            reads += 1
            return tuple.__getitem__(self, i)

    class CountingHist:
        def __init__(self, h):
            self.vals = CountingVals(h.vals)

    real = counting.target_hist
    monkeypatch.setattr(
        counting, "target_hist", lambda *args: CountingHist(real(*args))
    )
    for r in (1, 2, 3):
        for dq in (1, 2, 3, 4):
            ref = dense_hist_of(2, dq, r - 1, [])
            for D in (dq, dq + 1):
                first, second = _LabelBudget(), _LabelBudget()
                reads = 0
                steps = _rest_steps_2(r, D, dq, first)
                want = {"hist conv": 4 * dq * dq * (r - 1), "dense histogram": reads}
                got = [sum(steps[: res_valuation(c, 2, dq) + 1]) for c in range(2**dq)]
                assert got == [2 ** ((2 * r - 2) * (D - dq)) * x for x in ref], (r, D, dq)
                reads = 0
                assert _rest_steps_2(r, D, dq, second) == steps
                assert want["dense histogram"] == reads
                assert first.by_label == second.by_label == want


def test_jordan_values_2x2_memo_matches_jordan_form(monkeypatch):
    import swb.counting as counting

    monkeypatch.setattr(counting, "_JORDAN_CACHE", {})
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
                want = tuple(u * Fraction(p) ** e for u, e in jordan_form(L))
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
            want = naive_count_reps(M, L, d, convention=conv)
            assert got == want, (p, name, a, d, conv)


@pytest.mark.parametrize("p,name,M,a", [c for c in ENGINE_CASES_N1 if c[1] == "H4"])
def test_engine_vs_naive_rank1_primitive(p, name, M, a):
    L = diagonal_lattice([a], p)
    for d in (1, 2):
        got = count_reps(M, L, d, primitive=True)
        want = naive_count_reps(M, L, d, primitive=True)
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
                want = naive_count_reps(M, L, d, convention=conv)
                assert got == want, (p, a, b, d, conv)


def test_engine_vs_naive_pairs_hyperbolic_deeper():
    # deeper precision at p=2 exercises the pair tables hard; the naive
    # reference is only affordable for convention A at d=3
    M = hyperbolic_lattice(4, 1, 2)
    for (a, b) in [(1, 4), (3, 4), (2, 8), (1, 8)]:
        L = diagonal_lattice([a, b], 2)
        got = count_reps(M, L, 3)
        want = naive_count_reps(M, L, 3)
        assert got == want, (a, b)
    M6 = hyperbolic_lattice(6, 1, 2)
    L = diagonal_lattice([3, 4], 2)
    assert count_reps(M6, L, 2) == naive_count_reps(M6, L, 2)


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
                want = naive_count_reps(M, L, d)
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
    assert naive_count_reps(M, L, 1, convention="B") == 65


def test_engine_vs_naive_pairs_twisted_p2_convention_b():
    for w in (2, 4):
        M = direct_sum(diagonal_lattice([-w], 2), plane_lattice(2))
        for (a, b) in [(1, 1), (3, 2), (1, 4)]:
            L = diagonal_lattice([a, b], 2)
            for d in (1, 2):
                got = count_reps(M, L, d, convention="B")
                want = naive_count_reps(M, L, d, convention="B")
                assert got == want, (w, a, b, d)


def test_engine_vs_naive_pairs_negative_disc():
    # eps = -1 targets have a rank-2 unit tail (dense host path)
    M = hyperbolic_lattice(4, -1, 3)
    for (a, b) in [(1, 1), (1, 3), (2, 3), (3, 3), (2, 9)]:
        L = diagonal_lattice([a, b], 3)
        for d in (1, 2):
            got = count_reps(M, L, d)
            want = naive_count_reps(M, L, d)
            assert got == want, (a, b, d)


def test_engine_vs_naive_pairs_dense_host():
    # pure diagonal self-dual target at odd p (no plane to host the rep)
    M = diagonal_lattice([1, -2, 1], 3)
    for (a, b) in [(1, 1), (1, 3), (2, 3), (1, 9)]:
        L = diagonal_lattice([a, b], 3)
        for d in (1, 2):
            got = count_reps(M, L, d)
            want = naive_count_reps(M, L, d)
            assert got == want, (a, b, d)


@pytest.mark.parametrize("p", [2, 3])
def test_engine_vs_naive_triples(p):
    M = hyperbolic_lattice(4, 1, p)
    sources = [(1, 1, 1), (1, 1, p), (1, p, p), (3, 1, 2 * p), (1, 2, p * p)]
    for qs in sources:
        L = diagonal_lattice(list(qs), p)
        for conv in ("A", "B"):
            got = count_reps(M, L, 1, convention=conv)
            want = naive_count_reps(M, L, 1, convention=conv)
            assert got == want, (p, qs, conv)


def test_engine_vs_naive_triples_d2():
    # p=2 at full H4; odd p on a rank-3 self-dual target to keep the
    # literal enumeration affordable
    M = hyperbolic_lattice(4, 1, 2)
    for qs in [(1, 1, 2), (1, 2, 4), (3, 2, 4)]:
        L = diagonal_lattice(list(qs), 2)
        got = count_reps(M, L, 2)
        want = naive_count_reps(M, L, 2)
        assert got == want, qs
    M3 = direct_sum(plane_lattice(3), diagonal_lattice([1], 3))
    for qs in [(1, 1, 3), (2, 3, 9)]:
        L = diagonal_lattice(list(qs), 3)
        got = count_reps(M3, L, 2)
        want = naive_count_reps(M3, L, 2)
        assert got == want, qs


def test_engine_vs_naive_triples_h4minus():
    M = hyperbolic_lattice(4, -1, 3)
    for qs in [(1, 1, 3), (2, 3, 3), (1, 2, 9)]:
        L = diagonal_lattice(list(qs), 3)
        got = count_reps(M, L, 1)
        want = naive_count_reps(M, L, 1)
        assert got == want, qs


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
