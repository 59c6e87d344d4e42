"""Literal oracle for the counting engine's tests.

`literal_count(M, L, d, primitive, convention)` counts what
`swb.counting.count_reps` counts by enumeration alone.  q and (,) add over
an orthogonal sum, so each connected component of the target's Gram
pattern is enumerated once, into a histogram keyed by the tuple's q-values
and pairings, and the components are joined by adding keys.  It uses no
orbit, stratum or class argument and imports only `swb.padic`, so the
engine-vs-literal tests compare two independent routes.

A key lists, vector by vector, q(x_j) mod p^dq and then (x_i, x_j) mod p^D
for i < j, so the keys of (n-1)-tuples are prefixes of n-tuple keys.
"""

import functools
import operator
from collections import Counter
from itertools import product, repeat

from swb.padic import rational_mod


def _key_layout(n):
    """(i, j) per key entry: q(x_j) when i == j, else (x_i, x_j)."""
    return [(i, j) for j in range(n) for i in (j, *range(j))]


def components(M):
    """Index tuples of the connected components of M's off-diagonal Gram pattern."""
    comps = []
    for i in range(M.rank):
        linked = [c for c in comps if any(M.gram[i][j] != 0 for j in c)]
        comps = [c for c in comps if c not in linked] + [tuple(sorted({i}.union(*linked)))]
    return comps


@functools.cache
def _literal_hist(p, grams, n, D, dq, inside_p):
    """Every n-tuple of the orthogonal sum of `grams` mod p^D, counted by key;
    with `inside_p` only the tuples whose coordinates are all 0 mod p."""
    mods = [p**dq if i == j else p**D for i, j in _key_layout(n)]
    out = Counter()
    if not grams:
        return Counter({(0,) * len(mods): 1})
    if len(grams) > 1:  # join by adding keys
        last = _literal_hist(p, grams[-1:], n, D, dq, inside_p)
        for ka, ca in _literal_hist(p, grams[:-1], n, D, dq, inside_p).items():
            for kb, cb in last.items():
                out[tuple(map(operator.mod, map(operator.add, ka, kb), mods))] += ca * cb
        return out
    gram = grams[0]
    k = len(gram)
    g = [[rational_mod(x, p, D) * (1 + (i == j)) for j, x in enumerate(r)] for i, r in enumerate(gram)]
    vecs = [x for x in product(range(p**D), repeat=k) if not (inside_p and any(c % p for c in x))]
    # g is the matrix of (e_i, e_j) and lin[x] the row of (x, e_j), so that
    # q(x) = (x, x) / 2 and pair[x][y] = (x, y) mod p^D
    lin = [[sum(x[i] * g[i][j] for i in range(k)) for j in range(k)] for x in vecs]
    qs = [sum(map(operator.mul, u, x)) // 2 % p**dq for u, x in zip(lin, vecs)]
    pair = [[sum(map(operator.mul, u, y)) % p**D for y in vecs] for u in lin] if n > 1 else None
    for t in product(range(len(vecs)), repeat=n - 1):
        head = tuple(qs[t[i]] if i == j else pair[t[i]][t[j]] for i, j in _key_layout(n - 1))
        out.update(zip(repeat(head), qs, *(pair[i] for i in t)))
    return Counter({head + tuple(tail): c for (head, *tail), c in out.items()})


def literal_count(M, L, d, primitive=False, convention="A"):
    """count_reps(M, L, d, primitive, convention) by literal enumeration: the
    components but the last are joined, and the last is read by lookup.  A
    primitive rank-1 count drops the vectors with every coordinate 0 mod p."""
    p, m, n = M.p, M.rank, L.rank
    assert n == 1 or not primitive
    if d == 0 or n == 0:
        return 1
    # variables and pairings mod p^D, q-values mod p^dq; convention B takes
    # the variables and pairings mod 2^(d+1) at p = 2
    D, dq = d + (convention == "B" and p == 2), d
    mods = [p**dq if i == j else p**D for i, j in _key_layout(n)]
    want = [rational_mod(L.gram[i][j], p, dq if i == j else D) for i, j in _key_layout(n)]
    grams = tuple(tuple(tuple(M.gram[i][j] for j in c) for i in c) for c in components(M))
    count = 0
    for inside_p, sign in [(False, 1)] + [(True, -1)] * primitive:
        last = _literal_hist(p, grams[-1:], n, D, dq, inside_p)
        for key, c in _literal_hist(p, grams[:-1], n, D, dq, inside_p).items():
            count += sign * c * last.get(tuple((w - a) % mod for w, a, mod in zip(want, key, mods)), 0)
    norm = p ** ((D - d) * (n * m - n * (n - 1) // 2))
    assert count % norm == 0
    return count // norm
