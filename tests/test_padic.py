import random
from fractions import Fraction

import pytest

from swb.padic import (
    INFINITY,
    divisors,
    euler_phi,
    factorize,
    hilbert_symbol,
    kronecker_symbol,
    psi_index,
    quad_residue_symbol,
    smallest_nonresidue,
    squarefree_part,
    valuation,
)


def test_valuation_basics():
    assert valuation(12, 2) == 2
    assert valuation(0, 5) == INFINITY
    assert valuation(Fraction(9, 2), 3) == 2
    assert valuation(Fraction(9, 2), 2) == -1
    assert valuation(Fraction(-45, 7), 3) == 2


def test_valuation_additive():
    rng = random.Random(7)
    for _ in range(200):
        x = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
        y = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
        for p in (2, 3, 5, 7):
            assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)


def test_quad_residue_symbol():
    # 2 is a nonresidue mod 3: exhaustive squares mod 3 are {0, 1}
    assert {x * x % 3 for x in range(3)} == {0, 1}
    assert quad_residue_symbol(2, 3) == -1
    assert quad_residue_symbol(4, 5) == 1
    assert quad_residue_symbol(3, 3) == 0
    # 9/2 = 3^2 * (1/2) and 1/2 = 2 mod 3 is a nonresidue
    assert quad_residue_symbol(Fraction(9, 2), 3) == -1
    assert quad_residue_symbol(Fraction(9, 4), 3) == 1
    with pytest.raises(ValueError):
        quad_residue_symbol(3, 2)


def _hilbert_oracle_odd(a, b, p, k=4):
    """Brute-force solvability of z^2 = a x^2 + b y^2 mod p^k, up to scaling."""
    m = p**k
    # scale away denominators: symbol is invariant under square scaling
    a = Fraction(a)
    b = Fraction(b)
    a = a * a.denominator**2
    b = b * b.denominator**2
    an, bn = int(a), int(b)
    for x in range(m):
        for y in range(m):
            z2 = (an * x * x + bn * y * y) % m
            if z2 == 0 and (x % p == 0 and y % p == 0):
                continue
            r = _sqrt_mod_pk(z2, p, k)
            if r is not None and (x % p or y % p or r % p):
                return 1
    return -1


def _sqrt_mod_pk(c, p, k):
    m = p**k
    for z in range(m):
        if z * z % m == c % m:
            return z
    return None


def test_hilbert_symbol_examples():
    assert hilbert_symbol(1, 7, 5) == 1
    assert hilbert_symbol(-1, -1, "inf") == -1
    assert hilbert_symbol(2, 5, "inf") == 1
    # (2,3)_3 = -1, against the solvability oracle
    assert hilbert_symbol(2, 3, 3) == -1
    assert _hilbert_oracle_odd(2, 3, 3, k=2) == -1


def test_hilbert_symbol_against_small_oracle():
    for p in (3, 5):
        for a in (1, 2, 3, p, 2 * p, -1, -p):
            for b in (1, 2, 5, p, 3 * p, -2):
                assert hilbert_symbol(a, b, p) == _hilbert_oracle_odd(a, b, p, k=2), (a, b, p)


def _hilbert_oracle_2(a, b, k=6):
    """Primitive solvability of z^2 = a x^2 + b y^2 mod 2^k."""
    m = 2**k
    for x in range(m):
        for y in range(m):
            rhs = (a * x * x + b * y * y) % m
            for z in range(m):
                if z * z % m == rhs and (x % 2 or y % 2 or z % 2):
                    return 1
    return -1


def test_hilbert_symbol_dyadic_oracle():
    # the closed unit-class formula against the solvability search
    for a in (1, 3, 5, 7, 2, 6, -1, -2):
        for b in (1, 3, 5, 2, 10, -1):
            assert hilbert_symbol(a, b, 2) == _hilbert_oracle_2(a, b, k=6), (a, b)


def test_hilbert_symbol_bimultiplicative():
    reps = {2: [1, 3, 5, 7, 2, 6, 10, 14], 3: [1, 2, 3, 6], 5: [1, 2, 5, 10], "inf": [1, -1, 2, -2]}
    for v, rs in reps.items():
        for a in rs:
            for b in rs:
                for c in rs:
                    lhs = hilbert_symbol(a, b * c, v)
                    rhs = hilbert_symbol(a, b, v) * hilbert_symbol(a, c, v)
                    assert lhs == rhs, (a, b, c, v)
                assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)


def test_hilbert_product_formula():
    rng = random.Random(11)
    for _ in range(100):
        a = Fraction(rng.randint(-60, 60) or 1, rng.randint(1, 30))
        b = Fraction(rng.randint(-60, 60) or 1, rng.randint(1, 30))
        places = {2}
        for x in (a, b):
            places |= set(factorize(x.numerator)) | set(factorize(x.denominator))
        prod = hilbert_symbol(a, b, "inf")
        for p in places:
            prod *= hilbert_symbol(a, b, p)
        assert prod == 1, (a, b)


def test_divisors_against_trial_division():
    for n in range(1, 2001):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n
    with pytest.raises(ValueError):
        divisors(0)


def test_arith_helpers():
    assert factorize(12) == {2: 2, 3: 1}
    assert euler_phi(12) == 4
    assert psi_index(1) == 1 and psi_index(2) == 3 and psi_index(12) == 24
    assert squarefree_part(-12) == -3
    assert smallest_nonresidue(5) == 2
    assert kronecker_symbol(-3, 2) == -1  # -3 = 5 mod 8
    assert kronecker_symbol(-7, 2) == 1  # -7 = 1 mod 8
    assert kronecker_symbol(-4, 3) == -1
    assert kronecker_symbol(-4, 2) == 0
