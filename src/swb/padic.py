"""p-adic valuations, quadratic residue and Hilbert symbols, the small
integer-arithmetic helpers (factorization, divisors, Moebius, totients) used
throughout the package, and `Frozen`, the base of its immutable value types.

All inputs are ints or Fractions; all outputs are exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

INFINITY = math.inf  # valuation of 0


class Frozen:
    """Base of the immutable value types that caches share between callers.

    Assigning or deleting an attribute raises AttributeError; a subclass's
    constructor sets each slot once with object.__setattr__.  Pickling
    calls the constructor again on the slot values, so a subclass's
    __slots__ must list its constructor's arguments in order.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, s) for s in self.__slots__)


def _check_prime(p):
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"not a prime: {p!r}")
    if not is_prime(p):
        raise ValueError(f"not a prime: {p}")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division, as {p: exponent}."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for q in (f, f + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_divisors(n: int) -> list[int]:
    return sorted(factorize(n))


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1 in ascending order, built from its
    factorization."""
    if n < 1:
        raise ValueError("divisors needs n >= 1")
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    out = n
    for p in factorize(n) if n > 1 else []:
        out = out // p * (p - 1)
    return out


def psi_index(n: int) -> int:
    """Index of the level-n congruence subgroup: n * prod_{p|n} (1 + 1/p)."""
    if n < 1:
        raise ValueError("psi_index needs n >= 1")
    out = n
    for p in factorize(n) if n > 1 else []:
        out = out // p * (p + 1)
    return out


def squarefree_part(n: int) -> int:
    """The squarefree integer m with n = m * (square), keeping the sign."""
    if n == 0:
        raise ValueError("squarefree_part of 0")
    m = 1 if n > 0 else -1
    for p, e in factorize(n).items():
        if e % 2:
            m *= p
    return m


def valuation(x, p: int):
    """Largest e with p^e dividing x (negative for denominators); inf at 0."""
    _check_prime(p)
    if type(x) is int:  # most callers pass ints; Fraction(int) is not free
        num, den = x, 1
    else:
        x = Fraction(x)
        num, den = x.numerator, x.denominator
    if num == 0:
        return INFINITY
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def rational_mod(x, p: int, e: int) -> int:
    """Reduce a p-integral rational mod p^e (denominator must be a p-unit)."""
    x = Fraction(x)
    m = p**e
    if m == 1:
        return 0
    if x.denominator % p == 0:
        raise ValueError(f"{x} is not p-integral at p={p}")
    return x.numerator * pow(x.denominator, -1, m) % m


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p, with value 0 when p | a."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else 1


def quad_residue_symbol(u, p: int) -> int:
    """Extended quadratic residue symbol on Q_p^x for odd p.

    +1 on squares times even powers of p, -1 on nonsquare-unit classes with
    even valuation, 0 when the valuation is odd.
    """
    _check_prime(p)
    if p == 2:
        raise ValueError("quad_residue_symbol is only defined for odd p")
    u = Fraction(u)
    if u == 0:
        raise ValueError("quad_residue_symbol of 0")
    v, s = square_class(u, p)
    return 0 if v % 2 else s


def square_class(x, p: int) -> tuple:
    """(valuation, unit square class) of a nonzero rational at p: the unit
    class is the Legendre symbol at odd p and the unit mod 8 at p = 2."""
    v = valuation(x, p)
    u = Fraction(x) / Fraction(p) ** v
    return v, rational_mod(u, 2, 3) if p == 2 else legendre(rational_mod(u, p, 1), p)


def hilbert_symbol(a, b, v) -> int:
    """Hilbert symbol (a, b)_v for v a prime or the archimedean place.

    Pass v = "inf" (or math.inf) for the real place, where the symbol is -1
    exactly when both arguments are negative.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert_symbol needs nonzero arguments")
    if v in ("inf", INFINITY):
        return -1 if (a < 0 and b < 0) else 1
    p = v
    _check_prime(p)
    alpha, u = square_class(a, p)
    beta, w = square_class(b, p)
    if p != 2:
        sign = 1
        if (alpha * beta) % 2 and (p - 1) // 2 % 2:
            sign = -sign
        if beta % 2 and u == -1:
            sign = -sign
        if alpha % 2 and w == -1:
            sign = -sign
        return sign
    # p = 2: standard formula via the unit invariants eps(u) = (u-1)/2,
    # omega(u) = (u^2-1)/8 mod 2 of the units u, w mod 8.
    eps_u = (u - 1) // 2 % 2
    eps_w = (w - 1) // 2 % 2
    om_u = (u * u - 1) // 8 % 2
    om_w = (w * w - 1) // 8 % 2
    exponent = eps_u * eps_w + alpha * om_w + beta * om_u
    return -1 if exponent % 2 else 1


def kronecker_symbol(D: int, p: int) -> int:
    """Kronecker symbol (D/p) at a prime p (p = 2 allowed)."""
    _check_prime(p)
    if p == 2:
        if D % 2 == 0:
            return 0
        return 1 if D % 8 in (1, 7) else -1
    return legendre(D % p, p)


def smallest_nonresidue(p: int) -> int:
    """Smallest positive quadratic nonresidue mod an odd prime."""
    if p == 2:
        raise ValueError("no canonical nonresidue at p=2")
    n = 2
    while legendre(n, p) != -1:
        n += 1
    return n
