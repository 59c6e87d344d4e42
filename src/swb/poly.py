"""Dense polynomials and rational functions in one variable X over Q.

The variable X always stands for a quantity like p^(-s) or p^(-k); all
coefficient arithmetic is exact Fractions.  Rational functions are kept
reduced with a monic denominator, so structural equality is semantic
equality.
"""

from __future__ import annotations

from fractions import Fraction

from swb.padic import Frozen


def _trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


class Poly(Frozen):
    """Polynomial with Fraction coefficients, c[0] + c[1]X + ...

    Immutable: one cached density polynomial serves a whole isometry class.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        # Fraction(Fraction) is not free, and most coefficients already are one
        c = tuple(_trim(x if type(x) is Fraction else Fraction(x) for x in coeffs))
        object.__setattr__(self, "c", c)

    @classmethod
    def const(cls, x):
        return cls([Fraction(x)])

    @classmethod
    def X(cls):
        return cls([0, 1])

    @classmethod
    def monomial(cls, coeff, exp):
        return cls([0] * exp + [Fraction(coeff)])

    def degree(self):
        return len(self.c) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.c

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.c == other.c
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.c)

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.c), len(other.c))
        a = list(self.c) + [Fraction(0)] * (n - len(self.c))
        for i, x in enumerate(other.c):
            a[i] += x
        return Poly(a)

    def __neg__(self):
        return Poly([-x for x in self.c])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        if not self.c or not other.c:
            return Poly()
        out = [Fraction(0)] * (len(self.c) + len(other.c) - 1)
        for i, x in enumerate(self.c):
            if not x:
                continue
            for j, y in enumerate(other.c):
                out[i + j] += x * y
        return Poly(out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        raise TypeError(f"cannot combine Poly with {type(other)!r}")

    def __call__(self, x):
        out = Fraction(0)
        for c in reversed(self.c):
            out = out * x + c
        return out

    def derivative(self):
        return Poly([i * c for i, c in enumerate(self.c)][1:])

    def scaled(self, a):
        """P(a X)."""
        return Poly([c * a**i for i, c in enumerate(self.c)])

    def inverted(self, a, d: int):
        """X^d P(a / X), for d at least the degree."""
        out = [Fraction(0)] * (d + 1)
        for i, c in enumerate(self.c):
            out[d - i] = c * a**i
        return Poly(out)

    def divmod(self, other):
        if not other.c:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, len(self.c) - len(other.c) + 1)
        r = list(self.c)
        d = other.degree()
        lead = other.c[-1]
        while len(r) - 1 >= d and any(r):
            if r[-1] == 0:
                r.pop()
                continue
            k = len(r) - 1 - d
            f = r[-1] / lead
            q[k] = f
            for i, x in enumerate(other.c):
                r[k + i] -= f * x
            r.pop()
        return Poly(q), Poly(r)

    def __str__(self):
        if not self.c:
            return "0"
        parts = []
        for i, c in enumerate(self.c):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                xs = "X" if i == 1 else f"X^{i}"
                if c == 1:
                    parts.append(xs)
                elif c == -1:
                    parts.append(f"-{xs}")
                else:
                    parts.append(f"{c}*{xs}")
        out = parts[0]
        for t in parts[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    __repr__ = __str__


def poly_gcd(a: Poly, b: Poly) -> Poly:
    if len(a.c) == 1 or len(b.c) == 1:  # a nonzero constant divides everything
        return Poly.const(1)
    while b.c:
        a, b = b, a.divmod(b)[1]
    if a.c:
        a = Poly([x / a.c[-1] for x in a.c])  # monic
    return a


class RationalFunction(Frozen):
    """Reduced ratio of polynomials; the denominator is monic and nonzero.

    Immutable like Poly: one cached g_p function serves every (t, N) of
    its p-adic class.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = num if isinstance(num, Poly) else Poly.const(num)
        den = Poly.const(1) if den is None else (den if isinstance(den, Poly) else Poly.const(den))
        if not den.c:
            raise ZeroDivisionError("zero denominator")
        g = poly_gcd(num, den)
        if g.degree() > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        lead = den.c[-1]
        if lead != 1:
            num = Poly([x / lead for x in num.c])
            den = Poly([x / lead for x in den.c])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def X(cls):
        return cls(Poly.X())

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _coerce_rf(other) - self

    def __rtruediv__(self, other):
        return _coerce_rf(other) / self

    def __call__(self, x):
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num(x) / d

    def derivative_at(self, x):
        """The derivative at x by the quotient rule, (n' d - n d') / d^2 at
        x, with no rational function built for the derivative."""
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return (self.num.derivative()(x) * d - self.num(x) * self.den.derivative()(x)) / (d * d)

    def substitute(self, a, e: int):
        """Substitute X -> a * X^e with e in {1, -1} and a a nonzero rational."""
        a = Fraction(a)
        if e == 1:
            return RationalFunction(self.num.scaled(a), self.den.scaled(a))
        if e == -1:
            # f(a/X): clear X^deg from both sides.
            d = max(self.num.degree(), self.den.degree(), 0)
            return RationalFunction(self.num.inverted(a, d), self.den.inverted(a, d))
        raise ValueError("exponent must be 1 or -1")

    def __str__(self):
        if self.den == Poly.const(1):
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__


def _coerce_rf(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction, Poly)):
        return RationalFunction(x if isinstance(x, Poly) else Poly.const(x))
    return NotImplemented


def lagrange_interpolate(points) -> Poly:
    """Exact interpolation through distinct rational points.

    Newton's divided differences give P = c0 + (X - x0)(c1 + (X - x1)(...)),
    which Horner's rule expands into the monomial basis: O(n^2) scalar
    operations and no polynomial products.
    """
    xs = [Fraction(x) for x, _ in points]
    cs = [Fraction(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            cs[i] = (cs[i] - cs[i - 1]) / (xs[i] - xs[i - j])
    acc = []
    for c, x in zip(reversed(cs), reversed(xs)):
        # acc <- acc * (X - x) + c
        acc = [Fraction(0)] + acc
        for k in range(len(acc) - 1):
            acc[k] -= x * acc[k + 1]
        acc[0] += c
    return Poly(acc)
