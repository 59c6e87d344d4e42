"""Exact linear algebra over a fixed basis of transcendental symbols.

A SymbolicNumber is a rational linear combination of the constants that
appear in the constant-term identities: 1, log p for primes p, log det(y),
and the completed-zeta logarithmic derivative Lambda'(-1)/Lambda(-1).  The
alias Lambda'(2)/Lambda(2) is rewritten as -Lambda'(-1)/Lambda(-1) (from
the reflection Lambda(s) = Lambda(1-s)) at construction time, so only one
Lambda symbol ever appears.

The basis is closed: any unknown symbol name is a hard error rather than a
silent extension, so two sides of an identity can never agree by accident
of bookkeeping.
"""

from __future__ import annotations

from fractions import Fraction

from swb.padic import Frozen, is_prime

ONE = "one"
LOG_DET_Y = "log_det_y"
LAMBDA_RATIO = "LambdaRatio"  # Lambda'(-1)/Lambda(-1)

_LAMBDA_ALIAS = "LambdaRatio2"  # Lambda'(2)/Lambda(2), rewritten on input

_FIXED = (ONE, LOG_DET_Y, LAMBDA_RATIO)


class Symbol:
    """Names of the allowed basis symbols, including log(p) constructors."""

    one = ONE
    log_det_y = LOG_DET_Y
    lambda_ratio = LAMBDA_RATIO

    @staticmethod
    def log_prime(p: int) -> str:
        if not is_prime(p):
            raise ValueError(f"log_prime needs a prime, got {p}")
        return f"log({p})"


def _parse_symbol(name: str):
    """Return (canonical-name, scalar) for an input token; Lambda alias folds."""
    if name in _FIXED:
        return name, 1
    if name == _LAMBDA_ALIAS or name == "Lambda'(2)/Lambda(2)":
        return LAMBDA_RATIO, -1
    if name == "Lambda'(-1)/Lambda(-1)":
        return LAMBDA_RATIO, 1
    if name.startswith("log(") and name.endswith(")"):
        inner = name[4:-1]
        if inner.isdigit() and is_prime(int(inner)):
            return f"log({int(inner)})", 1
    raise ValueError(f"unknown symbol {name!r}")


class SymbolicNumber(Frozen):
    """Immutable rational linear combination of the basis symbols."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for name, c in (coeffs or {}).items():
            canonical, scale = _parse_symbol(name)
            c = Fraction(c) * scale
            if c:
                clean[canonical] = clean.get(canonical, Fraction(0)) + c
        object.__setattr__(self, "_coeffs", {k: v for k, v in clean.items() if v})

    @classmethod
    def _of_canonical(cls, coeffs):
        """Wrap Fraction coefficients whose keys are already canonical names."""
        out = cls.__new__(cls)
        object.__setattr__(out, "_coeffs", {k: v for k, v in coeffs.items() if v})
        return out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def rational(cls, c):
        return cls({ONE: Fraction(c)})

    @classmethod
    def log_prime(cls, p, c=1):
        return cls({Symbol.log_prime(p): Fraction(c)})

    def coefficient(self, name) -> Fraction:
        canonical, scale = _parse_symbol(name)
        return self._coeffs.get(canonical, Fraction(0)) * scale

    @property
    def coefficients(self):
        return dict(self._coeffs)

    def symbols(self):
        return set(self._coeffs)

    def __add__(self, other):
        if not isinstance(other, SymbolicNumber):
            return NotImplemented
        out = dict(self._coeffs)
        for k, v in other._coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return SymbolicNumber._of_canonical(out)

    def __sub__(self, other):
        if not isinstance(other, SymbolicNumber):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return SymbolicNumber._of_canonical({k: -v for k, v in self._coeffs.items()})

    def scale(self, c):
        c = Fraction(c)
        return SymbolicNumber._of_canonical({k: v * c for k, v in self._coeffs.items()})

    __rmul__ = __mul__ = scale

    def __eq__(self, other):
        if isinstance(other, SymbolicNumber):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def is_zero(self):
        return not self._coeffs

    def _sort_key(self, name):
        order = {LOG_DET_Y: 0, ONE: 1, LAMBDA_RATIO: 2}
        if name in order:
            return (order[name], 0)
        return (3, int(name[4:-1]))

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for name in sorted(self._coeffs, key=self._sort_key):
            c = self._coeffs[name]
            if name == ONE:
                term = str(c)
            elif c == 1:
                term = name
            elif c == -1:
                term = f"-{name}"
            else:
                term = f"{c}*{name}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self):
        return f"SymbolicNumber({self})"


def symbolic_reduce(terms) -> SymbolicNumber:
    """Canonicalize a list of (rational, symbol-name) terms.

    Symbol names are those of `Symbol`, plus the alias "LambdaRatio2"
    (usable for the value Lambda'(2)/Lambda(2)), which is folded into the
    single Lambda symbol with a sign flip.  Unknown names raise ValueError.
    """
    total = SymbolicNumber()
    for c, name in terms:
        total = total + SymbolicNumber({name: Fraction(c)})
    return total
