"""The geometric side: components, multiplicities and intersection numbers
on the level-N modular curve, and the T = 0 height assembly.

All objects are small exact ledgers: formal rational combinations of named
components (vertical components X^a at each prime dividing the level, and
the two cusp sections).  Pairings land in the symbolic-constant algebra
as rational multiples of log p.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from swb.padic import euler_phi, factorize, prime_divisors, psi_index, valuation
from swb.report import CaseResult
from swb.symbolic import Symbol, SymbolicNumber

CUSP_INF = "cusp_inf"
CUSP_ZERO = "cusp_zero"


class PairingUndefined(Exception):
    """Raised for pairings the intersection table deliberately omits."""


def a_N(N: int, t: int) -> int:
    """Exponent of the level-t factor in the weight-12 phi(N) section.

    a_N(t) = sum_(r | t) mu(t/r) mu(N/r) phi(N)/phi(N/r).  The summand is
    multiplicative in (N, t, r) together, so a_N(t) is the product over
    p^e || N of the local sum with N = p^e, t = p^k, r = p^j (0 <= j <= k).
    Since mu(p^i) = 0 for i >= 2, a local term needs k - j <= 1 and
    e - j <= 1:
      k = e:     j = e and j = e - 1 give phi(p^e) (1 + 1/(p - 1)) = p^e;
      k = e - 1: only j = e - 1, giving mu(p) phi(p^e)/phi(p) = -p^(e-1);
      k <= e - 2: no j qualifies, and a_N(t) = 0.
    """
    if N < 1 or t < 1 or N % t:
        raise ValueError(f"need t | N, got t={t}, N={N}")
    out = 1
    for p, e in factorize(N).items():
        k = valuation(t, p)
        if k == e:
            out *= p**e
        elif k == e - 1:
            out *= -(p ** (e - 1))
        else:
            return 0
    return out


# ---------------------------------------------------------------------------
# the special fiber


# multiplicity: coefficient in div(p); degree: finite-flat degree over the
# coprime-level curve
FiberComponent = namedtuple("FiberComponent", "p N a multiplicity degree")


def special_fiber(N: int, p: int) -> list[FiberComponent]:
    n = valuation(N, p)
    Np = N // p**n
    psi_cop = psi_index(Np)
    out = []
    for a in range(-n, n + 1, 2):
        mult = euler_phi(p ** ((n - abs(a)) // 2))
        deg = psi_cop * (1 if a >= 0 else p**-a)
        out.append(FiberComponent(p, N, a, mult, deg))
    return out


# ---------------------------------------------------------------------------
# divisor ledgers


class DivisorLedger:
    """Formal rational combination of vertical components and cusps."""

    __slots__ = ("N", "coeffs")

    def __init__(self, N: int, coeffs=None):
        self.N = N
        self.coeffs = {}
        for key, c in (coeffs or {}).items():
            self._validate(key)
            c = Fraction(c)
            if c:
                self.coeffs[key] = c

    def _validate(self, key):
        if key in (CUSP_INF, CUSP_ZERO):
            return
        kind, p, a = key
        if kind != "vert":
            raise ValueError(f"bad ledger key {key!r}")
        n = valuation(self.N, p)
        if abs(a) > n or (a - n) % 2:
            raise ValueError(f"component {key!r} not on the level-{self.N} fiber")

    def __add__(self, other):
        if self.N != other.N:
            raise ValueError("ledger levels differ")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return DivisorLedger(self.N, out)

    def __neg__(self):
        return DivisorLedger(self.N, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        return DivisorLedger(self.N, {k: v * c for k, v in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, DivisorLedger):
            return NotImplemented
        return self.N == other.N and self.coeffs == other.coeffs

    def __repr__(self):
        def label(k):
            if k == CUSP_INF:
                return "P_inf"
            if k == CUSP_ZERO:
                return "P_0"
            return f"X^{k[2]}_{k[1]}"

        terms = [f"{v}*{label(k)}" for k, v in sorted(self.coeffs.items(), key=str)]
        return f"DivisorLedger(N={self.N}: " + (" + ".join(terms) or "0") + ")"


def vertical(N, p, a, c=1) -> DivisorLedger:
    return DivisorLedger(N, {("vert", p, a): Fraction(c)})


def cusp_ledger(N, at_zero=False, c=1) -> DivisorLedger:
    key = CUSP_ZERO if (at_zero and N > 1) else CUSP_INF
    return DivisorLedger(N, {key: Fraction(c)})


def atkin_lehner_pullback(L: DivisorLedger) -> DivisorLedger:
    """a <-> -a on vertical components, swapping the two cusp sections.

    At N = 1 the two cusp sections coincide and the ledger is fixed.
    """
    out = {}
    for k, v in L.coeffs.items():
        if k == CUSP_INF:
            nk = CUSP_ZERO if L.N > 1 else CUSP_INF
        elif k == CUSP_ZERO:
            nk = CUSP_INF
        else:
            nk = ("vert", k[1], -k[2])
        out[nk] = out.get(nk, Fraction(0)) + v
    return DivisorLedger(L.N, out)


# ---------------------------------------------------------------------------
# the intersection table


def _pair_vertical(n, psi_cop, p, a, b) -> Fraction:
    """Multiple of log p for the pairing of X^a and X^b at the same prime,
    where p^n || N and psi_cop = psi(N / p^n)."""
    if n < 1:
        raise PairingUndefined("vertical pairings need p | N")
    if a != b:
        power = p ** min(abs(a), abs(b)) if a * b > 0 else 1
        return psi_cop * (p - 1) * power / 24
    if abs(a) == n:
        return -psi_cop * (p - 1) * p ** (n - 1) / 24
    return -psi_cop * p ** abs(a) / 12


def intersection_pairing(L1: DivisorLedger, L2: DivisorLedger) -> SymbolicNumber:
    """Pairing of two ledgers through the intersection table.

    Vertical components at distinct primes are disjoint.  A cusp section
    meets only the vertical component its reduction lands on (index n for
    the infinity cusp, -n for the zero cusp); that one pairing, and
    cusp-cusp pairings, are outside the table and raise PairingUndefined
    unless a zero coefficient kills them.
    """
    if L1.N != L2.N:
        raise ValueError("ledger levels differ")
    N = L1.N
    # (n, psi(N / p^n)) for p^n || N, read once per prime of the ledgers
    local = {}
    for p in {k[1] for k in (*L1.coeffs, *L2.coeffs) if k not in (CUSP_INF, CUSP_ZERO)}:
        n = valuation(N, p)
        local[p] = n, Fraction(psi_index(N // p**n))
    total = SymbolicNumber()
    for k1, c1 in L1.coeffs.items():
        for k2, c2 in L2.coeffs.items():
            cusp1 = k1 in (CUSP_INF, CUSP_ZERO)
            cusp2 = k2 in (CUSP_INF, CUSP_ZERO)
            if cusp1 and cusp2:
                raise PairingUndefined("cusp-cusp pairings are out of scope")
            if cusp1 or cusp2:
                cusp_key, (_, p, a) = (k1, k2) if cusp1 else (k2, k1)
                n = local[p][0]
                meets = n if cusp_key == CUSP_INF else -n
                if a == meets:
                    raise PairingUndefined(
                        f"pairing of {cusp_key} with X^{a} at p={p} is out of scope"
                    )
                continue  # disjoint: contributes 0
            _, p1, a1 = k1
            _, p2, a2 = k2
            if p1 != p2:
                continue
            pairing = _pair_vertical(*local[p1], p1, a1, a2)
            total = total + SymbolicNumber.log_prime(p1, c1 * c2 * pairing)
    return total


def div_p_ledger(N, p) -> DivisorLedger:
    """div(p) on the level-N model: the weighted sum of fiber components."""
    return DivisorLedger(N, {("vert", p, c.a): c.multiplicity for c in special_fiber(N, p)})


def check_div_p_trivial(N, p) -> list[CaseResult]:
    """Numerical triviality of div(p): its pairing with every component is 0."""
    out = []
    n = valuation(N, p)
    divp = div_p_ledger(N, p)
    for a in range(-n, n + 1, 2):
        val = intersection_pairing(vertical(N, p, a), divp)
        out.append(
            CaseResult.check(
                "div-p-trivial", {"N": N, "p": p, "a": a}, val, SymbolicNumber.zero()
            )
        )
    return out


# ---------------------------------------------------------------------------
# the antisymmetric vertical correction and the Hodge section divisors


def xhat_ledger(N, p) -> DivisorLedger:
    n = valuation(N, p)
    if n < 1:
        raise ValueError("xhat needs p | N")
    coeffs = {("vert", p, n): Fraction(n, 2), ("vert", p, -n): Fraction(-n, 2)}
    for a in range(-n + 2, n - 1, 2):
        coeffs["vert", p, a] = Fraction(a, 2) * p ** ((n - abs(a)) // 2 - 1) * (p - 1)
    return DivisorLedger(N, coeffs)


def xhat_self_intersection(N, p) -> SymbolicNumber:
    """Self-pairing of the antisymmetric vertical ledger; asserted against
    the closed form psi(N)/24 * (-n p^(n+1) + 2 p^n + n p^(n-1) - 2) /
    (p^(n-1) (p^2 - 1)) * log p."""
    n = valuation(N, p)
    if n < 1:
        raise ValueError("xhat needs p | N")
    ledger_val = intersection_pairing(xhat_ledger(N, p), xhat_ledger(N, p))
    closed_coeff = (
        Fraction(psi_index(N), 24)
        * Fraction(-n * p ** (n + 1) + 2 * p**n + n * p ** (n - 1) - 2, p ** (n - 1) * (p * p - 1))
    )
    closed = SymbolicNumber.log_prime(p, closed_coeff)
    if ledger_val != closed:
        raise AssertionError(
            f"xhat self-intersection mismatch at N={N}, p={p}: {ledger_val} vs {closed}"
        )
    return ledger_val


def f_p_ledger(N, p) -> DivisorLedger:
    """Vertical part of the divisor of the weight-12 phi(N) section."""
    n = valuation(N, p)
    if n < 1:
        raise ValueError("f_p needs p | N")
    Np = N // p**n
    scale = 12 * p ** (n - 1) * euler_phi(Np)
    coeffs = {}
    for a in range(-n, n, 2):
        w = (Fraction(1 - p, 2) * (n - a) - 1) * euler_phi(p ** ((n - abs(a)) // 2))
        coeffs["vert", p, a] = scale * w
    return DivisorLedger(N, coeffs)


def f_p0_ledger(N, p) -> DivisorLedger:
    """Vertical part for the reflected section (the zero-cusp expansion)."""
    n = valuation(N, p)
    if n < 1:
        raise ValueError("f_p0 needs p | N")
    Np = N // p**n
    coeffs = {("vert", p, -n): -6 * n * euler_phi(N)}
    scale = 12 * p ** (n - 1) * euler_phi(Np)
    for a in range(-n + 2, n + 1, 2):
        w = euler_phi(p ** ((n - abs(a)) // 2)) * (Fraction(1 - p, 2) * n - 1)
        coeffs["vert", p, a] = scale * w
    return DivisorLedger(N, coeffs)


def div_delta_section(N: int):
    """Divisors of the canonical sections: (div Delta_N, div Delta_N^0).

    Both carry the full cusp multiplicity psi(N) phi(N) at their cusp and
    the vertical corrections at each prime dividing N.
    """
    phi, psi = euler_phi(N), psi_index(N)
    full = cusp_ledger(N, at_zero=False, c=psi * phi)
    full0 = cusp_ledger(N, at_zero=True, c=psi * phi)
    for p in prime_divisors(N) if N > 1 else []:
        full = full + f_p_ledger(N, p)
        full0 = full0 + f_p0_ledger(N, p)
    return full, full0


def check_hodge_difference(N: int) -> list[CaseResult]:
    """Per prime: (f_p^0 - W* f_p)/(12 phi(N)) equals the antisymmetric
    vertical ledger."""
    out = []
    phi = euler_phi(N)
    for p in prime_divisors(N) if N > 1 else []:
        lhs = (f_p0_ledger(N, p) - atkin_lehner_pullback(f_p_ledger(N, p))).scale(
            Fraction(1, 12 * phi)
        )
        rhs = xhat_ledger(N, p)
        out.append(
            CaseResult.of(
                "hodge-difference",
                {"N": N, "p": p},
                lhs == rhs,
                lhs=repr(lhs),
                rhs=repr(rhs),
            )
        )
    if N == 1:
        out.append(CaseResult.of("hodge-difference", {"N": 1, "p": None}, True, "0", "0"))
    return out


def hodge_self_pairing_input(N: int) -> SymbolicNumber:
    """The declared self-pairing of the metrized Hodge bundle:
    psi(N)/24 (1/2 - Lambda'(-1)/Lambda(-1)).  External input constant."""
    psi = psi_index(N)
    return SymbolicNumber(
        {Symbol.one: Fraction(psi, 48), Symbol.lambda_ratio: Fraction(-psi, 24)}
    )


def f_p_self_pairing(N, p) -> SymbolicNumber:
    """Ledger self-pairing of f_p, asserted against its closed form
    -6 psi(N) phi(N)^2 (n p^2 + 1 - n)/(p^2 - 1) log p."""
    n = valuation(N, p)
    fp = f_p_ledger(N, p)
    ledger_val = intersection_pairing(fp, fp)
    phi, psi = euler_phi(N), psi_index(N)
    coeff = Fraction(-6 * psi * phi * phi) * Fraction(n * p * p + 1 - n, p * p - 1)
    closed = SymbolicNumber.log_prime(p, coeff)
    if ledger_val != closed:
        raise AssertionError(
            f"f_p self-pairing mismatch at N={N}, p={p}: {ledger_val} vs {closed}"
        )
    return ledger_val


def delta_self_pairing(N: int) -> SymbolicNumber:
    """Self-pairing of the full section divisor:
    6 psi phi^2 (1/2 - Lambda'(-1)/Lambda(-1)) minus the vertical
    self-pairings (the cusp meets only the zero-coefficient component)."""
    phi, psi = euler_phi(N), psi_index(N)
    total = SymbolicNumber(
        {Symbol.one: Fraction(6 * psi * phi * phi, 2), Symbol.lambda_ratio: -6 * psi * phi * phi}
    )
    for p in prime_divisors(N) if N > 1 else []:
        total = total - f_p_self_pairing(N, p)
    return total


def geometric_t0_side(N: int) -> SymbolicNumber:
    """The degenerate-coefficient height, normalized by 24/psi(N).

    Four times the Hodge self-pairing input, minus the vertical
    antisymmetric self-pairings, plus the metric term psi(N)/24 log det y,
    all scaled by 24/psi(N).
    """
    psi = psi_index(N)
    total = hodge_self_pairing_input(N).scale(4)
    for p in prime_divisors(N) if N > 1 else []:
        total = total - xhat_self_intersection(N, p)
    total = total + SymbolicNumber({Symbol.log_det_y: Fraction(psi, 24)})
    return total.scale(Fraction(24, psi))
