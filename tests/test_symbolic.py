import pickle
from fractions import Fraction

import pytest

from swb.symbolic import Symbol, SymbolicNumber, symbolic_reduce


def test_lambda_alias_cancels():
    # 2*Lambda'(2)/Lambda(2) + 2*Lambda'(-1)/Lambda(-1) = 0
    s = symbolic_reduce([(2, "LambdaRatio2"), (2, Symbol.lambda_ratio)])
    assert s.is_zero()


def test_log_additivity():
    s = symbolic_reduce([(Fraction(1, 2), "log(2)"), (Fraction(1, 2), "log(2)")])
    assert s == SymbolicNumber.log_prime(2)


def test_expansion():
    # 4*(1/2 - LambdaRatio) = 2*one - 4*LambdaRatio
    s = symbolic_reduce([(2, Symbol.one), (-4, Symbol.lambda_ratio)])
    t = SymbolicNumber.rational(Fraction(1, 2)) - SymbolicNumber({Symbol.lambda_ratio: 1})
    assert t.scale(4) == s


def test_unknown_symbol_rejected():
    with pytest.raises(ValueError):
        symbolic_reduce([(1, "log(4)")])
    with pytest.raises(ValueError):
        symbolic_reduce([(1, "zeta3")])
    for name in ("euler_gamma", "log_4pi"):  # outside the basis: nothing produces them
        with pytest.raises(ValueError):
            SymbolicNumber({name: 1})


def test_algebra_exact():
    a = SymbolicNumber({Symbol.one: Fraction(1, 3), "log(2)": Fraction(2, 7)})
    b = SymbolicNumber({"log(2)": Fraction(-2, 7), Symbol.log_det_y: 1})
    s = a + b
    assert s.coefficient("log(2)") == 0
    assert s.coefficient(Symbol.one) == Fraction(1, 3)
    assert (s - s).is_zero()
    assert a.scale(0).is_zero()
    assert a + b == b + a
    # immutable, as the T = 0 ledgers share these values, and picklable
    with pytest.raises(AttributeError, match="SymbolicNumber is immutable"):
        s._coeffs = {}
    with pytest.raises(AttributeError, match="SymbolicNumber is immutable"):
        del s._coeffs
    assert s.coefficient(Symbol.one) == Fraction(1, 3)
    assert pickle.loads(pickle.dumps(s)) == s


def test_rendering():
    s = SymbolicNumber(
        {
            Symbol.log_det_y: 1,
            Symbol.one: 2,
            Symbol.lambda_ratio: -4,
            "log(2)": Fraction(-1, 3),
        }
    )
    assert str(s) == "log_det_y + 2 - 4*LambdaRatio - 1/3*log(2)"
    assert str(SymbolicNumber()) == "0"
