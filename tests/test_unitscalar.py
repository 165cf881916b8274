from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from twistcat.unitscalar import UnitScalar

exponents = st.fractions(
    min_value=-50, max_value=50, max_denominator=64
)


def test_multiplication_adds_exponents():
    half = UnitScalar(Fraction(1, 2))
    square = UnitScalar(half.exponent + half.exponent)
    assert square == UnitScalar(0) and square.to_complex() == half.to_complex() ** 2  # (-1)^2
    three_quarters = UnitScalar(Fraction(3, 4))
    square = UnitScalar(2 * three_quarters.exponent)
    assert square.exponent == Fraction(1, 2)  # (-i)(-i) = -1
    assert square.to_complex() == three_quarters.to_complex() ** 2


def test_inverse_law():
    x = UnitScalar(Fraction(5, 7))
    inverse = UnitScalar(-x.exponent)
    assert inverse.exponent == Fraction(2, 7)
    assert UnitScalar(x.exponent + inverse.exponent) == UnitScalar(0)
    assert abs(x.to_complex() * inverse.to_complex() - 1) <= 1e-15


def test_powers():
    assert UnitScalar(2 * Fraction(1, 4)).exponent == Fraction(1, 2)
    assert UnitScalar(-1 * Fraction(3, 4)).exponent == Fraction(1, 4)
    assert UnitScalar(3 * Fraction(1, 3)) == UnitScalar(0)


def test_to_complex_axis_points_exact():
    assert UnitScalar(Fraction(0)).to_complex() == 1
    assert UnitScalar(Fraction(1, 2)).to_complex() == -1
    assert UnitScalar(Fraction(3, 4)).to_complex() == -1j
    assert UnitScalar(Fraction(1, 4)).to_complex() == 1j


def test_parse_round_trip():
    # str gives the exponent's text form, which Fraction reads back
    for text in ("3/4", "0", "5/7"):
        x = UnitScalar(Fraction(text))
        assert str(x) == text and UnitScalar(Fraction(str(x))) == x


def test_canonicalization_idempotent():
    x = UnitScalar(Fraction(9, 4))
    assert x.exponent == Fraction(1, 4)
    assert UnitScalar(x.exponent) == x
    assert UnitScalar(Fraction(-1, 4)).exponent == Fraction(3, 4)


@given(exponents, exponents)
def test_to_complex_is_multiplicative(a, b):
    x, y = UnitScalar(a), UnitScalar(b)
    product = UnitScalar(x.exponent + y.exponent)
    assert abs(product.to_complex() - x.to_complex() * y.to_complex()) <= 1e-12


@given(exponents)
def test_modulus_one(a):
    assert abs(abs(UnitScalar(a).to_complex()) - 1.0) <= 1e-12


def test_pow_negative_exponent():
    x = UnitScalar(Fraction(2, 5))
    assert UnitScalar(-2 * x.exponent).exponent == Fraction(1, 5)
    assert UnitScalar(-2 * x.exponent + 2 * x.exponent) == UnitScalar(0)
