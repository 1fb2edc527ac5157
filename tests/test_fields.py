"""Extension-field arithmetic: w*w = -w - 1 and everything that follows."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordlines import Eisenstein, W, as_scalar

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
eisensteins = st.builds(Eisenstein, rationals, rationals)


def test_omega_cubed_is_one():
    assert W * W == -1 - W
    assert W * W * W == 1
    assert 1 + W + W * W == 0


def test_norm_examples():
    assert W.norm() == 1
    assert Eisenstein(2, 3).norm() == 4 - 6 + 9
    assert Eisenstein(Fraction(1, 2), 0).norm() == Fraction(1, 4)


def test_inverse_of_generator():
    assert W.inverse() == Eisenstein(-1, -1)
    assert W * W.inverse() == 1


def test_division_and_rtruediv():
    x = Eisenstein(2, -3)
    assert (1 / x) * x == 1
    assert (x / x) == 1
    assert x / 2 == Eisenstein(1, Fraction(-3, 2))


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        Eisenstein(0, 0).inverse()
    with pytest.raises(ZeroDivisionError):
        W / Eisenstein(0, 0)


def test_mixed_arithmetic_with_rationals():
    assert Fraction(1, 2) + W == Eisenstein(Fraction(1, 2), 1)
    assert 1 - W == Eisenstein(1, -1)
    assert Fraction(3) * W == Eisenstein(0, 3)
    assert Eisenstein(1, 1) - 1 == W


def test_equality_and_hash_match_fraction():
    assert Eisenstein(Fraction(2, 3), 0) == Fraction(2, 3)
    assert hash(Eisenstein(Fraction(2, 3), 0)) == hash(Fraction(2, 3))
    assert Eisenstein(1, 1) != Eisenstein(1, 0)


def test_as_scalar_coercion():
    assert as_scalar(3) == Fraction(3)
    assert as_scalar(W) is W
    assert as_scalar(Fraction(1, 2)) == Fraction(1, 2)


def test_format_round_names():
    assert str(Eisenstein(1, 2)) == "1+2*w"
    assert str(Eisenstein(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4*w"
    assert str(Eisenstein(0, 0)) == "0+0*w"


@settings(max_examples=500)
@given(eisensteins)
def test_inverse_round_trip(x):
    if x == 0:
        return
    assert x * x.inverse() == 1
    assert x.inverse() == 1 / x


@given(eisensteins, eisensteins)
def test_norm_is_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@given(eisensteins, eisensteins, eisensteins)
def test_ring_identities(x, y, z):
    assert x * (y + z) == x * y + x * z
    assert (x - y) * (x + y) == x * x - y * y
    assert (x * y) * z == x * (y * z)
