"""Exact arithmetic in Q(sqrt2, sqrt5)."""

import itertools
import operator
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from cox245.exact import (
    COS_PI_4, COS_PI_5, FieldElement, ONE, SQRT2, SQRT5, SQRT10, ZERO, iq_to_field,
)
from cox245.numberfield import IQ_ONE, iq_mul, iq_sign, phi_sign
from cox245.numberfield import _sign_int_vector

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
elements = st.builds(FieldElement, rationals, rationals, rationals, rationals)


def test_multiplication_table():
    assert SQRT2 * SQRT5 == SQRT10
    assert SQRT2 * SQRT2 == FieldElement(2)
    assert SQRT5 * SQRT5 == FieldElement(5)
    assert SQRT10 * SQRT10 == FieldElement(10)
    assert SQRT2 * SQRT10 == 2 * SQRT5
    assert SQRT5 * SQRT10 == 5 * SQRT2


def test_identity_case():
    x = FieldElement(3, Fraction(-1, 2), 7, Fraction(2, 9))
    assert x * ONE == x


def test_inverse_examples():
    assert FieldElement(2).inverse() == FieldElement(Fraction(1, 2))
    assert SQRT2.inverse() == FieldElement(0, Fraction(1, 2), 0, 0)
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_sign_examples():
    assert ZERO.sign() == 0
    assert FieldElement(-1, 1, 0, 0).sign() == 1  # sqrt2 > 1
    assert FieldElement(3, -1, -1, 0).sign() < 0  # 3 < sqrt2 + sqrt5
    assert FieldElement(0, 0, 0, -1).sign() == -1


def test_cos_pi_5_minimal_polynomial():
    x = COS_PI_5
    assert 4 * x * x - 2 * x - 1 == ZERO
    assert (4 * x * x - 2 * x - 1).sign() == 0
    # the real root, not its Galois conjugate (1 - sqrt5)/4, which is negative
    assert x > 0


def test_cos_pi_4_is_the_positive_root():
    x = COS_PI_4
    assert 2 * x * x == 1
    assert x > 0


def test_sign_separates_close_values():
    # sqrt2 + sqrt5 - sqrt10 - 9/25 is small (~0.0277) but positive
    x = FieldElement(Fraction(-9, 25), 1, 1, -1)
    assert x.sign() == 1
    # an exact zero assembled from the sqrt10 = sqrt2*sqrt5 relation
    assert (SQRT2 * SQRT5 - SQRT10).sign() == 0


def test_sign_interval_refinement_path():
    # (sqrt2 - 1)^40 ~ 4e-16 with ~1e15 coefficients: a cancellation no
    # double could resolve, decided by the norms alone
    tiny = ONE
    base = SQRT2 - 1
    for _ in range(40):
        tiny = tiny * base
    assert tiny.sign() == 1
    assert (-tiny).sign() == -1
    assert (tiny - tiny).sign() == 0
    # a comparison of two near-zero values decided exactly:
    # (sqrt2-1)^40 ~ 4.9e-16 exceeds (sqrt5-2)^30 ~ 1.6e-19
    other = ONE
    for _ in range(30):
        other = other * (SQRT5 - 2)
    assert (tiny - other).sign() == 1
    assert (other - tiny).sign() == -1


def test_serialization_format():
    x = FieldElement(Fraction(1, 2), Fraction(-1, 3), 0, 2)
    assert x.serialize() == "1/2+-1/3*r2+0/1*r5+2/1*r10"
    assert ZERO.serialize() == "0/1+0/1*r2+0/1*r5+0/1*r10"
    # bit-exact: equal elements serialize identically
    y = FieldElement(Fraction(2, 4), Fraction(-2, 6), 0, 2)
    assert y.serialize() == x.serialize()


@pytest.mark.parametrize("coeffs", [(0.1,), ("1/3",), (1, 0.5), (0, 0, 0, "2"), (0, 0, 2.0)])
def test_coefficients_are_exact(coeffs):
    """A float or a string never enters the exact layer at the constructor."""
    with pytest.raises(TypeError):
        FieldElement(*coeffs)


@pytest.mark.parametrize("q", [0, 2, -7, Fraction(1, 3), Fraction(-5, 2), Fraction(4, 2)])
def test_rational_elements_hash_as_their_value(q):
    """Equal values hash alike: a rational element is its Fraction in a set
    or as a dict key, and an irrational one stays apart."""
    x = FieldElement(q)
    assert x == q and hash(x) == hash(q)
    assert len({q, x}) == 1 and {q: 1}[x] == 1
    assert len({q, x + SQRT2}) == 2


OPERANDS = [1, -2, Fraction(7, 5), FieldElement(1), SQRT2 - 1, -SQRT5, SQRT10 - 3,
            FieldElement(Fraction(7, 5))]
COMPARISONS = [operator.lt, operator.le, operator.gt, operator.ge]


@pytest.mark.parametrize("x, y", [(x, y) for x in OPERANDS for y in OPERANDS
                                  if isinstance(x, FieldElement) or isinstance(y, FieldElement)])
def test_comparisons_follow_the_exact_sign(x, y):
    """Every order comparison, with an int, a Fraction or a field element
    on either side, is the exact sign of the difference (reflected for an
    int or a Fraction on the left); a float never compares."""
    sign = (x - y).sign()
    assert [op(x, y) for op in COMPARISONS] == [sign < 0, sign <= 0, sign > 0, sign >= 0]
    assert (x / y) * y == x
    field = x if isinstance(x, FieldElement) else y
    for op in COMPARISONS + [operator.add, operator.sub, operator.mul, operator.truediv]:
        for a, b in ((field, 1.5), (1.5, field)):
            with pytest.raises(TypeError):
                op(a, b)


def test_unsupported_operands_name_their_operator():
    with pytest.raises(TypeError, match="for -: 'str' and 'FieldElement'"):
        "a" - ONE
    with pytest.raises(TypeError, match="for /: 'float' and 'FieldElement'"):
        1.5 / ONE


@given(elements, elements, elements)
@settings(max_examples=60, deadline=None)
def test_field_axioms(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(elements)
@settings(max_examples=60, deadline=None)
def test_inverse_round_trip(x):
    if x:
        assert x * x.inverse() == ONE


@given(elements, elements)
@settings(max_examples=60, deadline=None)
def test_sign_multiplicative(x, y):
    assert (x * y).sign() == x.sign() * y.sign()


@given(elements)
@settings(max_examples=100, deadline=None)
def test_sign_zero_iff_zero(x):
    assert (x.sign() == 0) == (not x)


def test_integral_layer_matches_field():
    a = (1, -2, 3, 4)
    b = (-5, 1, 0, 2)
    assert iq_to_field(iq_mul(a, b)) == iq_to_field(a) * iq_to_field(b)
    assert iq_mul(a, IQ_ONE) == a
    assert iq_sign(a) == iq_to_field(a).sign()
    assert iq_sign((0, 0, 0, 0)) == 0
    # phi is a root of x^2 - x - 1
    phi = (0, 0, 1, 0)
    assert iq_mul(phi, phi) == (1, 0, 1, 0)


# --- the interval refinement, kept as the oracle for the nested norms -------

def interval_sign(a, b, c, d):
    """Sign of a + b sqrt2 + c sqrt5 + d sqrt10 by integer intervals around
    the roots, doubling the digits until the interval excludes 0; the basis
    is independent over Q, so a nonzero value is separated at finite
    precision."""
    if a == b == c == d == 0:
        return 0
    digits = 40
    while True:
        p = 10**digits
        lo = hi = a * p
        for coeff, rad in ((b, 2), (c, 5), (d, 10)):
            root_lo = isqrt(rad * p * p)  # root_lo <= sqrt(rad) p < root_lo + 1
            if coeff > 0:
                lo += coeff * root_lo
                hi += coeff * (root_lo + 1)
            else:
                lo += coeff * (root_lo + 1)
                hi += coeff * root_lo
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        digits *= 2


def test_nested_norm_sign_matches_intervals_on_the_box():
    box = range(-6, 7)
    cases = 0
    for v in itertools.product(box, box, box, box):
        assert _sign_int_vector(*v) == interval_sign(*v), v
        cases += 1
    assert cases == 28561


# units below 1: their powers are Pell-style approximants, p - q sqrt2 with
# p^2 - 2q^2 = +-1 and the like for sqrt5 and sqrt10, near 0 with large
# coefficients
UNITS = (SQRT2 - 1, SQRT5 - 2, SQRT10 - 3)


def small_unit(exponents):
    out = ONE
    for unit, k in zip(UNITS, exponents):
        for _ in range(k):
            out = out * unit
    return out


exponents = st.lists(st.integers(0, 30), min_size=len(UNITS), max_size=len(UNITS))


@given(exponents, exponents, st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=200, deadline=None)
def test_nested_norm_sign_matches_intervals_near_zero(e1, e2, k1, k2):
    """Signs of k1 u1 + k2 u2 for products u1, u2 of small units: a
    cancellation between two tiny values of either sign, with every
    coefficient nonzero in general."""
    x = k1 * small_unit(e1) + k2 * small_unit(e2)
    coeffs = tuple(int(c) for c in x.coeffs)
    assert all(c.denominator == 1 for c in x.coeffs)
    assert _sign_int_vector(*coeffs) == interval_sign(*coeffs)


zero_or_big = st.just(0) | st.integers(-50, 50) | st.integers(-2 ** 80, 2 ** 80)


@given(zero_or_big, zero_or_big)
@settings(max_examples=400, deadline=None)
def test_phi_sign_is_the_quartic_sign(b, d):
    """The one-comparison sign of b + d phi agrees with the nested-norm sign
    of the quartic integer (b, 0, d, 0), zeros and large ints included."""
    assert phi_sign(b, d) == iq_sign((b, 0, d, 0))
