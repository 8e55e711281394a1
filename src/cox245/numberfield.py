"""Exact arithmetic in the real quartic field Q(sqrt2, sqrt5).

This is the coefficient field of the reflection representation used by the
rest of the package: the bilinear form of the (2,4,5) triangle group needs
cos(pi/4) = sqrt2/2 and cos(pi/5) = (1+sqrt5)/4.

Elements are rational coordinate vectors over the basis

    {1, sqrt2, sqrt5, sqrt10}.

A second coordinate layer over the *integral* basis {1, sqrt2, phi,
sqrt2*phi} (phi = (1+sqrt5)/2) is provided for the matrix kernel: all
entries of the generator matrices are algebraic integers there, so group
matrices multiply with plain Python ints and never see a denominator.

Sign computation is exact and uses integers only: the sign of x + y*sqrt5,
with x and y in Z[sqrt2], is decided by the signs of x, y and the norm
x^2 - 5y^2, each element of Z[sqrt2] by comparing squares (nested norms).
No float and no approximation of a root decides a sign; ``float()`` of an
element is for display only.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

__all__ = [
    "FieldElement",
    "ZERO",
    "ONE",
    "SQRT2",
    "SQRT5",
    "SQRT10",
    "COS_PI_4",
    "COS_PI_5",
    "iq_mul",
    "iq_add",
    "iq_sub",
    "iq_neg",
    "iq_sign",
    "iq_to_field",
    "IQ_ZERO",
    "IQ_ONE",
    "IQ_TWO",
    "IQ_SQRT2",
    "IQ_PHI",
]

# for ``FieldElement.__float__`` (display) only
_F2 = 1.4142135623730951
_F5 = 2.23606797749979
_F10 = 3.1622776601683795


def _sign_sqrt2(p: int, q: int) -> int:
    """Sign of p + q*sqrt2 for integers p, q: the common sign when p and q
    agree, otherwise that of the larger of p^2 and 2q^2 (never equal, as
    sqrt2 is irrational)."""
    if p >= 0 and q >= 0:
        return 1 if p or q else 0
    if p <= 0 and q <= 0:
        return -1
    if p * p > 2 * q * q:
        return 1 if p > 0 else -1
    return 1 if q > 0 else -1


def _sign_int_vector(a: int, b: int, c: int, d: int) -> int:
    """Sign of a + b*sqrt2 + c*sqrt5 + d*sqrt10 = x + y*sqrt5 with x = a +
    b*sqrt2 and y = c + d*sqrt2, by nested norms: the common sign when x
    and y agree, otherwise sign(x) times the sign of x^2 - 5y^2 = (a^2 +
    2b^2 - 5c^2 - 10d^2) + 2(ab - 5cd)*sqrt2, which is nonzero as sqrt5 is
    not in Q(sqrt2)."""
    x = _sign_sqrt2(a, b)
    y = _sign_sqrt2(c, d)
    if x == y or y == 0:
        return x
    if x == 0:
        return y
    return x * _sign_sqrt2(a * a + 2 * b * b - 5 * c * c - 10 * d * d, 2 * (a * b - 5 * c * d))


class FieldElement:
    """An element a + b*sqrt2 + c*sqrt5 + d*sqrt10 with exact rational a,b,c,d."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        for x in (a, b, c, d):
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"coefficient {x!r} is not an int or a Fraction")
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.c = Fraction(c)
        self.d = Fraction(d)

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return f"FieldElement({self.a}, {self.b}, {self.c}, {self.d})"

    def serialize(self) -> str:
        """Bit-exact text form "a/b+c/d*r2+e/f*r5+g/h*r10" (lowest terms)."""
        parts = []
        for coeff, tag in ((self.a, ""), (self.b, "*r2"), (self.c, "*r5"), (self.d, "*r10")):
            parts.append(f"{coeff.numerator}/{coeff.denominator}{tag}")
        return "+".join(parts)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == (Fraction(other), 0, 0, 0)
        return NotImplemented

    def __hash__(self):
        # a rational element equals its Fraction, so it hashes as one
        return hash(self.coeffs) if self.b or self.c or self.d else hash(self.a)

    def __bool__(self):
        return self.coeffs != (0, 0, 0, 0)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.coeffs
        e, f, g, h = other.coeffs
        # sqrt2*sqrt5 = sqrt10, sqrt2*sqrt10 = 2*sqrt5, sqrt5*sqrt10 = 5*sqrt2
        return FieldElement(
            a * e + 2 * b * f + 5 * c * g + 10 * d * h,
            a * f + b * e + 5 * (c * h + d * g),
            a * g + c * e + 2 * (b * h + d * f),
            a * h + d * e + b * g + c * f,
        )

    __rmul__ = __mul__

    def _conj2(self):
        """Galois conjugate sqrt2 -> -sqrt2 (hence sqrt10 -> -sqrt10)."""
        return FieldElement(self.a, -self.b, self.c, -self.d)

    def _conj5(self):
        """Galois conjugate sqrt5 -> -sqrt5 (hence sqrt10 -> -sqrt10)."""
        return FieldElement(self.a, self.b, -self.c, -self.d)

    def inverse(self) -> "FieldElement":
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        c2 = self._conj2()
        c5 = self._conj5()
        c25 = c2._conj5()
        num = c2 * c5 * c25
        norm = self * num  # full Galois norm, lands in Q
        assert norm.b == 0 and norm.c == 0 and norm.d == 0
        inv_norm = Fraction(1) / norm.a
        return FieldElement(num.a * inv_norm, num.b * inv_norm, num.c * inv_norm, num.d * inv_norm)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def sign(self) -> int:
        """Exact sign of the real embedding (sqrt2, sqrt5 positive)."""
        denom = lcm(*(coeff.denominator for coeff in self.coeffs))
        ints = [int(coeff * denom) for coeff in self.coeffs]
        return _sign_int_vector(*ints)

    def __float__(self):
        """Approximate value, for display only."""
        return float(self.a) + float(self.b) * _F2 + float(self.c) * _F5 + float(self.d) * _F10

    def __lt__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() < 0

    def __le__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() <= 0


def _coerce(value) -> FieldElement | None:
    if isinstance(value, FieldElement):
        return value
    if isinstance(value, (int, Fraction)):
        return FieldElement(value)
    return None


ZERO = FieldElement(0)
ONE = FieldElement(1)
SQRT2 = FieldElement(0, 1, 0, 0)
SQRT5 = FieldElement(0, 0, 1, 0)
SQRT10 = FieldElement(0, 0, 0, 1)
COS_PI_4 = FieldElement(0, Fraction(1, 2), 0, 0)
COS_PI_5 = FieldElement(Fraction(1, 4), 0, Fraction(1, 4), 0)


# ---------------------------------------------------------------------------
# Integral coordinate layer over {1, sqrt2, phi, sqrt2*phi}, phi = (1+sqrt5)/2.
#
# phi^2 = phi + 1 and sqrt2^2 = 2, so products of integer vectors stay
# integral.  All generator matrix entries (0, 2, -sqrt2, -phi) live here,
# hence every matrix in the group does.  Vectors are plain 4-tuples of int.
# ---------------------------------------------------------------------------

IQ_ZERO = (0, 0, 0, 0)
IQ_ONE = (1, 0, 0, 0)
IQ_TWO = (2, 0, 0, 0)
IQ_SQRT2 = (0, 1, 0, 0)
IQ_PHI = (0, 0, 1, 0)


def iq_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    cg = c * g
    dh = d * h
    ch_dg = c * h + d * g
    return (
        a * e + 2 * b * f + cg + 2 * dh,
        a * f + b * e + ch_dg,
        a * g + c * e + cg + 2 * (b * h + d * f) + 2 * dh,
        a * h + d * e + b * g + c * f + ch_dg,
    )


def iq_add(x, y):
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3])


def iq_sub(x, y):
    return (x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3])


def iq_neg(x):
    return (-x[0], -x[1], -x[2], -x[3])


def iq_sign(x) -> int:
    a, b, c, d = x
    # 2*(a + b sqrt2 + c phi + d sqrt2 phi) = (2a+c) + (2b+d) sqrt2 + c sqrt5 + d sqrt10
    return _sign_int_vector(2 * a + c, 2 * b + d, c, d)


def iq_to_field(x) -> FieldElement:
    a, b, c, d = x
    half = Fraction(1, 2)
    return FieldElement(a + c * half, b + d * half, c * half, d * half)
