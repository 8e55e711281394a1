"""The exact field Q(sqrt2, sqrt5), apart from the integral kernel.

This is the coefficient field of the reflection representation: the
bilinear form of the (2,4,5) triangle group needs cos(pi/4) = sqrt2/2 and
cos(pi/5) = (1+sqrt5)/4.  Elements are rational coordinate vectors over the
basis

    {1, sqrt2, sqrt5, sqrt10}.

No suite imports this module.  The checker decides everything in the
integral layer (:mod:`cox245.numberfield`) and the group kernel
(:mod:`cox245.coxeter`); this module is their independent check.  Its
generator matrices are built from the Gram matrix alone
(``generator_matrix_field``), not converted from the kernel's, and
``iq_to_field`` reads the integral layer in this basis.  The one piece of
code it shares with the kernel is the exact sign: ``FieldElement.sign``
clears denominators and calls ``numberfield.iq_sign`` (nested norms, in
integers only).  ``float()`` of an element is for display only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from math import lcm

from .numberfield import iq_sign

__all__ = [
    "FieldElement",
    "ZERO",
    "ONE",
    "SQRT2",
    "SQRT5",
    "SQRT10",
    "COS_PI_4",
    "COS_PI_5",
    "iq_to_field",
    "bilinear_form_matrix",
    "generator_matrix_field",
]

# for ``FieldElement.__float__`` (display) only
_F2 = 1.4142135623730951
_F5 = 2.23606797749979
_F10 = 3.1622776601683795


def _field_operand(method):
    """The binary ``method`` with its other operand coerced to the field: an
    int or a Fraction is converted, and any other type (a float included)
    gets ``NotImplemented``, so Python tries the reflected operator or
    raises ``TypeError`` naming the operator."""
    @wraps(method)
    def coerced(self, other):
        if isinstance(other, (int, Fraction)):
            other = FieldElement(other)
        elif not isinstance(other, FieldElement):
            return NotImplemented
        return method(self, other)
    return coerced


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

    @_field_operand
    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a rational element equals its Fraction, so it hashes as one
        return hash(self.coeffs) if self.b or self.c or self.d else hash(self.a)

    def __bool__(self):
        return self.coeffs != (0, 0, 0, 0)

    @_field_operand
    def __add__(self, other):
        return FieldElement(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(-self.a, -self.b, -self.c, -self.d)

    @_field_operand
    def __sub__(self, other):
        return self + (-other)

    @_field_operand
    def __rsub__(self, other):
        return other + (-self)

    @_field_operand
    def __mul__(self, other):
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

    @_field_operand
    def __truediv__(self, other):
        return self * other.inverse()

    @_field_operand
    def __rtruediv__(self, other):
        return other * self.inverse()

    def sign(self) -> int:
        """Exact sign of the real embedding (sqrt2, sqrt5 positive).  With
        denominators cleared to ints a, b, c, d, this is the sign of the
        integral-basis vector (a - c, b - d, 2c, 2d), as sqrt5 = 2 phi - 1."""
        denom = lcm(*(coeff.denominator for coeff in self.coeffs))
        a, b, c, d = (int(coeff * denom) for coeff in self.coeffs)
        return iq_sign((a - c, b - d, 2 * c, 2 * d))

    def __float__(self):
        """Approximate value, for display only."""
        return float(self.a) + float(self.b) * _F2 + float(self.c) * _F5 + float(self.d) * _F10

    @_field_operand
    def __lt__(self, other):
        return (self - other).sign() < 0

    @_field_operand
    def __le__(self, other):
        return (self - other).sign() <= 0

    @_field_operand
    def __gt__(self, other):
        return (self - other).sign() > 0

    @_field_operand
    def __ge__(self, other):
        return (self - other).sign() >= 0


ZERO = FieldElement(0)
ONE = FieldElement(1)
SQRT2 = FieldElement(0, 1, 0, 0)
SQRT5 = FieldElement(0, 0, 1, 0)
SQRT10 = FieldElement(0, 0, 0, 1)
COS_PI_4 = FieldElement(0, Fraction(1, 2), 0, 0)
COS_PI_5 = FieldElement(Fraction(1, 4), 0, Fraction(1, 4), 0)


def iq_to_field(x) -> FieldElement:
    """An integral-basis vector (a, b, c, d), a + b sqrt2 + c phi + d sqrt2 phi
    with phi = (1 + sqrt5)/2, in the basis {1, sqrt2, sqrt5, sqrt10}."""
    a, b, c, d = x
    half = Fraction(1, 2)
    return FieldElement(a + c * half, b + d * half, c * half, d * half)


def bilinear_form_matrix() -> tuple[tuple[FieldElement, ...], ...]:
    """Gram matrix B(a_i, a_j) = -cos(pi/m_ij) of the simple roots a_r, a_s,
    a_t, for the exponents m_rs = 4, m_st = 5, m_rt = 2."""
    b_rs = -COS_PI_4
    b_st = -COS_PI_5
    return (
        (ONE, b_rs, ZERO),
        (b_rs, ONE, b_st),
        (ZERO, b_st, ONE),
    )


def generator_matrix_field(x: str) -> tuple[tuple[FieldElement, ...], ...]:
    """The reflection s_x(v) = v - 2B(a_x, v) a_x in simple-root coordinates,
    from the Gram matrix alone: M[i][j] = delta_ij - 2 delta_ix B[x][j]."""
    k = {"r": 0, "s": 1, "t": 2}[x]
    row = bilinear_form_matrix()[k]
    return tuple(tuple((ONE if i == j else ZERO) - (2 * row[j] if i == k else ZERO)
                       for j in range(3)) for i in range(3))
