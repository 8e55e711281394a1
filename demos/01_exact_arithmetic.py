#!/usr/bin/env python3
"""Exact arithmetic in Q(sqrt2, sqrt5).

No float is ever trusted for a decision.  The suites run on the integral
layer (``cox245.numberfield``, coordinates over {1, sqrt2, phi,
sqrt2*phi}); this demo uses the rational field ``cox245.exact``, the
kernel's independent check, whose elements are rational vectors over
{1, sqrt2, sqrt5, sqrt10}.  Both decide signs by nested norms in integers
only.
"""

from fractions import Fraction

from cox245.exact import COS_PI_4, COS_PI_5, FieldElement, SQRT2, SQRT5, SQRT10

x = FieldElement(Fraction(1, 2), 1, Fraction(-1, 3), 0)
y = FieldElement(0, Fraction(2, 7), 1, Fraction(1, 2))

print("x        =", x.serialize())
print("y        =", y.serialize())
print("x * y    =", (x * y).serialize())
print("x / y    =", (x / y).serialize())
print("round trip x * (1/x) =", (x * x.inverse()).serialize())

print()
print("sqrt2 * sqrt5 == sqrt10:", SQRT2 * SQRT5 == SQRT10)

# cos(pi/5) satisfies 4c^2 - 2c - 1 = 0, exactly
c = COS_PI_5
print("4*cos(pi/5)^2 - 2*cos(pi/5) - 1 =", (4 * c * c - 2 * c - 1).serialize())

# signs are exact even when floats would be nervous
tiny = SQRT2 + SQRT5 - SQRT10 - Fraction(9, 25)
print()
print("sign(sqrt2 + sqrt5 - sqrt10 - 9/25) =", tiny.sign(), " (float value %.6f)" % float(tiny))
print("sign(sqrt2*sqrt5 - sqrt10)          =", (SQRT2 * SQRT5 - SQRT10).sign(), " (exact zero)")
print()
print("cos(pi/4) =", COS_PI_4.serialize())
print("cos(pi/5) =", COS_PI_5.serialize())
