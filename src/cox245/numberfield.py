"""Integral arithmetic in the real quartic field Q(sqrt2, sqrt5).

The group kernel's coordinates live in the ring with the *integral* basis
{1, sqrt2, phi, sqrt2*phi}, phi = (1+sqrt5)/2.  All entries of the
generator matrices are algebraic integers there, so group matrices multiply
with plain Python ints and never see a denominator.  A vector is a 4-tuple
of ints (a, b, c, d) standing for a + b*sqrt2 + c*phi + d*sqrt2*phi.

Sign computation is exact and uses integers only: the sign of x + y*sqrt5,
with x and y in Z[sqrt2], is decided by the signs of x, y and the norm
x^2 - 5y^2, each element of Z[sqrt2] by comparing squares (nested norms),
and b + d*phi by one (``phi_sign``; ``PHI_POSITIVE`` is its test for a
positive sign as one expression, which compiled kernels inline); no float
or root approximation decides.
"""

from __future__ import annotations

__all__ = [
    "iq_mul",
    "iq_sub",
    "iq_neg",
    "iq_sign",
    "phi_sign",
    "PHI_POSITIVE",
    "IQ_ZERO",
    "IQ_ONE",
    "IQ_TWO",
    "IQ_SQRT2",
    "IQ_PHI",
]


def _sign_surd(p: int, q: int, n: int) -> int:
    """Sign of p + q*sqrt(n) for integers p, q and a non-square n > 0: the
    common sign when p and q agree, otherwise that of the larger of p^2 and
    n q^2 (never equal, as sqrt(n) is irrational)."""
    if p >= 0 and q >= 0:
        return 1 if p or q else 0
    if p <= 0 and q <= 0:
        return -1
    if p * p > n * q * q:
        return 1 if p > 0 else -1
    return 1 if q > 0 else -1


def _sign_int_vector(a: int, b: int, c: int, d: int) -> int:
    """Sign of a + b*sqrt2 + c*sqrt5 + d*sqrt10 = x + y*sqrt5 with x = a +
    b*sqrt2 and y = c + d*sqrt2, by nested norms: the common sign when x
    and y agree, otherwise sign(x) times the sign of x^2 - 5y^2 = (a^2 +
    2b^2 - 5c^2 - 10d^2) + 2(ab - 5cd)*sqrt2, which is nonzero as sqrt5 is
    not in Q(sqrt2)."""
    x = _sign_surd(a, b, 2)
    y = _sign_surd(c, d, 2)
    if x == y or y == 0:
        return x
    if x == 0:
        return y
    return x * _sign_surd(a * a + 2 * b * b - 5 * c * c - 10 * d * d, 2 * (a * b - 5 * c * d), 2)


# phi^2 = phi + 1 and sqrt2^2 = 2, so products of integer vectors stay
# integral.  All generator matrix entries (0, 2, -sqrt2, -phi) live here,
# hence every matrix in the group does.
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


def iq_sub(x, y):
    return (x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3])


def iq_neg(x):
    return (-x[0], -x[1], -x[2], -x[3])


def iq_sign(x) -> int:
    a, b, c, d = x
    # 2*(a + b sqrt2 + c phi + d sqrt2 phi) = (2a+c) + (2b+d) sqrt2 + c sqrt5 + d sqrt10
    return _sign_int_vector(2 * a + c, 2 * b + d, c, d)


def phi_sign(b: int, d: int) -> int:
    """Sign of b + d*phi for integers b, d: 2(b + d phi) = (2b + d) + d sqrt5."""
    return _sign_surd(2 * b + d, d, 5)


# ``phi_sign(b, d) > 0`` as the source of one expression in the ints q = 2b
# + d and d, for compiled kernels (``coxeter``'s least-descent step): q + d
# sqrt5 > 0 iff q and d are not both <= 0 and, where their signs differ,
# q^2 > 5 d^2 iff q > 0 (``_sign_surd`` with n = 5)
PHI_POSITIVE = "(q > 0 or d > 0) and (q >= 0 and d >= 0 or (q * q > 5 * d * d) == (q > 0))"
