"""The (2,4,5) triangle Coxeter group via its reflection representation.

W = <r, s, t | r^2 = s^2 = t^2 = (rs)^4 = (st)^5 = (tr)^2 = 1> acts on a
3-dimensional real vector space with bilinear form B(a_i, a_j) =
-cos(pi/m_ij); each generator is the B-reflection in its simple root.  The
representation is faithful, so equality of group elements is equality of
matrices, and the word problem costs nothing beyond exact arithmetic.

Matrices are flat 9-tuples (row major) of integral quartic vectors from
:mod:`cox245.numberfield`.  Multiplying by a generator, on either side,
needs only negations, additions and the shifts that multiply by sqrt2 and
phi in the integral basis.  Every product goes through such generator
products, one per letter: ``GroupElement.times`` by a known word, ``g * h``
by h's ShortLex word, ``g.inverse()`` along g's reversed word and
``g.inverse_times(h)`` by g's letters on the left of h, as generators are
involutions.  No matrix is inverted.  General products of quartic
integers (``iq_mul``) remain only in ``translate_key``, unrolled (a matrix
times the constant vector of a coset key, which moves a known coset by g
without a word walk), and in the orbit-point check of the raw-matrix entry
points.

A coset g*P is identified without stripping by ``coset_key``: the image
M_g u_P of a vector u_P whose stabiliser is exactly P, read with the same
shifts and additions.  Besides the maximal parabolics D8, D10 and D4 there
is the trivial one, ``CAY``: its base point rho = u_D8 + u_D10 + u_D4 has
trivial stabiliser, so an element g is its own coset g*CAY, keyed by
g rho, and the Cayley graph is the coset graph of CAY.  Words and minimal
representatives are read off orbit points (the numbers game, Bjorner &
Brenti, *Combinatorics of Coxeter Groups*, 4.3): for g minimal in g*P, x
is a left descent of g iff 2B(a_x, g u_P) > 0, one exact sign of a
shift-and-add form, and reflecting the point by x changes only its
coordinate x.  Peeling the least such x until a known point is reached
gives the ShortLex word, and the minimal representative is rebuilt from
the known suffix by one add-only generator product per letter.
Representatives are memoised by point, so a coset costs one peeled letter
per suffix not seen before.

The minimal representative of a double coset P*g*Q is peeled the same way:
left descents in P only, off the point of g*Q (Deodhar's lemma).  A right
descent x of g is one exact sign of the root g a_x against rho.  Each
descent test is an exact sign of a shift-and-add form, and the parity of
an element is that of its word's length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .numberfield import (
    FieldElement,
    IQ_ONE,
    IQ_PHI,
    IQ_SQRT2,
    IQ_TWO,
    IQ_ZERO,
    iq_mul,
    iq_neg,
    iq_sign,
    iq_sub,
    iq_to_field,
)

__all__ = [
    "GENERATORS",
    "GroupElement",
    "ParabolicId",
    "D8",
    "D10",
    "D4",
    "CAY",
    "PARABOLICS",
    "PARABOLIC_BY_NAME",
    "identity",
    "element_of_word",
    "word_inverse",
    "right_descents",
    "left_descents",
    "canonical_word",
    "min_coset_rep",
    "coset_key",
    "coset_rep",
    "translate_key",
    "min_double_coset_rep",
    "parabolic_elements",
    "bilinear_form_matrix",
    "generator_matrix_field",
]

GENERATORS = "rst"
_INDEX = {"r": 0, "s": 1, "t": 2}

# 2*B(a_x, a_y) over the integral basis; the dihedral exponents 4, 5, 2
# give off-diagonal values -sqrt2, -phi and 0.
_MINUS_SQRT2 = iq_neg(IQ_SQRT2)
_MINUS_PHI = iq_neg(IQ_PHI)
_TWOB = {
    "r": (IQ_TWO, _MINUS_SQRT2, IQ_ZERO),
    "s": (_MINUS_SQRT2, IQ_TWO, _MINUS_PHI),
    "t": (IQ_ZERO, _MINUS_PHI, IQ_TWO),
}

_IDENTITY_MAT = (
    IQ_ONE, IQ_ZERO, IQ_ZERO,
    IQ_ZERO, IQ_ONE, IQ_ZERO,
    IQ_ZERO, IQ_ZERO, IQ_ONE,
)


def _gen_matrix(x: str):
    """Reflection matrix: column j of M_x is e_j - 2B(a_x, a_j) e_x."""
    i = _INDEX[x]
    row = _TWOB[x]
    mat = list(_IDENTITY_MAT)
    for j in range(3):
        mat[3 * i + j] = iq_sub(mat[3 * i + j], row[j])
    return tuple(mat)


_GEN_MATS = {x: _gen_matrix(x) for x in GENERATORS}


def _mat_mul_gen_right(m, x: str):
    """m * M_x by additions: row x of M_x is e_x - 2B(a_x, -), so each row
    u of m goes to (-u0, u1 + sqrt2 u0, u2) for r, (u0 + sqrt2 u1, -u1,
    u2 + phi u1) for s and (u0, u1 + phi u2, -u2) for t.

    Over the integral basis, sqrt2 * (a, b, c, d) = (2b, a, 2d, c) and
    phi * (a, b, c, d) = (c, d, a + c, b + d).
    """
    ((a00, b00, c00, d00), (a01, b01, c01, d01), (a02, b02, c02, d02),
     (a10, b10, c10, d10), (a11, b11, c11, d11), (a12, b12, c12, d12),
     (a20, b20, c20, d20), (a21, b21, c21, d21), (a22, b22, c22, d22)) = m
    if x == "r":
        return (
            (-a00, -b00, -c00, -d00), (a01 + 2 * b00, b01 + a00, c01 + 2 * d00, d01 + c00), m[2],
            (-a10, -b10, -c10, -d10), (a11 + 2 * b10, b11 + a10, c11 + 2 * d10, d11 + c10), m[5],
            (-a20, -b20, -c20, -d20), (a21 + 2 * b20, b21 + a20, c21 + 2 * d20, d21 + c20), m[8],
        )
    if x == "s":
        return (
            (a00 + 2 * b01, b00 + a01, c00 + 2 * d01, d00 + c01), (-a01, -b01, -c01, -d01),
            (a02 + c01, b02 + d01, c02 + a01 + c01, d02 + b01 + d01),
            (a10 + 2 * b11, b10 + a11, c10 + 2 * d11, d10 + c11), (-a11, -b11, -c11, -d11),
            (a12 + c11, b12 + d11, c12 + a11 + c11, d12 + b11 + d11),
            (a20 + 2 * b21, b20 + a21, c20 + 2 * d21, d20 + c21), (-a21, -b21, -c21, -d21),
            (a22 + c21, b22 + d21, c22 + a21 + c21, d22 + b21 + d21),
        )
    if x == "t":
        return (
            m[0], (a01 + c02, b01 + d02, c01 + a02 + c02, d01 + b02 + d02), (-a02, -b02, -c02, -d02),
            m[3], (a11 + c12, b11 + d12, c11 + a12 + c12, d11 + b12 + d12), (-a12, -b12, -c12, -d12),
            m[6], (a21 + c22, b21 + d22, c21 + a22 + c22, d21 + b22 + d22), (-a22, -b22, -c22, -d22),
        )
    raise ValueError(f"bad generator {x!r}; alphabet is 'r', 's', 't'")


def _mat_mul_gen_left(m, x: str):
    """M_x * m by additions: only row x changes, to -row0 + sqrt2 row1 for
    r, sqrt2 row0 - row1 + phi row2 for s and phi row1 - row2 for t."""
    ((a00, b00, c00, d00), (a01, b01, c01, d01), (a02, b02, c02, d02),
     (a10, b10, c10, d10), (a11, b11, c11, d11), (a12, b12, c12, d12),
     (a20, b20, c20, d20), (a21, b21, c21, d21), (a22, b22, c22, d22)) = m
    if x == "r":
        return (
            (2 * b10 - a00, a10 - b00, 2 * d10 - c00, c10 - d00),
            (2 * b11 - a01, a11 - b01, 2 * d11 - c01, c11 - d01),
            (2 * b12 - a02, a12 - b02, 2 * d12 - c02, c12 - d02),
        ) + m[3:]
    if x == "s":
        return m[:3] + (
            (2 * b00 - a10 + c20, a00 - b10 + d20, 2 * d00 - c10 + a20 + c20, c00 - d10 + b20 + d20),
            (2 * b01 - a11 + c21, a01 - b11 + d21, 2 * d01 - c11 + a21 + c21, c01 - d11 + b21 + d21),
            (2 * b02 - a12 + c22, a02 - b12 + d22, 2 * d02 - c12 + a22 + c22, c02 - d12 + b22 + d22),
        ) + m[6:]
    if x == "t":
        return m[:6] + (
            (c10 - a20, d10 - b20, a10 + c10 - c20, b10 + d10 - d20),
            (c11 - a21, d11 - b21, a11 + c11 - c21, b11 + d11 - d21),
            (c12 - a22, d12 - b22, a12 + c12 - c22, b12 + d12 - d22),
        )
    raise ValueError(f"bad generator {x!r}")


@dataclass(frozen=True, eq=False)
class ParabolicId:
    """A standard parabolic subgroup, named by its type: the maximal
    dihedral D8, D10 and D4, and the trivial CAY, whose cosets are elements.

    These four are the only instances, so they compare and hash by
    identity: hashing a ``Vertex`` makes no Python-level call for its
    parabolic.
    """

    name: str
    gens: tuple[str, ...]

    def __repr__(self):
        return self.name


D8 = ParabolicId("D8", ("r", "s"))
D10 = ParabolicId("D10", ("s", "t"))
D4 = ParabolicId("D4", ("t", "r"))
CAY = ParabolicId("CAY", ())
PARABOLICS = {"D8": D8, "D10": D10, "D4": D4}  # the maximal ones
PARABOLIC_BY_NAME = {**PARABOLICS, "CAY": CAY}


def _point(m, name: str) -> tuple:
    """``name`` and M u_P as 12 ints over the integral basis, P the
    parabolic named ``name`` (see ``coset_key``; u_CAY = rho = (4 sqrt2,
    6 + 2 phi, 2 + 3 phi)).  Coordinate i is sum_j u_P[j] m_ij, by the
    sqrt2 and phi shifts of ``_mat_mul_gen_right``, so no ``iq_mul``.
    """
    ((a00, b00, c00, d00), (a01, b01, c01, d01), (a02, b02, c02, d02),
     (a10, b10, c10, d10), (a11, b11, c11, d11), (a12, b12, c12, d12),
     (a20, b20, c20, d20), (a21, b21, c21, d21), (a22, b22, c22, d22)) = m
    if name == "D8":
        return (
            name,
            2 * (d00 + c01 + a02), c00 + 2 * (d01 + b02),
            2 * (b00 + d00 + a01 + c01 + c02), a00 + c00 + 2 * (b01 + d01 + d02),
            2 * (d10 + c11 + a12), c10 + 2 * (d11 + b12),
            2 * (b10 + d10 + a11 + c11 + c12), a10 + c10 + 2 * (b11 + d11 + d12),
            2 * (d20 + c21 + a22), c20 + 2 * (d21 + b22),
            2 * (b20 + d20 + a21 + c21 + c22), a20 + c20 + 2 * (b21 + d21 + d22),
        )
    if name == "D10":
        return (
            name,
            6 * b00 - 2 * d00 + 4 * a01 + 2 * c02, 3 * a00 - c00 + 4 * b01 + 2 * d02,
            4 * d00 - 2 * b00 + 4 * c01 + 2 * (a02 + c02), 2 * c00 - a00 + 4 * d01 + 2 * (b02 + d02),
            6 * b10 - 2 * d10 + 4 * a11 + 2 * c12, 3 * a10 - c10 + 4 * b11 + 2 * d12,
            4 * d10 - 2 * b10 + 4 * c11 + 2 * (a12 + c12), 2 * c10 - a10 + 4 * d11 + 2 * (b12 + d12),
            6 * b20 - 2 * d20 + 4 * a21 + 2 * c22, 3 * a20 - c20 + 4 * b21 + 2 * d22,
            4 * d20 - 2 * b20 + 4 * c21 + 2 * (a22 + c22), 2 * c20 - a20 + 4 * d21 + 2 * (b22 + d22),
        )
    if name == "D4":
        return (
            name,
            2 * (b00 + a01) + c02, a00 + 2 * b01 + d02,
            2 * (d00 + c01) + a02 + c02, c00 + 2 * d01 + b02 + d02,
            2 * (b10 + a11) + c12, a10 + 2 * b11 + d12,
            2 * (d10 + c11) + a12 + c12, c10 + 2 * d11 + b12 + d12,
            2 * (b20 + a21) + c22, a20 + 2 * b21 + d22,
            2 * (d20 + c21) + a22 + c22, c20 + 2 * d21 + b22 + d22,
        )
    if name == "CAY":
        return (
            name,
            8 * b00 + 6 * a01 + 2 * (c01 + a02) + 3 * c02, 4 * a00 + 6 * b01 + 2 * (d01 + b02) + 3 * d02,
            8 * (d00 + c01) + 2 * a01 + 3 * a02 + 5 * c02, 4 * c00 + 8 * d01 + 2 * b01 + 3 * b02 + 5 * d02,
            8 * b10 + 6 * a11 + 2 * (c11 + a12) + 3 * c12, 4 * a10 + 6 * b11 + 2 * (d11 + b12) + 3 * d12,
            8 * (d10 + c11) + 2 * a11 + 3 * a12 + 5 * c12, 4 * c10 + 8 * d11 + 2 * b11 + 3 * b12 + 5 * d12,
            8 * b20 + 6 * a21 + 2 * (c21 + a22) + 3 * c22, 4 * a20 + 6 * b21 + 2 * (d21 + b22) + 3 * d22,
            8 * (d20 + c21) + 2 * a21 + 3 * a22 + 5 * c22, 4 * c20 + 8 * d21 + 2 * b21 + 3 * b22 + 5 * d22,
        )
    raise ValueError(f"unknown parabolic {name!r}")


def _twob(p, x: str):
    """2B(a_x, v) for the point v of a key ``p``: row x of ``_TWOB`` against
    v's coordinates, by the sqrt2 and phi shifts."""
    _, a0, b0, c0, d0, a1, b1, c1, d1, a2, b2, c2, d2 = p
    if x == "r":  # 2 v_r - sqrt2 v_s
        return (2 * (a0 - b1), 2 * b0 - a1, 2 * (c0 - d1), 2 * d0 - c1)
    if x == "s":  # -sqrt2 v_r + 2 v_s - phi v_t
        return (2 * (a1 - b0) - c2, 2 * b1 - a0 - d2, 2 * (c1 - d0) - a2 - c2, 2 * d1 - c0 - b2 - d2)
    return (2 * a2 - c1, 2 * b2 - d1, 2 * c2 - a1 - c1, 2 * d2 - b1 - d1)  # -phi v_s + 2 v_t


def _least_descent(p, gens=GENERATORS):
    """(x, key of s_x v) for the first x of ``gens`` with 2B(a_x, v) > 0, v
    the point of ``p``, or None when there is none (with all of ``gens``:
    when v lies in the closed negated chamber).  The reflection s_x v =
    v - 2B(a_x, v) a_x changes coordinate x only."""
    for x in gens:
        v = _twob(p, x)
        if iq_sign(v) > 0:
            i = 1 + 4 * _INDEX[x]
            return x, p[:i] + (p[i] - v[0], p[i + 1] - v[1], p[i + 2] - v[2], p[i + 3] - v[3]) + p[i + 4:]
    return None


def coset_rep(key: tuple) -> "GroupElement":
    """The minimal representative of the coset with ``coset_key`` ``key``,
    carrying its ShortLex-least word.

    For g minimal in g*P, x is a left descent iff 2B(a_x, g u_P) > 0 (a
    negative root g^-1 a_x pairs positively with u_P unless it is a root of
    P, which minimality excludes), and s_x g is minimal in the coset of the
    reflected point.  So least descents are peeled off the point until a
    memoised one, and each representative passed is rebuilt as M_x times
    its suffix's.  An orbit meets the closed negated chamber only in its
    base point (Tits), so a point there that is not memoised raises.  The
    key must come from a group element: a point outside the cone of rho
    never reaches the chamber, so keys read off raw matrices go through
    ``_checked_rep``.
    """
    rep = _REPS.get(key)
    if rep is not None:
        return rep
    passed = []
    while rep is None:
        step = _least_descent(key)
        if step is None:
            raise ArithmeticError("matrix is not in the reflection group "
                                  "(its orbit point has no descent)")
        passed.append((key, step[0]))
        key = step[1]
        rep = _REPS.get(key)
    for key, x in reversed(passed):
        up = GroupElement(_mat_mul_gen_left(rep.mat, x))
        up._word = x + rep._word
        _REPS[key] = rep = up
    return rep


def translate_key(g: "GroupElement", key: tuple) -> tuple:
    """g.k = (Q, M_g u) for a coset key k = (Q, u): the key of g*h*Q when k
    keys h*Q.  Coordinate i is sum_j m_ij u_j by ``iq_mul`` unrolled over
    the integral basis: iq_mul(x, u_j) is linear in x, with the
    coefficients of u_j computed once per call."""
    name, e0, f0, g0, h0, e1, f1, g1, h1, e2, f2, g2, h2 = key
    F0, H0, EG0, FH0, D0 = 2 * f0, 2 * h0, e0 + g0, f0 + h0, 2 * (f0 + h0)
    F1, H1, EG1, FH1, D1 = 2 * f1, 2 * h1, e1 + g1, f1 + h1, 2 * (f1 + h1)
    F2, H2, EG2, FH2, D2 = 2 * f2, 2 * h2, e2 + g2, f2 + h2, 2 * (f2 + h2)
    ((a0, b0, c0, d0), (a1, b1, c1, d1), (a2, b2, c2, d2),
     (a3, b3, c3, d3), (a4, b4, c4, d4), (a5, b5, c5, d5),
     (a6, b6, c6, d6), (a7, b7, c7, d7), (a8, b8, c8, d8)) = g.mat
    return (
        name,
        a0 * e0 + b0 * F0 + c0 * g0 + d0 * H0 + a1 * e1 + b1 * F1 + c1 * g1 + d1 * H1
        + a2 * e2 + b2 * F2 + c2 * g2 + d2 * H2,
        a0 * f0 + b0 * e0 + c0 * h0 + d0 * g0 + a1 * f1 + b1 * e1 + c1 * h1 + d1 * g1
        + a2 * f2 + b2 * e2 + c2 * h2 + d2 * g2,
        a0 * g0 + b0 * H0 + c0 * EG0 + d0 * D0 + a1 * g1 + b1 * H1 + c1 * EG1 + d1 * D1
        + a2 * g2 + b2 * H2 + c2 * EG2 + d2 * D2,
        a0 * h0 + b0 * g0 + c0 * FH0 + d0 * EG0 + a1 * h1 + b1 * g1 + c1 * FH1 + d1 * EG1
        + a2 * h2 + b2 * g2 + c2 * FH2 + d2 * EG2,
        a3 * e0 + b3 * F0 + c3 * g0 + d3 * H0 + a4 * e1 + b4 * F1 + c4 * g1 + d4 * H1
        + a5 * e2 + b5 * F2 + c5 * g2 + d5 * H2,
        a3 * f0 + b3 * e0 + c3 * h0 + d3 * g0 + a4 * f1 + b4 * e1 + c4 * h1 + d4 * g1
        + a5 * f2 + b5 * e2 + c5 * h2 + d5 * g2,
        a3 * g0 + b3 * H0 + c3 * EG0 + d3 * D0 + a4 * g1 + b4 * H1 + c4 * EG1 + d4 * D1
        + a5 * g2 + b5 * H2 + c5 * EG2 + d5 * D2,
        a3 * h0 + b3 * g0 + c3 * FH0 + d3 * EG0 + a4 * h1 + b4 * g1 + c4 * FH1 + d4 * EG1
        + a5 * h2 + b5 * g2 + c5 * FH2 + d5 * EG2,
        a6 * e0 + b6 * F0 + c6 * g0 + d6 * H0 + a7 * e1 + b7 * F1 + c7 * g1 + d7 * H1
        + a8 * e2 + b8 * F2 + c8 * g2 + d8 * H2,
        a6 * f0 + b6 * e0 + c6 * h0 + d6 * g0 + a7 * f1 + b7 * e1 + c7 * h1 + d7 * g1
        + a8 * f2 + b8 * e2 + c8 * h2 + d8 * g2,
        a6 * g0 + b6 * H0 + c6 * EG0 + d6 * D0 + a7 * g1 + b7 * H1 + c7 * EG1 + d7 * D1
        + a8 * g2 + b8 * H2 + c8 * EG2 + d8 * D2,
        a6 * h0 + b6 * g0 + c6 * FH0 + d6 * EG0 + a7 * h1 + b7 * g1 + c7 * FH1 + d7 * EG1
        + a8 * h2 + b8 * g2 + c8 * FH2 + d8 * EG2,
    )


def _form(p, q):
    """2B(v, w) for the points v, w of keys ``p`` and ``q``."""
    out = IQ_ZERO
    for i, x in enumerate(GENERATORS):
        t = iq_mul(_twob(p, x), q[1 + 4 * i:5 + 4 * i])
        out = (out[0] + t[0], out[1] + t[1], out[2] + t[2], out[3] + t[3])
    return out


def _checked_rep(key: tuple) -> "GroupElement":
    """``coset_rep`` for a key read off a matrix that may lie outside W.

    A point not memoised is peeled only if 2B(v, v) equals its base point's
    (W preserves B) and B(v, rho) < 0.  The form has signature (2, 1) and the
    base points are timelike, so such a v lies in the open cone of rho, the
    interior of the Tits cone of this cocompact group, and the peel reaches
    the closed negated chamber in finitely many steps.  A point outside that
    cone (the image under -I, say) would be peeled forever.
    """
    rep = _REPS.get(key)
    if rep is None:
        if _form(key, key) != _NORMS[key[0]] or iq_sign(_form(key, _RHO)) >= 0:
            raise ArithmeticError("matrix is not in the reflection group "
                                  "(it does not preserve the cone of rho)")
        rep = coset_rep(key)
    return rep


class GroupElement:
    """Element of W, identified with its reflection-representation matrix.

    Immutable; the canonical word is computed at most once and cached.
    Instances hash and compare by matrix, which is exact.
    """

    __slots__ = ("mat", "_word")

    def __init__(self, mat):
        self.mat = mat
        self._word = None

    def __eq__(self, other):
        if isinstance(other, GroupElement):
            return self.mat == other.mat
        return NotImplemented

    def __hash__(self):
        return hash(self.mat)

    def __repr__(self):
        return f"GroupElement({self.canonical_word()!r})"

    def __mul__(self, other):
        if isinstance(other, GroupElement):
            return self.times(other.canonical_word())
        return NotImplemented

    def times(self, word: str) -> "GroupElement":
        """This element times the product of the letters of ``word``, one
        add-only generator product per letter."""
        mat = self.mat
        for x in word:
            mat = _mat_mul_gen_right(mat, x)
        return GroupElement(mat)

    def inverse_times(self, other: "GroupElement") -> "GroupElement":
        """self^-1 * other: other's matrix left-multiplied by the letters of
        this element's ShortLex word in order, one add-only generator
        product per letter (generators are involutions)."""
        mat = other.mat
        for x in self.canonical_word():
            mat = _mat_mul_gen_left(mat, x)
        return GroupElement(mat)

    def inverse(self) -> "GroupElement":
        """The walk along this element's reversed ShortLex word."""
        return _IDENT.times(self.canonical_word()[::-1])

    def is_identity(self) -> bool:
        return self.mat == _IDENTITY_MAT

    def canonical_word(self) -> str:
        """ShortLex-least (r < s < t) reduced word for this element, peeled
        off its point ``g rho``, which only this element maps rho to."""
        if self._word is None:
            rep = _checked_rep(_point(self.mat, "CAY"))
            if rep.mat != self.mat:
                raise ArithmeticError("matrix is not in the reflection group "
                                      "(it moves rho like another element)")
            self._word = rep._word
        return self._word

    def length(self) -> int:
        return len(self.canonical_word())

    def matrix(self) -> tuple[tuple[FieldElement, ...], ...]:
        """The matrix over the public basis {1, sqrt2, sqrt5, sqrt10}."""
        f = [iq_to_field(x) for x in self.mat]
        return (tuple(f[0:3]), tuple(f[3:6]), tuple(f[6:9]))

    def serialize(self) -> str:
        return ";".join(iq_to_field(x).serialize() for x in self.mat)

    def det_is_even(self) -> bool:
        """True iff det = +1, i.e. the Coxeter length is even (each
        reflection has det -1)."""
        return len(self.canonical_word()) % 2 == 0


_IDENT = GroupElement(_IDENTITY_MAT)
_GENS = {x: GroupElement(_GEN_MATS[x]) for x in GENERATORS}
for _x, _g in _GENS.items():
    _g._word = _x
_IDENT._word = ""

# Minimal coset representatives by orbit-point key, seeded with the base
# points.  Representatives in use (as in a BFS ball) are the stored
# objects themselves.  The memo grows for the life of the process.
_REPS: dict[tuple, GroupElement] = {
    _point(_IDENTITY_MAT, name): _IDENT for name in PARABOLIC_BY_NAME}
_RHO = _point(_IDENTITY_MAT, "CAY")
# 2B(u, u) for each base point u, keyed by name
_NORMS = {key[0]: _form(key, key) for key in _REPS}


def identity() -> GroupElement:
    return _IDENT


def element_of_word(word: str) -> GroupElement:
    """Product of generator matrices; the empty word is the identity."""
    return _IDENT.times(word)


def word_inverse(word: str) -> str:
    # generators are involutions
    return word[::-1]


def right_descents(g: GroupElement) -> set[str]:
    """Generators x with length(g*x) < length(g): g a_x, column x of M_g, is
    a negative root, i.e. 2B(g a_x, rho) > 0.  As 2B(a_y, rho) is (1 - phi)
    times 2 sqrt2, 1 and 2 for y = r, s, t and 1 - phi < 0, that is
    2 sqrt2 v_r + v_s + 2 v_t < 0 for v = g a_x, one exact sign by the sqrt2
    shift.  g's rho-point is checked first, so a matrix outside W raises."""
    g.canonical_word()
    m = g.mat
    out = set()
    for j, x in enumerate(GENERATORS):
        (a0, b0, c0, d0), (a1, b1, c1, d1), (a2, b2, c2, d2) = m[j], m[3 + j], m[6 + j]
        if iq_sign((4 * b0 + a1 + 2 * a2, 2 * a0 + b1 + 2 * b2,
                    4 * d0 + c1 + 2 * c2, 2 * c0 + d1 + 2 * d2)) < 0:
            out.add(x)
    return out


def left_descents(g: GroupElement) -> set[str]:
    """Generators x with length(x*g) < length(g): 2B(a_x, g rho) > 0.  g's
    own rho-point is checked first, as by ``right_descents``."""
    g.canonical_word()
    p = _point(g.mat, "CAY")
    return {x for x in GENERATORS if iq_sign(_twob(p, x)) > 0}


def canonical_word(g: GroupElement) -> str:
    return g.canonical_word()


@cache
def parabolic_elements(p: ParabolicId) -> tuple[GroupElement, ...]:
    """All elements of the subgroup, by closure; sorted by (length, word)."""
    seen = {_IDENTITY_MAT: _IDENT}
    frontier = [_IDENT]
    while frontier:
        nxt = []
        for g in frontier:
            for x in p.gens:
                mat = _mat_mul_gen_right(g.mat, x)
                if mat not in seen:
                    h = GroupElement(mat)
                    seen[mat] = h
                    nxt.append(h)
        frontier = nxt
    return tuple(sorted(seen.values(), key=lambda g: (g.length(), g.canonical_word())))


def min_coset_rep(g: GroupElement, p: ParabolicId) -> GroupElement:
    """Unique shortest element of the coset g*P (no right descent in P),
    peeled off its key; callers holding the key call ``coset_rep``.

    g's own rho-point is checked first, as by ``canonical_word``, so a
    matrix outside W raises ``ArithmeticError`` (see ``_checked_rep``) even
    where it fixes u_P, whose key is a memoised base point.
    """
    g.canonical_word()
    return coset_rep(coset_key(g, p))


def coset_key(g: GroupElement, p: ParabolicId) -> tuple:
    """Exact identity of the coset g*P without stripping: P's name and the
    image M_g u_P as 12 ints over the integral basis.

    u_P is fixed by exactly the generators of P (2B(a_x, u_P) = 0 for x in
    P): u_D8 = (sqrt2 phi, 2 phi, 2), u_D10 = (sqrt2 (3 - phi), 4, 2 phi),
    u_D4 = (sqrt2, 2, phi) and u_CAY = rho, their sum, in simple-root
    coordinates.  Each lies in the closed (negated) fundamental chamber,
    whose points have as stabiliser the standard parabolic fixing them
    (Tits), so g u_P = h u_P iff g*P = h*P.

    g is not checked: this is the hot path of the ball walk, and a matrix
    outside W gets a key all the same.  ``min_coset_rep`` and
    ``complexgraph.make_vertex`` are the checked entry points.
    """
    return _point(g.mat, p.name)


def min_double_coset_rep(g: GroupElement, p: ParabolicId, q: ParabolicId) -> GroupElement:
    """Unique shortest element of P*g*Q, carrying its ShortLex word.

    Left descents in P are peeled off the point of g*Q, as ``coset_rep``
    peels any descent.  By Deodhar's lemma (Bjorner & Brenti, ch. 2) x w is
    minimal in x w Q whenever w is minimal in w Q and x is a left descent
    of w, so every point passed keys the minimal representative of its
    coset, and the last one, with no left descent in P, keys the minimal
    representative of the double coset.  g's own rho-point is checked
    first, as by ``min_coset_rep``, so a matrix outside W raises
    ``ArithmeticError`` and is never peeled.
    """
    g.canonical_word()
    key = coset_key(g, q)
    while True:
        step = _least_descent(key, p.gens)
        if step is None:
            return coset_rep(key)
        key = step[1]


def bilinear_form_matrix() -> tuple[tuple[FieldElement, ...], ...]:
    """Gram matrix B of the form, over the public basis."""
    from .numberfield import COS_PI_4, COS_PI_5, ONE, ZERO

    b_rs = -COS_PI_4
    b_st = -COS_PI_5
    b_tr = ZERO
    return (
        (ONE, b_rs, b_tr),
        (b_rs, ONE, b_st),
        (b_tr, b_st, ONE),
    )


def generator_matrix_field(x: str) -> tuple[tuple[FieldElement, ...], ...]:
    return _GENS[x].matrix()
