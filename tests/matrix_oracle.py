"""The generic matrix kernel, kept as the oracle for the word walks and the
orbit-point peels of ``cox245.coxeter``: the product by ``iq_mul``, the
adjugate inverse and determinant, root-sign descent tests and the
alternating double-coset strip.  The package itself uses none of them.
"""

import cox245.coxeter as coxeter
from cox245.coxeter import GroupElement
from cox245.numberfield import IQ_ONE, iq_mul, iq_neg, iq_sign, iq_sub

def mat_mul(m, n):
    (a0, a1, a2, a3, a4, a5, a6, a7, a8) = m
    (b0, b1, b2, b3, b4, b5, b6, b7, b8) = n

    def cell(x, y, z, u, v, w):
        p = iq_mul(x, u)
        q = iq_mul(y, v)
        r = iq_mul(z, w)
        return (p[0] + q[0] + r[0], p[1] + q[1] + r[1],
                p[2] + q[2] + r[2], p[3] + q[3] + r[3])
    return (
        cell(a0, a1, a2, b0, b3, b6), cell(a0, a1, a2, b1, b4, b7), cell(a0, a1, a2, b2, b5, b8),
        cell(a3, a4, a5, b0, b3, b6), cell(a3, a4, a5, b1, b4, b7), cell(a3, a4, a5, b2, b5, b8),
        cell(a6, a7, a8, b0, b3, b6), cell(a6, a7, a8, b1, b4, b7), cell(a6, a7, a8, b2, b5, b8),
    )


def mat_det(m):
    t1 = iq_mul(m[0], iq_sub(iq_mul(m[4], m[8]), iq_mul(m[5], m[7])))
    t2 = iq_mul(m[1], iq_sub(iq_mul(m[3], m[8]), iq_mul(m[5], m[6])))
    t3 = iq_mul(m[2], iq_sub(iq_mul(m[3], m[7]), iq_mul(m[4], m[6])))
    return (t1[0] - t2[0] + t3[0], t1[1] - t2[1] + t3[1],
            t1[2] - t2[2] + t3[2], t1[3] - t2[3] + t3[3])


def mat_inv(m):
    """Inverse via the adjugate; valid because det = +-1 in this group."""
    det = mat_det(m)
    # the transposed cofactor matrix, cell by cell
    idx = ((4, 8, 5, 7), (2, 7, 1, 8), (1, 5, 2, 4),
           (5, 6, 3, 8), (0, 8, 2, 6), (2, 3, 0, 5),
           (3, 7, 4, 6), (1, 6, 0, 7), (0, 4, 1, 3))
    cof = tuple(iq_sub(iq_mul(m[p], m[q]), iq_mul(m[u], m[v])) for p, q, u, v in idx)
    if det == IQ_ONE:
        return cof
    if det == iq_neg(IQ_ONE):
        return tuple(iq_neg(x) for x in cof)
    raise ArithmeticError("matrix is not in the reflection group (det != +-1)")


def column_root_sign(m, x: str) -> int:
    """+1 if g(a_x), column x of m, is a positive root, -1 if negative.

    Roots are totally positive or totally negative in simple-root
    coordinates; all three coordinates are checked.
    """
    j = "rst".index(x)
    sign = 0
    for i in range(3):
        s = iq_sign(m[3 * i + j])
        if s == 0:
            continue
        if sign == 0:
            sign = s
        elif s != sign:
            raise ArithmeticError("mixed-sign root coordinates; representation broken")
    if sign == 0:
        raise ArithmeticError("zero image of a simple root")
    return sign


def generic_product(word):
    """The matrix of ``word`` by generic products of generator matrices."""
    mat = coxeter._IDENTITY_MAT
    for x in word:
        mat = mat_mul(mat, coxeter._GEN_MATS[x])
    return mat


def right_descents(g) -> set[str]:
    """x with g a_x a negative root."""
    return {x for x in "rst" if column_root_sign(g.mat, x) < 0}


def left_descents(g) -> set[str]:
    """x with g^-1 a_x a negative root."""
    inv = mat_inv(g.mat)
    return {x for x in "rst" if column_root_sign(inv, x) < 0}


def min_double_coset_rep(g, p, q):
    """Shortest element of P*g*Q by alternately stripping right descents in
    Q and left descents in P off the matrix and its adjugate inverse; the
    element this stabilises on is reduced on both sides."""
    mat = g.mat
    inv = mat_inv(mat)
    changed = True
    while changed:
        changed = False
        for x in q.gens:
            if column_root_sign(mat, x) < 0:
                mat = coxeter._mat_mul_gen_right(mat, x)
                inv = coxeter._mat_mul_gen_left(inv, x)
                changed = True
        for x in p.gens:
            if column_root_sign(inv, x) < 0:  # left descent of g
                mat = coxeter._mat_mul_gen_left(mat, x)
                inv = coxeter._mat_mul_gen_right(inv, x)
                changed = True
    return GroupElement(mat)
