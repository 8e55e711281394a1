"""The (2,4,5) triangle Coxeter group via its reflection representation.

W = <r, s, t | r^2 = s^2 = t^2 = (rs)^4 = (st)^5 = (tr)^2 = 1> acts on a
3-dimensional real vector space with bilinear form B(a_i, a_j) =
-cos(pi/m_ij); each generator is the B-reflection in its simple root.  The
representation is faithful, so equality of group elements is equality of
matrices, and the word problem costs nothing beyond exact arithmetic.

Matrices are flat 9-tuples (row major) of integral quartic vectors from
:mod:`cox245.numberfield`.  A generator product, on either side, needs
only negations, additions and the sqrt2 and phi shifts of the integral
basis.  It and the other kernels (orbit points, forms 2B(a_x, -), simple
reflections of points, the least-descent step, ``translate_key`` and
``wall_keys``) are compiled at import from the Gram matrix, the base points
and the shifts (``_compile``), with only the terms the sqrt2-grading below
leaves nonzero.
``GroupElement.times``, ``g * h`` and ``g.inverse()`` walk a word, one
generator product per letter; no matrix is inverted.  Keys need no walk:
``wall_keys`` gives the cosets g*w*P of fixed words w as the key of g*P
minus M_g delta_w, delta_w = u_P - M_w u_P; ``translate_key`` moves a seed
key by g, and ``orbit_keys`` the rest of its P-orbit, each point as the
one it reflects (s_x c = c - 2B(a_x, c) a_x) minus a multiple of column x
of M_g, read once by ``orbit_plan``; ``key_orbit`` gives the P-orbit of a
key itself, each point a simple reflection of an earlier one.  ``iq_mul``
remains only in ``_form``, the orbit-point check of the raw-matrix entry
points.

The sqrt2-grading.  Write Z[phi] for the integer span of 1 and phi, so the
integral basis spans Z[phi] + sqrt2 Z[phi], and call sum_j c_j a_j a
vector of type e (mod 2) when c_r lies in sqrt2^(1+e) Z[phi] and c_s, c_t
in sqrt2^e Z[phi] (sqrt2^2 Z[phi] = 2 Z[phi] lies in Z[phi]).  a_r has
type 1 and a_s, a_t type 0.  *Lemma:* every element of W maps each type to
itself.  *Proof:* s_x c = c - 2B(a_x, c) a_x changes coordinate x only.
2B(a_x, a_y) lies in Z[phi] except for the -sqrt2 between r and s, so for
c of type e, 2B(a_r, c) = 2 c_r - sqrt2 c_s lies in sqrt2^(1+e) Z[phi], as
c_r does, and 2B(a_s, c) = -sqrt2 c_r + 2 c_s - phi c_t and 2B(a_t, c) =
-phi c_s + 2 c_t lie in sqrt2^e Z[phi], as c_s and c_t do; the new
coordinate x keeps its grade.  So the generators keep the type, and so
does W.  Hence column j of M_g, the image of a_j, has a_j's type, and
entry (i, j) of every matrix in W lies in sqrt2 Z[phi] exactly when one of
i, j is r, and in Z[phi] otherwise: 18 of its 36 ints are zero.  The base
points u_P and rho below have type 0, so every orbit point has type 0:
its ints of 1 and phi in r and of sqrt2 and sqrt2 phi in s and t are
zero.  A coset key holds only the other six, the on-grade ints (``_ON_GRADE``),
so it has no place for an off-grade int.  The matrix kernels neither read
nor compute the off-grade ints of a matrix (they unpack them into ``_``),
so a matrix with no word is checked before a kernel reads it
(``_graded_mat``).

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
gives the ShortLex word at once; the minimal representative's matrix is
built from the known suffix's by one add-only generator product per
letter, when it is first read.  One step, the sign tests of the letters
in order and the reflection of the first that descends, is one compiled
function per generator tuple (``_descent_kernel``): ``rst`` for cosets,
each maximal parabolic's pair for double cosets.  Representatives are
memoised by point, so a coset costs one peeled letter per suffix not seen
before, and a ball builds the matrices of the vertices it expands and
their suffixes only.  ``coset_reps`` is the one peel loop: it takes a
batch of keys (a ball passes a whole level, ``coset_rep`` one key), and
most keys a ball meets take one descent onto a memoised point.

The minimal representative of a double coset P*g*Q is peeled the same way:
left descents in P only, off the point of g*Q (Deodhar's lemma), and
``pair_words`` reads both double cosets of a pair (g*P, h*Q) off points
alone.  The right descents of g are the left descents of g^-1, and the
parity of an element is that of its word's length.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter

from .numberfield import (
    IQ_ONE,
    IQ_PHI,
    IQ_SQRT2,
    IQ_TWO,
    IQ_ZERO,
    PHI_POSITIVE,
    iq_mul,
    iq_neg,
    iq_sign,
    iq_sub,
    phi_sign,
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
    "right_descents",
    "left_descents",
    "min_coset_rep",
    "coset_key",
    "coset_rep",
    "coset_reps",
    "word_coset_rep",
    "translate_key",
    "orbit_plan",
    "orbit_keys",
    "key_orbit",
    "wall_keys",
    "min_double_coset_rep",
    "pair_words",
    "parabolic_elements",
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

# the reflection M_x: column j is e_j - 2B(a_x, a_j) e_x, so only row x is not I's
_GEN_MATS = {x: _IDENTITY_MAT[:3 * i] + tuple(map(iq_sub, _IDENTITY_MAT[3 * i:3 * i + 3], _TWOB[x]))
             + _IDENTITY_MAT[3 * i + 3:] for i, x in enumerate(GENERATORS)}

# u_P in simple-root coordinates (see ``coset_key``), and rho, their sum
_BASE_POINTS = {
    "D8": ((0, 0, 0, 1), (0, 0, 2, 0), (2, 0, 0, 0)),
    "D10": ((0, 3, 0, -1), (4, 0, 0, 0), (0, 0, 2, 0)),
    "D4": ((0, 1, 0, 0), (2, 0, 0, 0), (0, 0, 1, 0)),
}
_BASE_POINTS["CAY"] = tuple(tuple(map(sum, zip(*us))) for us in zip(*_BASE_POINTS.values()))

# The sqrt2-grading (see the module docstring): the grade of each coordinate
# of a type-0 vector, r, s, t in order.  Grade 1 coordinates lie in sqrt2
# Z[phi] (ints 1 and 3 of the integral basis), grade 0 ones in Z[phi] (ints
# 0 and 2); entry (i, j) of a matrix in W has the grade of coordinate i plus
# that of j, mod 2.
_GRADES = (1, 0, 0)

# The on-grade ints of a type-0 point, by their position among its 12 ints
# over the integral basis (int c of coordinate k is position 4k + c): a
# coset key is its parabolic's name and these six, in this order.
_ON_GRADE = tuple(4 * k + c for k in range(3) for c in range(4) if c % 2 == _GRADES[k])

# Each kernel below is a constant (a generator matrix, a base point, a row of
# _TWOB) times the ints of its argument, compiled once to straight-line
# source: int c of entry k of a matrix is the symbol m{4k + c}, int n of a
# key p_n, and each int of a product is a form {symbol: coefficient}
# (``translate_key``'s symbols are products 'm1 * p_2').  An off-grade int
# is the symbol None, unpacked into ``_``; no form holds it.
_M = [tuple(f"m{4 * k + c}" if c % 2 == _GRADES[k // 3] ^ _GRADES[k % 3] else None for c in range(4))
      for k in range(9)]
_P = [tuple(f"p_{_ON_GRADE.index(4 * k + c)}" if 4 * k + c in _ON_GRADE else None for c in range(4))
      for k in range(3)]
_UNPACK_M = ", ".join(f"({', '.join(v or '_' for v in e)})" for e in _M)
_UNPACK_P = "_, " + ", ".join(f"p_{n}" for n in range(len(_ON_GRADE)))
_on_grade = itemgetter(*_ON_GRADE)  # a key's ints among a point's 12


def _shifts(q):
    """q times 1, sqrt2, phi and sqrt2 phi over the integral basis: sqrt2 *
    (a, b, c, d) = (2b, a, 2d, c) and phi * (a, b, c, d) = (c, d, a + c, b + d)."""
    a, b, c, d = q
    return q, (2 * b, a, 2 * d, c), (c, d, a + c, b + d), (2 * d, c, 2 * (b + d), a + c)


def _dot(consts, entries) -> tuple[dict[str, int], ...]:
    """sum_j consts[j] entries[j] for entries of distinct symbols and consts
    constant quartic integers or symbol quartets: q e is sum_c e_c (q times
    basis element c), by the shifts of q, and a symbol quartet q is
    sum_d q_d (basis element d, the d-th shift of 1), a product term
    'e_c * q_d'.  Symbols None (off-grade ints) add no term."""
    out = ({}, {}, {}, {})
    for q, symbols in zip(consts, entries):
        terms = ([(q, "")] if all(type(a) is int for a in q)
                 else [(u, f" * {s}") for u, s in zip(_shifts(IQ_ONE), q) if s])
        for k, factor in terms:
            for v, prod in zip(symbols, _shifts(k)):
                if v is None:
                    continue
                for o, a in enumerate(prod):
                    if a:
                        out[o][v + factor] = a
    return out


def _point_forms(u) -> list[dict[str, int]]:
    """The on-grade ints of M u as forms in the ints of M, for a constant
    vector u or a key's point ``_P``."""
    return _on_grade([f for i in range(3) for f in _dot(u, _M[3 * i:3 * i + 3])])


def _sum_source(form: dict[str, int]) -> str:
    """Source of sum_v form[v] v, symbols grouped by the size of their
    coefficient, positive terms first: {'m5': 2, 'm0': -2, 'm1': -1, 'm2':
    -1} reads ``2 * (m5 - m0) - (m1 + m2)``, and the empty form ``0``."""
    groups: dict[int, list[tuple[bool, str]]] = {}
    for v, a in form.items():
        groups.setdefault(abs(a), []).append((a < 0, v))
    out = ""
    for k, terms in sorted(groups.items(), key=lambda item: all(n for n, _ in item[1])):
        terms.sort(key=lambda term: term[0])
        neg = terms[0][0]  # the whole group is negative
        group = terms[0][1] + "".join(f" {'+' if n == neg else '-'} {v}" for n, v in terms[1:])
        if len(terms) > 1 and (k != 1 or neg):
            group = f"({group})"
        if k != 1:
            group = f"{k} * {group}"
        out += f" {'-' if neg else '+'} {group}" if out else f"-{group}" if neg else group
    return out or "0"


def _entry_source(forms) -> str:
    return f"({', '.join(map(_sum_source, forms))})"


def _product_source(c, left: bool) -> str:
    """Source of c m (``left``) or m c for a constant flat matrix c; an entry
    the product leaves alone is passed through as m[k]."""
    pairs = [(c[3 * i:3 * i + 3], _M[j::3]) if left else (c[j::3], _M[3 * i:3 * i + 3])
             for i in range(3) for j in range(3)]
    same = [tuple({v: 1} if v else {} for v in e) for e in _M]  # the forms of m's own entries
    entries = (_dot(q, e) for q, e in pairs)
    return f"({', '.join(f'm[{same.index(f)}]' if f in same else _entry_source(f) for f in entries)})"


def _compile(name: str, lines: list[str]):
    """The function ``name`` defined by the source ``lines``: the package's
    one site of generated code."""
    namespace = {"__name__": __name__}
    exec(compile("\n".join(lines), f"<{name}>", "exec"), namespace)
    return namespace[name]


def _kernel(unpack: str, cases: dict[str, str], error: str):
    """Replace the decorated stub f(a, b), a docstring only, by a compiled
    function that unpacks a into ``unpack``, returns the source ``cases[b]``
    and raises ValueError(``error``, an f-string) for any other b."""
    def build(stub):
        a, b = stub.__code__.co_varnames[:2]
        lines = [f"def {stub.__name__}({a}, {b}):", f"    {unpack} = {a}"]
        for value, expr in cases.items():
            lines += [f"    if {b} == {value!r}:", f"        return {expr}"]
        fn = _compile(stub.__name__, [*lines, f"    raise ValueError(f{error!r})"])
        fn.__doc__ = stub.__doc__
        return fn
    return build


_BAD_GENERATOR = "bad generator {x!r}; alphabet is 'r', 's', 't'"


@_kernel(_UNPACK_M, {x: _product_source(_GEN_MATS[x], False) for x in GENERATORS}, _BAD_GENERATOR)
def _mat_mul_gen_right(m, x: str):
    """m * M_x by additions: row x of M_x is e_x - 2B(a_x, -), so each row
    u of m goes to (-u0, u1 + sqrt2 u0, u2) for r, (u0 + sqrt2 u1, -u1,
    u2 + phi u1) for s and (u0, u1 + phi u2, -u2) for t, by ``_shifts``.
    """


@_kernel(_UNPACK_M, {x: _product_source(_GEN_MATS[x], True) for x in GENERATORS}, "bad generator {x!r}")
def _mat_mul_gen_left(m, x: str):
    """M_x * m by additions: only row x changes, to -row0 + sqrt2 row1 for
    r, sqrt2 row0 - row1 + phi row2 for s and phi row1 - row2 for t."""


class ParabolicId:
    """A standard parabolic subgroup, named by its type: the maximal
    dihedral D8, D10 and D4, and the trivial CAY, whose cosets are elements.

    These four are the only instances, so they compare and hash by
    identity: hashing a ``Vertex`` makes no Python-level call for its
    parabolic.  The fields are read-only.
    """

    __slots__ = ("name", "gens")

    def __init__(self, name: str, gens: tuple[str, ...]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "gens", gens)

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r}")

    def __repr__(self):
        return self.name


D8 = ParabolicId("D8", ("r", "s"))
D10 = ParabolicId("D10", ("s", "t"))
D4 = ParabolicId("D4", ("t", "r"))
CAY = ParabolicId("CAY", ())
PARABOLICS = {"D8": D8, "D10": D10, "D4": D4}  # the maximal ones
PARABOLIC_BY_NAME = {**PARABOLICS, "CAY": CAY}
_PEEL_STEPS = range(10_000)  # the peel bound, built once so that a call makes no range
# the first nonzero off-grade int of a matrix, or 0 (for every matrix in W)
_OFF_M = [tuple("_" if v else f"o{4 * k + c}" for c, v in enumerate(e)) for k, e in enumerate(_M)]
_off_grade_mat = _compile("_off_grade_mat", [
    "def _off_grade_mat(m):",
    "    " + ", ".join("(" + ", ".join(e) + ")" for e in _OFF_M) + " = m",
    "    return " + " or ".join(v for e in _OFF_M for v in e if v != "_")])


@_kernel(_UNPACK_M, {name: f"(name, {', '.join(map(_sum_source, _point_forms(u)))})"
                     for name, u in _BASE_POINTS.items()}, "unknown parabolic {name!r}")
def _point(m, name: str) -> tuple:
    """``name`` and the six ints of the key M u_P, P the parabolic named
    ``name`` (see ``coset_key``; u_CAY = rho = (4 sqrt2, 6 + 2 phi, 2 + 3
    phi)).  Coordinate i is sum_j u_P[j] m_ij, by ``_shifts``: no ``iq_mul``."""


# per generator x: ``_twob``'s (b, d) as forms in a key's ints, and the
# source of ``_reflect``'s key of s_x v
_TWOB_FORMS = {x: _dot(_TWOB[x], _P)[_GRADES[i]::2] for i, x in enumerate(GENERATORS)}
_REFLECTED = {x: "(p[0], " + ", ".join(map(_sum_source, _on_grade(
    [f for k in range(3) for f in _dot(_GEN_MATS[x][3 * k:3 * k + 3], _P)]))) + ")"
              for x in GENERATORS}


@_kernel(_UNPACK_P, {x: _entry_source(_TWOB_FORMS[x]) for x in GENERATORS}, _BAD_GENERATOR)
def _twob(p, x: str):
    """(b, d) with 2B(a_x, v) = sqrt2 (b + d phi) for x = r and b + d phi
    for s and t, v the point of a key ``p``: v has type 0, so these are all
    of its ints (see the module docstring)."""


@_kernel(_UNPACK_P, _REFLECTED, _BAD_GENERATOR)
def _reflect(p, x: str):
    """The key of s_x v = M_x v for the point v of a key ``p``: s_x v = v -
    2B(a_x, v) a_x changes only the two on-grade ints of coordinate x."""


def _descent_kernel(gens):
    """The compiled least-descent step for the generators ``gens``: (x, the
    key of s_x v) for the first x of ``gens``, in order, with 2B(a_x, v) >
    0, v the point of a key, or None.  Each x tests the sign of b + d phi
    from ``_twob``'s forms by ``PHI_POSITIVE`` (``phi_sign`` inlined over
    the ints) and returns ``_reflect``'s key: one call, no loop."""
    name = f"_descent_{''.join(gens)}"
    lines = [f"def {name}(p):", f"    {_UNPACK_P} = p"]
    for x in gens:
        b, d = _TWOB_FORMS[x]
        q = {v: a for v in {**b, **d} if (a := 2 * b.get(v, 0) + d.get(v, 0))}
        lines += [f"    d = {_sum_source(d)}", f"    q = {_sum_source(q)}",
                  f"    if {PHI_POSITIVE}:", f"        return {x!r}, {_REFLECTED[x]}"]
    return _compile(name, [*lines, "    return None"])


# the step of ``coset_reps``, over all of W's generators (None only in the
# closed negated chamber), and of ``_peel``, per parabolic
_least_descent = _descent_kernel(GENERATORS)
_DESCENTS = {p: _descent_kernel(p.gens) for p in PARABOLIC_BY_NAME.values()}


def _peel(key: tuple, p: ParabolicId) -> tuple:
    """The key of d*Q, d minimal in P*g*Q, from the key of g*Q: left
    descents in P peeled off (see ``min_double_coset_rep``)."""
    descent = _DESCENTS[p]
    step = descent(key)
    while step is not None:
        key = step[1]
        step = descent(key)
    return key


def coset_reps(keys) -> list["GroupElement"]:
    """The minimal representatives of the cosets with ``coset_key`` ``keys``,
    in order, each the memoised object and carrying its ShortLex-least word:
    the package's one peel loop (``coset_rep`` is one key of it).

    For g minimal in g*P, x is a left descent iff 2B(a_x, g u_P) > 0 (a
    negative root g^-1 a_x pairs positively with u_P unless it is a root of
    P, which minimality excludes), and s_x g is minimal in the coset of the
    reflected point.  So a key not memoised has its least descents peeled
    off its point until a memoised one; each representative passed gets its
    word, x and its suffix's, and a link to the suffix's representative, so
    its matrix is built only when first read (``GroupElement``).  In a ball
    most keys take one descent onto a memoised point and pass no other.  An
    orbit meets the closed negated chamber only in its base point (Tits), so
    a point there that is not memoised raises.  A point outside the cone of
    rho never reaches the chamber, so keys read off raw matrices go through
    ``_checked_rep``; any other key off the orbit, or of an element longer
    than 10,000 letters, raises after 10,000 descents (the r12 pentagon
    ball's reps have at most 48), and a key that is not a parabolic's name
    and six ints raises ValueError before any descent.  Each key is checked
    and bounded on its own, so the keys before one that raises stay
    memoised.
    """
    reps = _REPS
    new = object.__new__  # a representative with no Python-level __init__ call
    out = []
    for key in keys:
        rep = reps.get(key)
        if rep is None:
            if len(key) != 7 or key[0] not in _BASE_KEYS:
                raise ValueError(f"not a coset key (a parabolic's name and 6 ints): {key!r}")
            passed = []
            for _ in _PEEL_STEPS:
                step = _least_descent(key)
                if step is None:
                    raise ArithmeticError("matrix is not in the reflection group "
                                          "(its orbit point has no descent)")
                x, up = step
                passed.append((key, x))
                rep = reps.get(up)
                if rep is not None:
                    for key, x in reversed(passed):  # each linked to its suffix's rep
                        up, rep = rep, new(GroupElement)
                        rep._mat, rep._word, rep._up = None, x + up._word, up
                        reps[key] = rep
                    break
                key = up
            else:
                n = len(_PEEL_STEPS)
                raise ArithmeticError(f"key off the orbit, or of an element longer than {n:,} "
                                      f"letters: no memoised point in {n} descents")
        out.append(rep)
    return out


def coset_rep(key: tuple) -> "GroupElement":
    """The minimal representative of the coset with ``coset_key`` ``key``:
    ``coset_reps`` of the one key."""
    return coset_reps((key,))[0]


def word_coset_rep(word: str, p: ParabolicId) -> "GroupElement":
    """The minimal representative of g*P for the element g of ``word``, with
    no matrix: ``coset_rep`` of u_P reflected by its letters, last first.
    The first bad letter raises, as in ``element_of_word``."""
    bad = word.lstrip(GENERATORS)
    if bad:
        raise ValueError(_BAD_GENERATOR.format(x=bad[0]))
    key = _BASE_KEYS[p.name]
    for x in reversed(word):
        key = _reflect(key, x)
    return coset_rep(key)


translate_key = _compile("translate_key", [
    "def translate_key(g, key):", f"    {_UNPACK_P} = key", f"    {_UNPACK_M} = g.mat",
    f"    return (key[0], {', '.join(map(_sum_source, _point_forms(_P)))})"])
translate_key.__doc__ = """g.k = (Q, M_g u) for a coset key k = (Q, u): the key of g*h*Q when k
    keys h*Q.  Compiled from ``_point``'s forms, with k's ints for u_P's."""


@cache
def _orbit_steps(parabolic: ParabolicId) -> tuple[tuple[int, str], ...]:
    """(index of p', x) for each element p = x p' of ``parabolic_elements``
    after the identity, p' its ShortLex word's suffix: p' comes first."""
    elements = parabolic_elements(parabolic)
    index = {g._word: i for i, g in enumerate(elements)}
    return tuple((index[g._word[1:]], g._word[0]) for g in elements[1:])


def key_orbit(key: tuple, parabolic: ParabolicId) -> list[tuple]:
    """The keys M_p c, p in ``parabolic_elements`` order, of the point c of
    a coset key ``key``: the P-orbit of the coset, with repeats where the
    coset has a stabiliser in P.  M_p c for p = x p' is the reflection s_x
    of M_p' c, one ``_reflect`` per element, which passes four of its six
    ints on unchanged."""
    out = [key]
    for i, x in _orbit_steps(parabolic):
        out.append(_reflect(out[i], x))
    return out


def orbit_plan(parabolic: ParabolicId, seeds: tuple[tuple, ...]) -> tuple[tuple, ...]:
    """The steps by which ``orbit_keys`` moves every point c of the P-orbits
    of the coset keys ``seeds`` by an element g (P = ``parabolic``), each
    point once, in seed order and ``parabolic_elements`` order, kept at its
    first occurrence (orbits are equal or disjoint).

    A seed is the step (None, c_0, None, None): one ``translate_key``.  The
    point M_p c_0 of p = x p' (p's ShortLex word) is the reflection s_x c =
    c - beta a_x of the point c of p' (``key_orbit``), beta = 2B(a_x, c),
    so g.s_x c is g.c minus beta times column x of M_g: the step (slot of
    c, index of x, b, d) for (b, d) = ``_twob(c, x)``.  The plan depends on
    P and the seeds only; callers build it once and run it per element.
    """
    slots: dict[tuple, int] = {}
    plan = []
    for seed in seeds:
        if seed in slots:
            continue
        slots[seed] = len(plan)
        plan.append((None, seed, None, None))
        points = key_orbit(seed, parabolic)
        for (i, x), point in zip(_orbit_steps(parabolic), points[1:]):
            if point not in slots:
                c = points[i]
                slots[point] = len(plan)
                plan.append((slots[c], _INDEX[x], *_twob(c, x)))
    return tuple(plan)


def orbit_keys(plan: tuple[tuple, ...], g: "GroupElement") -> list[tuple]:
    """g.c for the points c of an ``orbit_plan``, in its order: a seed by
    ``translate_key``, each other key as an earlier key k minus beta times
    column x of M_g.  Only the on-grade ints are computed, each as the int
    of 1 or phi in (b + d phi)(e + g phi) = (b e + d g) + (b g + d (e +
    g)) phi, by phi^2 = phi + 1, for the two nonzero ints (e, g) of an
    entry of the column: 6 ints of 2 products each, and an odd beta times
    an odd entry gains the factor sqrt2^2 = 2."""
    m = g.mat
    out = []
    for slot, x, b, d in plan:
        if slot is None:
            out.append(translate_key(g, x))
            continue
        name, k0, k1, k2, k3, k4, k5 = out[slot]
        if x:  # beta even: the r entry of the column is odd, the others even
            (_, e0, _, g0), (e1, _, g1, _), (e2, _, g2, _) = m[x], m[3 + x], m[6 + x]
            out.append((name, k0 - (b * e0 + d * g0), k1 - (b * g0 + d * (e0 + g0)),
                        k2 - (b * e1 + d * g1), k3 - (b * g1 + d * (e1 + g1)),
                        k4 - (b * e2 + d * g2), k5 - (b * g2 + d * (e2 + g2))))
        else:  # beta odd: the r entry of the column is even, the others odd
            (e0, _, g0, _), (_, e1, _, g1), (_, e2, _, g2) = m[0], m[3], m[6]
            out.append((name, k0 - (b * e0 + d * g0), k1 - (b * g0 + d * (e0 + g0)),
                        k2 - 2 * (b * e1 + d * g1), k3 - 2 * (b * g1 + d * (e1 + g1)),
                        k4 - 2 * (b * e2 + d * g2), k5 - 2 * (b * g2 + d * (e2 + g2))))
    return out


def _ints(key) -> list[int]:
    """The 12 ints of a key's point over the integral basis, off-grade ints 0."""
    ints = dict(zip(_ON_GRADE, key[1:]))
    return [ints.get(n, 0) for n in range(12)]


def _wall_offsets(parabolic: ParabolicId, words: tuple[str, ...]) -> tuple[list[int], ...]:
    """delta_w = u_P - M_w u_P for each word w, as 12 ints (``_ints``), read
    off the base point and its image under the walk of w.

    The coset g*w*P has key M_g (u_P - delta_w) = p - M_g delta_w, p the key
    of g*P.  For w = rot^k e with rot in P, rot fixes u_P and delta_w =
    2B(a_e, u_P) rot^k a_e: p moved across the k-th wall of the coset.
    """
    base = _ints(_BASE_KEYS[parabolic.name])
    return tuple([b - q for b, q in zip(base, _ints(_point(_IDENT.times(w).mat, parabolic.name)))]
                 for w in words)


def wall_keys(parabolic: ParabolicId, words: tuple[str, ...]):
    """The function (p, mat) -> the keys of g*w*P for the words w, in order,
    where mat is the matrix M_g of an element g and p the key of g*P.

    Key w is p - M_g delta_w (``_wall_offsets``).  The offsets are constant,
    so each int of M_g delta_w is a fixed integer combination of a few ints of
    g's matrix: the sqrt2 and phi shifts of its columns, as in ``_point``.
    The function is compiled from straight-line source of the nonzero
    terms of the six ints, each key starting from p or the earlier key
    that leaves the fewest terms.
    For the pentagon tiling (D8, rot = rs, e = t) the first key is
    p - (2 - 2 phi) T and its first int reads
    ``q0_0 = p_0 + 2 * (m11 - m9)``; the second adds 2 S + 2 sqrt2 R to it.
    No general product of quartic integers is evaluated per call.
    """
    lines = ["def keys(p, m):", f"    {_UNPACK_P} = p", f"    {_UNPACK_M} = m"]
    done = {"p": [{}] * len(_ON_GRADE)}  # forms already subtracted, by variable prefix
    for w, delta in enumerate(_wall_offsets(parabolic, words)):
        forms = _point_forms([delta[4 * j:4 * j + 4] for j in range(3)])
        rests = {prefix: [{x: f.get(x, 0) - b.get(x, 0) for x in {**f, **b}
                           if f.get(x, 0) != b.get(x, 0)} for f, b in zip(forms, base)]
                 for prefix, base in done.items()}
        prefix, rest = min(rests.items(), key=lambda item: sum(map(len, item[1])))
        for n, terms in enumerate(rest):
            form = {f"{prefix}_{n}": 1, **{x: -c for x, c in terms.items()}}
            lines.append(f"    q{w}_{n} = {_sum_source(form)}")
        done[f"q{w}"] = forms
    keys = (", ".join(f"q{w}_{n}" for n in range(len(_ON_GRADE))) for w in range(len(words)))
    lines.append(f"    return {', '.join(f'({parabolic.name!r}, {key})' for key in keys)},")
    return _compile("keys", lines)


def _form(p, q):
    """2B(v, w) for the points v, w of keys ``p`` and ``q``."""
    out, q = IQ_ZERO, _ints(q)
    for i, x in enumerate(GENERATORS):
        b, d = _twob(p, x)
        t = iq_mul((0, b, 0, d) if _GRADES[i] else (b, 0, d, 0), q[4 * i:4 * i + 4])
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
        if _form(key, key) != _NORMS[key[0]] or iq_sign(_form(key, _BASE_KEYS["CAY"])) >= 0:
            raise ArithmeticError("matrix is not in the reflection group "
                                  "(it does not preserve the cone of rho)")
        rep = coset_rep(key)
    return rep


class GroupElement:
    """Element of W, identified with its reflection-representation matrix.

    Immutable; the canonical word is computed at most once and cached.
    Instances hash and compare by matrix, which is exact.

    A representative made by the peel (``coset_reps``) carries its word
    x + w and a link ``_up`` to the representative of w, but no matrix:
    ``mat`` builds it on first read as M_x times the linked one's, building
    that first if it has none either, and drops the link.  The chain is
    walked by a loop, not by recursion, as it can be as long as the peel
    bound of 10,000 letters.  Every other constructor is eager.
    """

    __slots__ = ("_mat", "_word", "_up")

    def __init__(self, mat):
        self._mat = mat
        self._word = None
        self._up = None

    @property
    def mat(self):
        """The matrix: a flat 9-tuple of integral quartic vectors."""
        mat = self._mat
        if mat is None:
            # a matrix is stored before its link is dropped, so the first
            # element with no link has one
            chain = []
            h = self
            while h._up is not None:
                chain.append(h)
                h = h._up
            mat = h._mat
            for h in reversed(chain):
                mat = h._mat = _mat_mul_gen_left(mat, h._word[0])
                h._up = None
        return mat

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
        mat = _graded_mat(self)
        for x in word:
            mat = _mat_mul_gen_right(mat, x)
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
            mat = _graded_mat(self)
            rep = _checked_rep(_point(mat, "CAY"))
            if rep.mat != mat:
                raise ArithmeticError("matrix is not in the reflection group "
                                      "(it moves rho like another element)")
            self._word = rep._word
        return self._word

    def length(self) -> int:
        return len(self.canonical_word())


def _graded_mat(g: GroupElement):
    """g's matrix, checked to be zero at its off-grade ints unless g carries
    a word (a product of generators is graded): the kernels read only the
    on-grade ints, so an off-grade raw matrix raises before it reaches them."""
    mat = g.mat
    if g._word is None and _off_grade_mat(mat):
        raise ArithmeticError("matrix is not in the reflection group "
                              "(an int that the sqrt2-grading makes zero is not)")
    return mat


_IDENT = GroupElement(_IDENTITY_MAT)
_IDENT._word = ""

# Minimal coset representatives by orbit-point key, seeded with the base
# points.  Representatives in use (as in a BFS ball) are the stored
# objects themselves.  The memo grows for the life of the process.
_BASE_KEYS = {name: _point(_IDENTITY_MAT, name) for name in PARABOLIC_BY_NAME}
_REPS: dict[tuple, GroupElement] = dict.fromkeys(_BASE_KEYS.values(), _IDENT)
# 2B(u, u) for each base point u, keyed by name
_NORMS = {name: _form(key, key) for name, key in _BASE_KEYS.items()}


def identity() -> GroupElement:
    return _IDENT


def element_of_word(word: str) -> GroupElement:
    """Product of generator matrices; the empty word is the identity."""
    return _IDENT.times(word)


def right_descents(g: GroupElement) -> set[str]:
    """Generators x with length(g*x) < length(g): the left descents of g^-1
    (g's rho-point is checked first, so a matrix outside W raises)."""
    return left_descents(g.inverse())


def left_descents(g: GroupElement) -> set[str]:
    """Generators x with length(x*g) < length(g): 2B(a_x, g rho) > 0.  g's
    own rho-point is checked first, as by ``right_descents``."""
    g.canonical_word()
    p = _point(g.mat, "CAY")
    return {x for x in GENERATORS if phi_sign(*_twob(p, x)) > 0}


@cache
def parabolic_elements(p: ParabolicId) -> tuple[GroupElement, ...]:
    """All elements of the subgroup, by closure on words, each peeled to
    its ShortLex word (``word_coset_rep``); sorted by (length, word)."""
    seen = {"": _IDENT}
    frontier = [""]
    while frontier:
        found = {g._word: g for g in (word_coset_rep(w + x, CAY) for w in frontier for x in p.gens)}
        frontier = [w for w in found if w not in seen]
        seen.update(found)
    return tuple(sorted(seen.values(), key=lambda g: (len(g._word), g._word)))


def min_coset_rep(g: GroupElement, p: ParabolicId) -> GroupElement:
    """Unique shortest element of the coset g*P (no right descent in P),
    peeled off its key; callers holding the key call ``coset_rep``.  g's
    own rho-point is checked first (``canonical_word``), so a matrix outside
    W raises ``ArithmeticError`` even where it fixes u_P, whose key is a
    memoised base point."""
    g.canonical_word()
    return coset_rep(coset_key(g, p))


def coset_key(g: GroupElement, p: ParabolicId) -> tuple:
    """Exact identity of the coset g*P without stripping: P's name and the
    six on-grade ints of the image M_g u_P (``_ON_GRADE``).

    u_P is fixed by exactly the generators of P (2B(a_x, u_P) = 0 for x in
    P): u_D8 = (sqrt2 phi, 2 phi, 2), u_D10 = (sqrt2 (3 - phi), 4, 2 phi),
    u_D4 = (sqrt2, 2, phi) and u_CAY = rho, their sum, in simple-root
    coordinates.  Each lies in the closed (negated) fundamental chamber,
    whose points have as stabiliser the standard parabolic fixing them
    (Tits), so g u_P = h u_P iff g*P = h*P.

    g is checked for the grading only (``_graded_mat``), so a graded matrix
    outside W gets a key all the same; ``min_coset_rep`` and
    ``complexgraph.make_vertex`` are the checked entry points.
    """
    return _point(_graded_mat(g), p.name)


def min_double_coset_rep(g: GroupElement, p: ParabolicId, q: ParabolicId) -> GroupElement:
    """Unique shortest element of P*g*Q, carrying its ShortLex word.

    Left descents in P are peeled off the point of g*Q (``_peel``).  By
    Deodhar's lemma (Bjorner & Brenti, ch. 2) x w is minimal in x w Q
    whenever w is minimal in w Q and x is a left descent of w, so every
    point passed keys the minimal element of its coset, and the last, with
    no left descent in P, that of the double coset.  g is checked first, as
    by ``min_coset_rep``, so a matrix outside W raises ``ArithmeticError``.
    """
    g.canonical_word()
    return coset_rep(_peel(coset_key(g, q), p))


def pair_words(g: GroupElement, h: GroupElement, p: ParabolicId, q: ParabolicId) -> tuple[str, str]:
    """The words of d, minimal in P*g^-1*h*Q, and of d^-1, minimal in
    Q*h^-1*g*P: the pair (g*P, h*Q) in both orientations, no matrix built.

    g^-1 h u_Q = x_k(...(x_1 h u_Q)) for g's word x_1...x_k, so h's key
    reflected by g's letters in order is the point of g^-1 h Q; its P-peel
    keys d*Q, whose ``coset_rep`` carries d's word w.  d^-1 is minimal in
    d^-1 P (d has no left descent in P), keyed by ``word_coset_rep`` of w
    reversed.  g and h are checked first (``canonical_word``).
    """
    walk = g.canonical_word()
    h.canonical_word()
    key = coset_key(h, q)
    for x in walk:
        key = _reflect(key, x)
    word = coset_rep(_peel(key, p))._word
    return word, word_coset_rep(word[::-1], p)._word
