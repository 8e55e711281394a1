"""Kernel: relations, canonical words, descents, coset canonicalization."""

import signal

import pytest
from hypothesis import given, settings, strategies as st

import cox245.coxeter as coxeter
from cox245.complexgraph import Vertex, build_ball, cayley_vertex, fix_vertex
from cox245.coxeter import (
    CAY,
    D4,
    D8,
    D10,
    GroupElement,
    PARABOLICS,
    bilinear_form_matrix,
    canonical_word,
    coset_key,
    element_of_word,
    generator_matrix_field,
    identity,
    left_descents,
    min_coset_rep,
    min_double_coset_rep,
    parabolic_elements,
    right_descents,
    translate_key,
    word_inverse,
)
from cox245.numberfield import IQ_ONE, ZERO, iq_add, iq_mul, iq_neg, iq_to_field
import matrix_oracle
from matrix_oracle import column_root_sign, generic_product, mat_det, mat_inv, mat_mul

words = st.text(alphabet="rst", max_size=12)


def brute_length_table(radius):
    """Independent word-length oracle: plain BFS over generator products."""
    table = {identity(): 0}
    frontier = [identity()]
    for depth in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for x in "rst":
                h = g * element_of_word(x)
                if h not in table:
                    table[h] = depth
                    nxt.append(h)
        frontier = nxt
    return table


LENGTHS = brute_length_table(15)


def test_defining_relations():
    for w in ("rr", "ss", "tt", "rsrsrsrs", "ststststst", "trtr"):
        assert element_of_word(w).is_identity()
    for w in ("rs", "rsrs", "stst", "stststst", "tr"):
        assert not element_of_word(w).is_identity()


def test_element_of_word_examples():
    assert element_of_word("").is_identity()
    assert element_of_word("rr").is_identity()
    assert element_of_word("rsrsrsrs").is_identity()


def test_generators_preserve_bilinear_form():
    B = bilinear_form_matrix()
    for x in "rst":
        M = generator_matrix_field(x)
        for i in range(3):
            for j in range(3):
                acc = ZERO
                for k in range(3):
                    for l in range(3):
                        acc = acc + M[k][i] * B[k][l] * M[l][j]
                assert acc == B[i][j]


def test_right_descents_examples():
    assert right_descents(identity()) == set()
    assert right_descents(element_of_word("r")) == {"r"}
    assert right_descents(element_of_word("rt")) == {"r", "t"}
    assert left_descents(element_of_word("rt")) == {"r", "t"}


def test_canonical_word_examples():
    assert canonical_word(identity()) == ""
    assert canonical_word(element_of_word("tr")) == "rt"
    assert canonical_word(element_of_word("tsr")) == "tsr"
    # braid identities picked up by canonicalization
    assert canonical_word(element_of_word("tstst")) == "ststs"
    assert canonical_word(element_of_word("srsr")) == "rsrs"


def test_parabolic_closures():
    assert len(parabolic_elements(D8)) == 8
    assert len(parabolic_elements(D10)) == 10
    assert len(parabolic_elements(D4)) == 4


def test_d8_canonical_length_multiset():
    lengths = sorted(g.length() for g in parabolic_elements(D8))
    assert lengths == [0, 1, 1, 2, 2, 3, 3, 4]
    words_ = {g.canonical_word() for g in parabolic_elements(D8)}
    assert len(words_) == 8


def test_min_coset_rep_examples():
    assert min_coset_rep(element_of_word("r"), D8).is_identity()
    assert min_coset_rep(element_of_word("t"), D8) == element_of_word("t")
    assert min_coset_rep(element_of_word("tsr"), D8) == element_of_word("t")


def test_min_coset_rep_against_enumeration():
    for word in ("tsr", "rstsr", "srtst", "tsrst"):
        g = element_of_word(word)
        for p in (D8, D10, D4):
            rep = min_coset_rep(g, p)
            coset = [g * h for h in parabolic_elements(p)]
            best = min(LENGTHS[h] for h in coset)
            assert LENGTHS[rep] == best
            assert sum(1 for h in coset if LENGTHS[h] == best) == 1
            assert rep in coset


def test_min_double_coset_examples():
    assert min_double_coset_rep(identity(), D8, D10).is_identity()
    assert min_double_coset_rep(element_of_word("t"), D8, D8) == element_of_word("t")
    assert min_double_coset_rep(element_of_word("rts"), D8, D8) == element_of_word("t")


def test_min_double_coset_against_enumeration():
    for word in ("rts", "tsrt", "strs", "rstsr"):
        g = element_of_word(word)
        for p, q in ((D8, D8), (D8, D10), (D10, D4), (D4, D8)):
            rep = min_double_coset_rep(g, p, q)
            orbit = {a * g * b for a in parabolic_elements(p) for b in parabolic_elements(q)}
            best = min(LENGTHS[h] for h in orbit)
            assert LENGTHS[rep] == best
            assert sum(1 for h in orbit if LENGTHS[h] == best) == 1


@given(words, words)
@settings(max_examples=40, deadline=None)
def test_trivial_parabolic_cosets_are_elements(w, v):
    """CAY is the trivial subgroup: g is its own minimal coset and
    double-coset representative, and g rho keys g alone."""
    g, h = element_of_word(w), element_of_word(v)
    assert parabolic_elements(CAY) == (identity(),)
    assert min_coset_rep(g, CAY) == g
    assert min_double_coset_rep(g, CAY, CAY) == g
    assert (coset_key(g, CAY) == coset_key(h, CAY)) == (g == h)


@given(words)
@settings(max_examples=80, deadline=None)
def test_canonical_word_invariants(w):
    g = element_of_word(w)
    cw = canonical_word(g)
    assert element_of_word(cw) == g
    assert len(cw) <= len(w)
    assert g.det_is_even() == (len(cw) % 2 == 0)
    # canonical word is itself canonical
    assert canonical_word(element_of_word(cw)) == cw


@given(words)
@settings(max_examples=50, deadline=None)
def test_inverse_word(w):
    g = element_of_word(w)
    assert (g * g.inverse()).is_identity()
    assert element_of_word(word_inverse(w)) == g.inverse()
    assert g.inverse().length() == g.length()


@given(words, st.sampled_from([D8, D10, D4]), st.integers(0, 9))
@settings(max_examples=60, deadline=None)
def test_coset_rep_constant_on_cosets(w, p, i):
    g = element_of_word(w)
    member = parabolic_elements(p)[i % len(parabolic_elements(p))]
    assert min_coset_rep(g * member, p) == min_coset_rep(g, p)
    rep = min_coset_rep(g, p)
    assert not (right_descents(rep) & set(p.gens))
    assert min_coset_rep(rep, p) == rep  # idempotent


@given(words, st.sampled_from([D8, D10, D4]), st.sampled_from([D8, D10, D4]),
       st.integers(0, 9), st.integers(0, 9))
@settings(max_examples=60, deadline=None)
def test_double_coset_rep_constant(w, p, q, i, j):
    g = element_of_word(w)
    a = parabolic_elements(p)[i % len(parabolic_elements(p))]
    b = parabolic_elements(q)[j % len(parabolic_elements(q))]
    assert min_double_coset_rep(a * g * b, p, q) == min_double_coset_rep(g, p, q)


def test_faithfulness_on_ball():
    seen = {}
    for g, depth in LENGTHS.items():
        if depth > 6:
            continue
        cw = canonical_word(g)
        assert len(cw) == depth  # matrix-BFS depth equals Coxeter length
        assert seen.setdefault(cw, g) == g
    assert len({g.canonical_word() for g in LENGTHS if LENGTHS[g] <= 6}) == \
        sum(1 for d in LENGTHS.values() if d <= 6)


def test_bad_letter_rejected():
    with pytest.raises(ValueError):
        element_of_word("rsx")


def shortlex_first_words(max_length):
    """Independent ShortLex oracle: extend each least word of length n by
    r, s, t in that order, least words in lex order; the first word to reach
    a matrix is its ShortLex-least word.  Products use the generic matrix
    multiply only."""
    gens = [(x, coxeter._GEN_MATS[x]) for x in "rst"]
    first = {coxeter._IDENTITY_MAT: ""}
    level = [("", coxeter._IDENTITY_MAT)]
    for _ in range(max_length):
        nxt = []
        for word, mat in level:
            for x, gen in gens:
                prod = mat_mul(mat, gen)
                if prod not in first:
                    first[prod] = word + x
                    nxt.append((word + x, prod))
        level = nxt
    return first


SHORTLEX_12 = shortlex_first_words(12)


def growth_series(terms):
    """Coefficients of W(x) = (1+x)^2 (1+x^2) (1+x+x^2+x^3+x^4) /
    (1 - x^3 - x^4 - x^5 + x^8), in plain ints."""
    num = [1]
    for factor in ([1, 1], [1, 1], [1, 0, 1], [1, 1, 1, 1, 1]):
        prod = [0] * (len(num) + len(factor) - 1)
        for i, a in enumerate(num):
            for j, b in enumerate(factor):
                prod[i + j] += a * b
        num = prod
    out = []
    for n in range(terms):
        a = num[n] if n < len(num) else 0
        a += sum(out[n - k] for k in (3, 4, 5) if n >= k)
        a -= out[n - 8] if n >= 8 else 0
        out.append(a)
    return out


def test_growth_series_matches_shortlex_spheres():
    sizes = [0] * 13
    for word in SHORTLEX_12.values():
        sizes[len(word)] += 1
    expected = [1, 3, 5, 8, 12, 16, 21, 28, 36, 46, 60, 77, 98]
    assert growth_series(13) == expected
    assert sizes == expected
    assert len(SHORTLEX_12) == 411
    for n in range(9, 13):  # past the numerator's degree the recurrence is pure
        assert expected[n] == expected[n - 3] + expected[n - 4] + expected[n - 5] - expected[n - 8]


def base_points():
    """The point memo as at import: each base point keyed to the identity."""
    return {key: g for key, g in coxeter._REPS.items() if g is coxeter._IDENT}


def test_canonical_word_is_shortlex_least(monkeypatch):
    def check():
        # longest first, so a fresh memo is filled by multi-letter peels
        for mat, word in reversed(list(SHORTLEX_12.items())):
            assert GroupElement(mat).canonical_word() == word

    monkeypatch.setattr(coxeter, "_REPS", base_points())
    check()
    # the memo filled in ball order must give the same words
    monkeypatch.setattr(coxeter, "_REPS", base_points())
    build_ball(fix_vertex(D8), 7, "pentagon-subcomplex")
    check()


@given(st.text(alphabet="rst", max_size=40), st.sampled_from("rst"))
@settings(max_examples=150, deadline=None)
def test_generator_kernel_matches_generic_multiply(w, x):
    m = generic_product(w)
    gen = coxeter._GEN_MATS[x]
    assert coxeter._mat_mul_gen_right(m, x) == mat_mul(m, gen)
    assert coxeter._mat_mul_gen_left(m, x) == mat_mul(gen, m)
    # a word walk equals the generic product by the word's matrix
    assert GroupElement(m).times(x + w).mat == mat_mul(m, generic_product(x + w))


def test_coset_key_fixed_by_exactly_the_parabolic():
    """u_P is fixed by P's two generators and moved by the third."""
    for p in (D8, D10, D4):
        base = coset_key(identity(), p)
        for x in "rst":
            assert (coset_key(element_of_word(x), p) == base) == (x in p.gens), (p, x)


# u_P in simple-root coordinates over the integral basis {1, sqrt2, phi, sqrt2 phi},
# and rho = u_D8 + u_D10 + u_D4 under the trivial subgroup's name
U_P = {
    "D8": ((0, 0, 0, 1), (0, 0, 2, 0), (2, 0, 0, 0)),
    "D10": ((0, 3, 0, -1), (4, 0, 0, 0), (0, 0, 2, 0)),
    "D4": ((0, 1, 0, 0), (2, 0, 0, 0), (0, 0, 1, 0)),
    coxeter.CAY.name: ((0, 4, 0, 0), (6, 0, 2, 0), (2, 0, 3, 0)),
}


def reference_point(mat, name):
    """M u_P (or M rho) by generic iq_mul products (the oracle for the
    shifts)."""
    out = [name]
    for i in range(3):
        terms = [iq_mul(mat[3 * i + j], U_P[name][j]) for j in range(3)]
        out.extend(sum(t[c] for t in terms) for c in range(4))
    return tuple(out)


def reference_coset_key(g, p):
    return reference_point(g.mat, p.name)


@given(words, words, st.sampled_from(sorted(U_P)),
       st.lists(st.integers(-50, 50), min_size=12, max_size=12))
@settings(max_examples=100, deadline=None)
def test_translate_key_is_the_generic_product(w, v, name, ints):
    """g.(Q, u) = (Q, M_g u): on a coset key it is the key of g h, and on any
    integer vector it is the row-by-row ``iq_mul`` sum."""
    g, h = element_of_word(w), element_of_word(v)
    assert translate_key(g, coxeter._point(h.mat, name)) == reference_point((g * h).mat, name)
    u = [tuple(ints[4 * j:4 * j + 4]) for j in range(3)]
    want = ["Q"]
    for i in range(3):
        terms = [iq_mul(g.mat[3 * i + j], u[j]) for j in range(3)]
        want.extend(sum(t[c] for t in terms) for c in range(4))
    assert translate_key(g, ("Q", *ints)) == tuple(want)


@given(st.text(alphabet="rst", max_size=20), st.text(alphabet="rst", max_size=20),
       st.sampled_from([D8, D10, D4]))
@settings(max_examples=100, deadline=None)
def test_coset_key_identifies_cosets(w, v, p):
    """Equal keys iff equal minimal coset representatives, for h = g * p
    with every p in P and for an independent h."""
    g = element_of_word(w)
    key = coset_key(g, p)
    assert key == reference_coset_key(g, p)
    assert coxeter._point(g.mat, coxeter.CAY.name) == reference_point(g.mat, coxeter.CAY.name)
    rep = min_coset_rep(g, p)
    for h in [g * member for member in parabolic_elements(p)] + [element_of_word(v)]:
        assert (coset_key(h, p) == key) == (min_coset_rep(h, p) == rep)


def test_coset_key_injective_on_full_y_ball():
    slab = build_ball(fix_vertex(D8), 7, "full-Y")
    keys = {coset_key(v.rep, v.parabolic) for v in slab.vertices}
    assert (len(slab), len(keys)) == (4197, 4197)


# --- the matrix descent kernel, kept as the oracle for the point peel ------

def matrix_shortlex_word(mat, memo):
    """ShortLex word by root signs of the inverse: x is a left descent of g
    iff g^-1 sends a_x to a negative root; peel the least one until a
    matrix in ``memo`` (matrix -> word) is reached."""
    passed = []
    inv = mat_inv(mat)
    word = memo.get(mat)
    while word is None:
        x = next(x for x in "rst" if column_root_sign(inv, x) < 0)
        passed.append((mat, x))
        mat = coxeter._mat_mul_gen_left(mat, x)
        inv = coxeter._mat_mul_gen_right(inv, x)
        word = memo.get(mat)
    for mat, x in reversed(passed):
        word = x + word
        memo[mat] = word
    return word


def stripped_coset_rep(g, p):
    """Minimal coset representative by stripping right descents in P."""
    mat = g.mat
    changed = True
    while changed:
        changed = False
        for x in p.gens:
            if column_root_sign(mat, x) < 0:
                mat = coxeter._mat_mul_gen_right(mat, x)
                changed = True
    return GroupElement(mat)


def test_point_peel_matches_matrix_peel_on_shortlex_12(monkeypatch):
    monkeypatch.setattr(coxeter, "_REPS", base_points())
    memo = {coxeter._IDENTITY_MAT: ""}
    for mat, word in SHORTLEX_12.items():
        assert GroupElement(mat).canonical_word() == matrix_shortlex_word(mat, memo) == word


@pytest.mark.parametrize("center, radius, mode, size", [
    (fix_vertex(D8), 8, "pentagon-subcomplex", 3169), (fix_vertex(D8), 3, "full-Y", 133)])
def test_ball_reps_match_matrix_kernel(monkeypatch, center, radius, mode, size):
    """Every peeled representative of a ball is the stripped one, keys back
    to its own coset and carries the matrix peel's word."""
    monkeypatch.setattr(coxeter, "_REPS", base_points())
    slab = build_ball(center, radius, mode)
    assert len(slab) == size
    memo = {coxeter._IDENTITY_MAT: ""}
    for v in slab.vertices:
        assert stripped_coset_rep(v.rep, v.parabolic) == v.rep
        assert v.word() == matrix_shortlex_word(v.rep.mat, memo)
        key = coset_key(v.rep, v.parabolic)
        assert coxeter.coset_rep(key) is v.rep


@given(words, st.sampled_from([D8, D10, D4]))
@settings(max_examples=100, deadline=None)
def test_min_coset_rep_matches_stripping(w, p):
    g = element_of_word(w)
    rep = min_coset_rep(g, p)
    assert rep == stripped_coset_rep(g, p)
    assert rep.canonical_word() == matrix_shortlex_word(rep.mat, {coxeter._IDENTITY_MAT: ""})
    assert coset_key(rep, p) == coset_key(g, p)
    assert left_descents(g) == matrix_oracle.left_descents(g)


@given(st.text(alphabet="rst", max_size=24), st.sampled_from([D8, D10, D4]),
       st.sampled_from([D8, D10, D4]))
@settings(max_examples=200, deadline=None)
def test_min_double_coset_rep_matches_matrix_strip(w, p, q):
    """The point peel gives the element the alternating matrix strip
    stabilises on, with the matrix peel's word, and it has no left descent
    in P and no right descent in Q by root signs."""
    g = element_of_word(w)
    rep = min_double_coset_rep(g, p, q)
    assert rep == matrix_oracle.min_double_coset_rep(g, p, q)
    assert rep.canonical_word() == matrix_shortlex_word(rep.mat, {coxeter._IDENTITY_MAT: ""})
    assert not matrix_oracle.left_descents(rep) & set(p.gens)
    assert not matrix_oracle.right_descents(rep) & set(q.gens)


def test_descents_inverse_parity_and_products_match_matrix_kernel_on_shortlex_12():
    """Right and left descents by root signs, the adjugate inverse, the
    determinant and the generic product against the walks and peels."""
    elems = [GroupElement(mat) for mat in SHORTLEX_12]
    for g in elems:
        assert right_descents(g) == matrix_oracle.right_descents(g)
        assert left_descents(g) == matrix_oracle.left_descents(g)
        assert g.inverse().mat == mat_inv(g.mat)
        assert g.det_is_even() == (mat_det(g.mat) == IQ_ONE)
    for g in elems[::7]:
        for h in elems[::11]:
            assert (g * h).mat == mat_mul(g.mat, h.mat)
            assert g.inverse_times(h).mat == mat_mul(mat_inv(g.mat), h.mat)


@given(words, st.sampled_from(sorted(U_P)))
@settings(max_examples=60, deadline=None)
def test_twob_forms_match_bilinear_form(w, name):
    """2B(a_x, v) read off a key equals 2 sum_j B[x][j] v_j over the field."""
    B = bilinear_form_matrix()
    key = coxeter._point(element_of_word(w).mat, name)
    coords = [iq_to_field(key[1 + 4 * j:5 + 4 * j]) for j in range(3)]
    for i, x in enumerate("rst"):
        want = sum((2 * B[i][j] * coords[j] for j in range(3)), ZERO)
        assert iq_to_field(coxeter._twob(key, x)) == want


def test_base_points_sit_in_the_negated_chamber():
    """2B(a_x, rho) < 0 for every x; 2B(a_x, u_P) = 0 exactly for x in P and
    < 0 otherwise; rho is the sum of the three u_P."""
    points = {name: coxeter._point(coxeter._IDENTITY_MAT, name) for name in U_P}
    for name, key in points.items():
        gens = PARABOLICS[name].gens if name in PARABOLICS else ()
        for x in "rst":
            sign = iq_to_field(coxeter._twob(key, x)).sign()
            assert sign == (0 if x in gens else -1), (name, x)
        assert coxeter._least_descent(key) is None
    rho = points[coxeter.CAY.name][1:]
    assert rho == tuple(sum(points[p.name][1 + c] for p in (D8, D10, D4)) for c in range(12))


def shear(u, f):
    """I + u f^T over the integral basis."""
    return tuple(iq_add(IQ_ONE if i == j else (0, 0, 0, 0), iq_mul(u[i], f[j]))
                 for i in range(3) for j in range(3))


def test_non_group_matrices_raise():
    """Matrices outside W: the peel ends at a point with no descent that is
    no base point, or at a base point whose element is another matrix."""
    two = GroupElement(tuple((2, 0, 0, 0) if i in (0, 4, 8) else (0, 0, 0, 0)
                             for i in range(9)))
    with pytest.raises(ArithmeticError):
        min_coset_rep(two, D8)
    with pytest.raises(ArithmeticError):
        two.canonical_word()
    u8, rho = U_P["D8"], U_P[coxeter.CAY.name]

    def dot(f, v):
        return tuple(sum(c) for c in zip(*(iq_mul(a, b) for a, b in zip(f, v))))
    # f(u_D8) = 0 and f(rho) = 3 phi - 3 > 0: rho goes to rho + f(rho) u_D8,
    # deeper in the negated chamber
    f = ((0, 0, 0, 0), (-1, 0, 0, 0), (0, 0, 1, 0))
    pushed = GroupElement(shear(u8, f))
    assert mat_det(pushed.mat) == IQ_ONE
    assert dot(f, u8) == (0, 0, 0, 0) and dot(f, rho) == (-3, 0, 3, 0)
    with pytest.raises(ArithmeticError):
        pushed.canonical_word()
    with pytest.raises(ArithmeticError):
        min_coset_rep(pushed, D10)
    # f = rho x u_D8 fixes rho, so the peel stops at once on the identity
    f = ((6, 0, -6, 0), (0, -5, 0, 5), (0, -2, 0, 0))
    fixing = GroupElement(shear(u8, f))
    assert mat_det(fixing.mat) == IQ_ONE
    assert dot(f, u8) == dot(f, rho) == (0, 0, 0, 0)
    with pytest.raises(ArithmeticError):
        fixing.canonical_word()


def raises_within_a_second(call):
    """``call()`` raises ArithmeticError; a hang fails after one second."""
    def expired(signum, frame):
        raise TimeoutError("no ArithmeticError within a second")
    old = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(ArithmeticError):
            call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_points_off_the_orbit_cone_raise_before_the_peel():
    """-I sends every point out of the cone of rho, where the peel never
    ends; 2 I changes B(v, v); the det-1 shear I + u_D8 f, f = (0, -1, phi),
    moves rho, u_D10 and u_D4 off their norms.  The raw-matrix entry points
    check both before peeling a point that is not memoised, and
    ``min_coset_rep`` and ``min_double_coset_rep`` check the element's own
    point, not only its coset's, as do the descent sets, ``cayley_vertex``
    and ``build_ball``'s center, so no ball is built from such a matrix.
    Products and inverses walk a ShortLex word, so they raise too."""
    neg = GroupElement(tuple(iq_neg(x) for x in coxeter._IDENTITY_MAT))
    two = GroupElement(tuple(iq_add(x, x) for x in coxeter._IDENTITY_MAT))
    pushed = GroupElement(shear(U_P["D8"], ((0, 0, 0, 0), (-1, 0, 0, 0), (0, 0, 1, 0))))
    assert mat_det(pushed.mat) == IQ_ONE
    for g in (neg, two, pushed):
        raises_within_a_second(g.canonical_word)
        raises_within_a_second(g.inverse)
        raises_within_a_second(lambda: identity() * g)
        raises_within_a_second(lambda: g.inverse_times(identity()))
        raises_within_a_second(lambda: right_descents(g))
        raises_within_a_second(lambda: left_descents(g))
        raises_within_a_second(lambda: cayley_vertex(g))
        raises_within_a_second(lambda: build_ball(cayley_vertex(g), 1, "cayley"))
        for p, mode in ((CAY, "cayley"), (D8, "full-Y")):  # unchecked centers
            raises_within_a_second(lambda: build_ball(Vertex(p, g), 1, mode))
        for p in (D8, D10, D4, CAY):
            raises_within_a_second(lambda: min_coset_rep(g, p))
            for q in (D8, D10, D4, CAY):
                raises_within_a_second(lambda: min_double_coset_rep(g, p, q))
    # the shear fixes u_D8, a memoised base point, so its D8 key alone names
    # the identity coset: min_coset_rep must check the element itself
    assert coset_key(pushed, D8) == coset_key(identity(), D8)
