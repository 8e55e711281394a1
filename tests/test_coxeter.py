"""Kernel: relations, canonical words, descents, coset canonicalization."""

import itertools
import signal

import pytest
from hypothesis import given, settings, strategies as st

import cox245.coxeter as coxeter
from cox245.complexgraph import (
    Vertex,
    _intersection_plan,
    build_ball,
    cayley_vertex,
    fix_vertex,
    make_vertex,
    vertex_key,
)
from cox245.coxeter import (
    CAY,
    D4,
    D8,
    D10,
    GroupElement,
    PARABOLICS,
    coset_key,
    element_of_word,
    identity,
    left_descents,
    min_coset_rep,
    min_double_coset_rep,
    orbit_keys,
    orbit_plan,
    parabolic_elements,
    right_descents,
    translate_key,
)
from cox245.exact import ONE, ZERO, bilinear_form_matrix, generator_matrix_field, iq_to_field
from cox245.numberfield import IQ_ONE, iq_mul, iq_neg, iq_sign, phi_sign
import matrix_oracle
from matrix_oracle import (
    U_P,
    column_root_sign,
    generic_product,
    graded_key,
    key_point,
    mat_det,
    mat_inv,
    mat_mul,
    mat_vec,
    reference_point,
)

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


def field_product(word):
    """The matrix of ``word`` over the field: the product of the Gram-matrix
    reflections in letter order, sharing no code with the kernel."""
    mat = tuple(tuple(ONE if i == j else ZERO for j in range(3)) for i in range(3))
    for x in word:
        gen = generator_matrix_field(x)
        mat = tuple(tuple(sum((mat[i][k] * gen[k][j] for k in range(3)), ZERO)
                          for j in range(3)) for i in range(3))
    return mat


def kernel_matrix(g):
    f = [iq_to_field(x) for x in g.mat]
    return (tuple(f[0:3]), tuple(f[3:6]), tuple(f[6:9]))


@given(st.text(alphabet="rst", max_size=20))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_the_gram_matrix_reflections(w):
    """The integral kernel's matrix of every generator and of words of up to
    20 letters equals the product of the exact field's reflections, built
    from the Gram matrix alone."""
    for word in ("r", "s", "t", w):
        assert kernel_matrix(element_of_word(word)) == field_product(word), word


def test_right_descents_examples():
    assert right_descents(identity()) == set()
    assert right_descents(element_of_word("r")) == {"r"}
    assert right_descents(element_of_word("rt")) == {"r", "t"}
    assert left_descents(element_of_word("rt")) == {"r", "t"}


def test_canonical_word_examples():
    assert identity().canonical_word() == ""
    assert element_of_word("tr").canonical_word() == "rt"
    assert element_of_word("tsr").canonical_word() == "tsr"
    # braid identities picked up by canonicalization
    assert element_of_word("tstst").canonical_word() == "ststs"
    assert element_of_word("srsr").canonical_word() == "rsrs"


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
    cw = g.canonical_word()
    assert element_of_word(cw) == g
    assert len(cw) <= len(w)
    # canonical word is itself canonical
    assert element_of_word(cw).canonical_word() == cw


@given(words)
@settings(max_examples=50, deadline=None)
def test_inverse_word(w):
    g = element_of_word(w)
    assert (g * g.inverse()).is_identity()
    assert element_of_word(w[::-1]) == g.inverse()
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
        cw = g.canonical_word()
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


@pytest.mark.parametrize("call, message", [
    (lambda: coxeter._mat_mul_gen_right(coxeter._IDENTITY_MAT, "q"),
     "bad generator 'q'; alphabet is 'r', 's', 't'"),
    (lambda: coxeter._mat_mul_gen_left(coxeter._IDENTITY_MAT, "q"), "bad generator 'q'"),
    (lambda: coxeter._point(coxeter._IDENTITY_MAT, "D6"), "unknown parabolic 'D6'"),
    # no letter falls through to the form of t
    (lambda: coxeter._twob(coset_key(identity(), D8), "q"),
     "bad generator 'q'; alphabet is 'r', 's', 't'"),
    (lambda: coxeter.wall_keys(D8, ("t", "q")), "bad generator 'q'; alphabet is 'r', 's', 't'"),
], ids=["right", "left", "point", "twob", "wall_keys"])
def test_compiled_kernels_reject_arguments_outside_their_cases(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_coset_key_fixed_by_exactly_the_parabolic():
    """u_P is fixed by P's two generators and moved by the third."""
    for p in (D8, D10, D4):
        base = coset_key(identity(), p)
        for x in "rst":
            assert (coset_key(element_of_word(x), p) == base) == (x in p.gens), (p, x)


def reference_coset_key(g, p):
    return reference_point(g.mat, p.name)


@given(words, words, st.sampled_from(sorted(U_P)),
       st.lists(st.integers(-50, 50), min_size=6, max_size=6))
@settings(max_examples=100, deadline=None)
def test_translate_key_is_the_generic_product(w, v, name, ints):
    """g.(Q, u) = (Q, M_g u): on a coset key it is the key of g h, and on any
    key's six ints (a graded integer vector, type 0) it is the row-by-row
    ``iq_mul`` sum."""
    g, h = element_of_word(w), element_of_word(v)
    assert translate_key(g, coxeter._point(h.mat, name)) == reference_point((g * h).mat, name)
    key = ("Q", *ints)
    assert translate_key(g, key) == mat_vec(g.mat, key)


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


# --- the sqrt2-grading ------------------------------------------------------

# Written out here, not read off the kernel: the off-grade positions of a
# matrix (entry (i, j) has only sqrt2 ints when one of i, j is r, and only
# ints of 1 and phi otherwise); a key's are ``matrix_oracle.OFF_GRADE``.
OFF_GRADE_MAT = tuple((3 * i + j, c) for i in range(3) for j in range(3)
                      for c in ((0, 2) if (i == 0) != (j == 0) else (1, 3)))


def on_grade(mat):
    return all(mat[k][c] == 0 for k, c in OFF_GRADE_MAT)


def test_keys_matrices_and_plan_steps_are_graded(monkeypatch):
    """Every representative matrix of four balls is zero at its off-grade
    ints, and every coset key is the generic product's point, itself zero
    at its off-grade ints (``graded_key``); every plan step's beta =
    2B(a_x, c) has only sqrt2 ints for x = r and only ints of 1 and phi for
    s and t, and the step stores its two nonzero ints."""
    monkeypatch.setattr(coxeter, "_REPS", base_points())
    balls = [(fix_vertex(D8), 10, "pentagon-subcomplex"), (fix_vertex(D10), 7, "d10-orbit"),
             (cayley_vertex(identity()), 12, "cayley"), (fix_vertex(D8), 8, "full-Y")]
    seen = 0
    for center, radius, mode in balls:
        for v in build_ball(center, radius, mode).vertices:
            assert on_grade(v.rep.mat), (mode, v)
            assert vertex_key(v) == reference_point(v.rep.mat, v.parabolic.name), (mode, v)
            seen += 1
    assert seen == 16737 + 3046 + 411 + 9665
    # the full-Y intersection plans, and the plans of the orbits of every
    # coset key of an element of up to 3 letters
    cosets = [("".join(w), q) for n in range(4)
              for w in itertools.product("rst", repeat=n) for q in (D8, D10, D4, CAY)]
    seeds = tuple(coset_key(element_of_word(w), q) for w, q in cosets)
    generic = {reference_point(generic_product(w), q.name) for w, q in cosets}
    plans = [_intersection_plan(p) for p in (D8, D10, D4)] + [orbit_plan(p, seeds) for p in (D8, D10, D4)]
    for plan in plans:
        points = orbit_keys(plan, identity())
        for slot, x, b, d in plan:
            if slot is None:
                assert x in generic
                continue
            beta = generic_twob(points[slot], "rst"[x])
            zero, kept = (beta[0::2], beta[1::2]) if x == 0 else (beta[1::2], beta[0::2])
            assert zero == (0, 0) and (b, d) == kept


@given(st.text(alphabet="rst", max_size=40), st.sampled_from([D8, D10, D4, CAY]))
@settings(max_examples=100, deadline=None)
def test_words_are_graded(w, p):
    g = element_of_word(w)
    assert on_grade(g.mat) and coset_key(g, p) == reference_point(g.mat, p.name)


big = st.integers(-50, 50) | st.integers(-2 ** 80, 2 ** 80)
graded_mats = st.lists(big, min_size=36, max_size=36).map(lambda a: tuple(
    tuple(0 if (k, c) in OFF_GRADE_MAT else a[4 * k + c] for c in range(4)) for k in range(9)))


def graded_keys(name):
    return st.lists(big, min_size=6, max_size=6).map(lambda a: (name, *a))


def generic_twob(key, x):
    """2B(a_x, v) for the point v of ``key``, by generic ``iq_mul`` products."""
    point = key_point(key)
    terms = [iq_mul(coxeter._TWOB[x][j], point[1 + 4 * j:5 + 4 * j]) for j in range(3)]
    return tuple(map(sum, zip(*terms)))


def twob_ints(key, x):
    """``coxeter._twob``'s two ints (b, d) as the quartic integer sqrt2 (b +
    d phi) for x = r and b + d phi for s and t."""
    b, d = coxeter._twob(key, x)
    return (0, b, 0, d) if x == "r" else (b, 0, d, 0)


@given(graded_mats, graded_keys("Q"), st.sampled_from("rst"), st.sampled_from(sorted(U_P)))
@settings(max_examples=150, deadline=None)
def test_compiled_kernels_are_the_generic_products_on_graded_ints(m, key, x, name):
    """The generator products, orbit points, forms 2B(a_x, -), reflected
    keys and ``translate_key``, each reading only on-grade ints, equal the
    ``iq_mul`` products on any graded input, large ints included; so does
    the sign of a descent test.  Each compiled least-descent step gives the
    first generator of its tuple whose form 2B(a_x, -) is positive, by
    ``iq_sign`` of the generic product, and that generator's reflected key."""
    gen = coxeter._GEN_MATS[x]
    assert coxeter._mat_mul_gen_right(m, x) == mat_mul(m, gen)
    assert coxeter._mat_mul_gen_left(m, x) == mat_mul(gen, m)
    assert coxeter._point(m, name) == reference_point(m, name)
    beta = generic_twob(key, x)
    assert twob_ints(key, x) == beta
    assert phi_sign(*coxeter._twob(key, x)) == iq_sign(beta)
    assert coxeter._reflect(key, x) == mat_vec(gen, key)
    assert translate_key(GroupElement(m), key) == mat_vec(m, key)
    for gens, descent in [("rst", coxeter._least_descent),
                          *((p.gens, coxeter._DESCENTS[p]) for p in (D8, D10, D4, CAY))]:
        first = next((y for y in gens if iq_sign(generic_twob(key, y)) > 0), None)
        want = None if first is None else (first, mat_vec(coxeter._GEN_MATS[first], key))
        assert descent(key) == want


DESCENT_R = coxeter._descent_kernel(("r",))


def descends_by_r(b, d):
    """Whether the compiled one-letter step over r descends off a key whose
    form 2B(a_r, -) is sqrt2 (b + d phi): 2B(a_r, v) = sqrt2 ((2 p_0 - p_2) +
    (2 p_1 - p_3) phi) for the key's ints p."""
    key = ("Q", 0, 0, -b, -d, 0, 0)
    assert coxeter._twob(key, "r") == (b, d)
    return DESCENT_R(key) is not None


def test_inline_sign_test_is_phi_sign_on_small_ints():
    """The step's integer test of b + d phi > 0 agrees with ``phi_sign`` on
    every (b, d) in [-60, 60]^2, zero included."""
    for b in range(-60, 61):
        for d in range(-60, 61):
            assert descends_by_r(b, d) == (phi_sign(b, d) > 0), (b, d)


def test_inline_sign_test_near_zero_on_fibonacci_pairs():
    """F(n) phi - F(n+1) = (-1)^(n+1) phi^-n, nearest to 0 among ints of its
    size: the step descends off (-F(n+1), F(n)) exactly for odd n, and off
    the negated pair exactly for even n, as ``phi_sign`` says, for n <= 60."""
    fib = [0, 1]
    while len(fib) < 62:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 61):
        b, d = -fib[n + 1], fib[n]
        for sign in (1, -1):
            want = sign * (-1) ** (n + 1) > 0
            assert phi_sign(sign * b, sign * d) == (1 if want else -1)
            assert descends_by_r(sign * b, sign * d) == want, (n, sign)


@given(graded_mats, st.sampled_from([D8, D10, D4]),
       st.lists(st.text(alphabet="rst", min_size=1, max_size=6), min_size=1, max_size=4), st.data())
@settings(max_examples=40, deadline=None)
def test_wall_keys_are_the_generic_products_on_graded_ints(m, p, ws, data):
    """Key w of ``wall_keys`` is p - M delta_w, delta_w = u_P - M_w u_P."""
    key = data.draw(graded_keys(p.name))
    base = reference_point(coxeter._IDENTITY_MAT, p.name)
    want = []
    for w in ws:
        image = reference_point(generic_product(w), p.name)
        delta = (p.name, *(b - q for b, q in zip(base[1:], image[1:])))
        want.append((p.name, *(a - b for a, b in zip(key[1:], mat_vec(m, delta)[1:]))))
    assert list(coxeter.wall_keys(p, tuple(ws))(key, m)) == want


@given(graded_mats, st.sampled_from([D8, D10, D4]),
       st.lists(st.tuples(st.text(alphabet="rst", max_size=6), st.sampled_from([D8, D10, D4, CAY])),
                min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_orbit_keys_are_the_generic_products_on_graded_ints(m, p, seeds):
    """``orbit_keys`` gives M c for the points c of the P-orbits of the
    seeds, in ``orbit_plan``'s order, the orbit points themselves by generic
    products of the members' word matrices."""
    seeds = tuple(coset_key(element_of_word(w), q) for w, q in seeds)
    points = {}
    for seed in seeds:
        for member in parabolic_elements(p):
            points.setdefault(mat_vec(generic_product(member.canonical_word()), seed), None)
    assert orbit_keys(orbit_plan(p, seeds), GroupElement(m)) == [mat_vec(m, c) for c in points]


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


@pytest.mark.parametrize("center, radius, mode", [
    (fix_vertex(D8), 6, "pentagon-subcomplex"), (fix_vertex(D8), 3, "full-Y"),
    (cayley_vertex(identity()), 8, "cayley")])
def test_lazy_reps_match_the_word_walk(monkeypatch, center, radius, mode):
    """A peeled representative's matrix, built on first read, is its word's
    walk, and a representative with no matrix yet compares equal to its
    eager twin and hashes alike."""
    monkeypatch.setattr(coxeter, "_REPS", base_points())
    build_ball(center, radius, mode)
    reps = sorted((g for g in coxeter._REPS.values() if g is not coxeter._IDENT),
                  key=lambda g: -len(g._word))
    lazy = 0
    for rep in reps:  # longest first, so many are still unbuilt when hashed
        lazy += rep._mat is None
        twin = element_of_word(rep.canonical_word())
        assert hash(rep) == hash(twin) and rep == twin and twin == rep
        assert rep.mat == twin.mat
    assert 0 < lazy < len(reps)


def test_long_lazy_chain_builds_without_recursion(monkeypatch):
    """A 1,500-letter peel leaves a chain of 1,500 unbuilt representatives,
    past Python's recursion limit; reading the last matrix builds them all."""
    monkeypatch.setattr(coxeter, "_REPS", base_points())
    g = element_of_word("rst" * 500)
    rep = coxeter.coset_rep(coset_key(g, CAY))
    assert len(rep.canonical_word()) == 1500 and rep._mat is None
    assert rep.mat == g.mat
    assert rep._up is None


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
        assert (g.length() % 2 == 0) == (mat_det(g.mat) == IQ_ONE)
    for g in elems[::7]:
        for h in elems[::11]:
            assert (g * h).mat == mat_mul(g.mat, h.mat)
            assert (g.inverse() * h).mat == mat_mul(mat_inv(g.mat), h.mat)


@given(words, st.sampled_from(sorted(U_P)))
@settings(max_examples=60, deadline=None)
def test_twob_forms_match_bilinear_form(w, name):
    """2B(a_x, v) read off a key equals 2 sum_j B[x][j] v_j over the field."""
    B = bilinear_form_matrix()
    key = coxeter._point(element_of_word(w).mat, name)
    point = key_point(key)
    coords = [iq_to_field(point[1 + 4 * j:5 + 4 * j]) for j in range(3)]
    for i, x in enumerate("rst"):
        want = sum((2 * B[i][j] * coords[j] for j in range(3)), ZERO)
        assert iq_to_field(twob_ints(key, x)) == want


def test_base_points_sit_in_the_negated_chamber():
    """2B(a_x, rho) < 0 for every x; 2B(a_x, u_P) = 0 exactly for x in P and
    < 0 otherwise; rho is the sum of the three u_P."""
    points = {name: coxeter._point(coxeter._IDENTITY_MAT, name) for name in U_P}
    for name, key in points.items():
        assert key == graded_key((name, *(a for u in U_P[name] for a in u)))
        gens = PARABOLICS[name].gens if name in PARABOLICS else ()
        for x in "rst":
            sign = iq_to_field(twob_ints(key, x)).sign()
            assert sign == (0 if x in gens else -1), (name, x)
        assert coxeter._least_descent(key) is None
    rho = points[coxeter.CAY.name][1:]
    assert rho == tuple(sum(points[p.name][1 + c] for p in (D8, D10, D4)) for c in range(6))


def iq_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


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


def raises_within(call, seconds=1.0, match=None):
    """``call()`` raises ArithmeticError; a hang fails after ``seconds``."""
    def expired(signum, frame):
        raise TimeoutError(f"no ArithmeticError within {seconds} s")
    old = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        with pytest.raises(ArithmeticError, match=match):
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
        raises_within(g.canonical_word)
        raises_within(g.inverse)
        raises_within(lambda: identity() * g)
        raises_within(lambda: right_descents(g))
        raises_within(lambda: left_descents(g))
        raises_within(lambda: cayley_vertex(g))
        raises_within(lambda: build_ball(cayley_vertex(g), 1, "cayley"))
        for p, mode in ((CAY, "cayley"), (D8, "full-Y")):  # unchecked centers
            raises_within(lambda: build_ball(Vertex(p, g), 1, mode))
        for p in (D8, D10, D4, CAY):
            raises_within(lambda: min_coset_rep(g, p))
            for q in (D8, D10, D4, CAY):
                raises_within(lambda: min_double_coset_rep(g, p, q))
    # the shear fixes u_D8, a memoised base point, so its D8 key alone names
    # the identity coset: min_coset_rep must check the element itself
    assert coset_key(pushed, D8) == coset_key(identity(), D8)


def counted_descents(monkeypatch):
    calls = []
    peel = coxeter._least_descent
    monkeypatch.setattr(coxeter, "_least_descent", lambda *args: calls.append(1) or peel(*args))
    return calls


def test_off_grade_input_raises_before_the_peel(monkeypatch):
    """The rst*D8 point with its first integer + 1, an int the grading
    makes zero, has no key: the oracle refuses it, and as a 13-field key it
    raises at once; so does a matrix with a sqrt2 on its diagonal: no
    descent is tried and nothing is memoised.  A product with such a matrix
    raises too, rather than drop the sqrt2 and give an element of W, and so
    does its coset key, rather than key the identity's coset."""
    key = coset_key(element_of_word("rst"), D8)
    assert key == ("D8", 2, 1, 2, 2, 0, 2)
    point = key_point(key)
    bad = (point[0], point[1] + 1) + point[2:]
    assert bad == ("D8", 1, 2, 0, 1, 2, 0, 2, 0, 0, 0, 2, 0)
    with pytest.raises(AssertionError, match="off-grade point"):
        graded_key(bad)
    off = GroupElement(((1, 1, 0, 0),) + coxeter._IDENTITY_MAT[1:])
    calls = counted_descents(monkeypatch)
    known = dict(coxeter._REPS)
    with pytest.raises(ValueError, match="not a coset key"):
        coxeter.coset_rep(bad)
    for call in (off.canonical_word, lambda: min_coset_rep(off, D8), lambda: cayley_vertex(off),
                 lambda: off.times("r"), lambda: off * identity(), lambda: coset_key(off, D8)):
        with pytest.raises(ArithmeticError, match="sqrt2-grading"):
            call()
    assert calls == [] and coxeter._REPS == known


def test_keys_off_the_orbit_raise_after_the_peel_bound(monkeypatch):
    """The rst*D8 key with its first integer + 1 (its point's second) is
    graded but no orbit point, and it has a descent at every step, so the
    peel never meets a memoised point.  It stops after
    ``len(_PEEL_STEPS)`` descents and memoises nothing."""
    key = coset_key(element_of_word("rst"), D8)
    bad = key[:1] + (key[1] + 1,) + key[2:]
    assert key_point(bad) == ("D8", 0, 3, 0, 1, 2, 0, 2, 0, 0, 0, 2, 0)
    calls = counted_descents(monkeypatch)
    known = dict(coxeter._REPS)
    raises_within(lambda: coxeter.coset_rep(bad), seconds=30.0, match="off the orbit")
    assert len(calls) == len(coxeter._PEEL_STEPS)
    assert coxeter._REPS == known


def test_malformed_keys_raise_before_the_peel(monkeypatch):
    """A key that is not a parabolic's name and six ints raises ValueError:
    the rst*D8 point as 12 ints (on the orbit, but a 13-field key) and its
    six under a name no parabolic has, as well as a base point's.  No
    descent is tried and nothing is memoised."""
    key = coset_key(element_of_word("rst"), D8)
    calls = counted_descents(monkeypatch)
    known = dict(coxeter._REPS)
    for bad in (key_point(key), ("D6", *key[1:]), ("Q", *coset_key(identity(), D8)[1:])):
        with pytest.raises(ValueError, match="not a coset key"):
            coxeter.coset_rep(bad)
    assert len(key_point(key)) == 13
    assert calls == [] and coxeter._REPS == known


def test_coset_reps_returns_the_memoised_reps_in_input_order():
    """The batch peel returns, key by key in input order, the object the key
    is memoised under; a repeated key gives the same object again."""
    keys = [coset_key(element_of_word(w), p) for w in ("tsrst", "t", "", "rst", "tsrst")
            for p in (D8, D10, CAY)]
    reps = coxeter.coset_reps(keys)
    assert len(reps) == len(keys)
    assert all(rep is coxeter._REPS[key] for rep, key in zip(reps, keys))
    assert all(a is b for a, b in zip(reps[:3], reps[-3:]))
    assert all(rep is coxeter._IDENT for rep in reps[6:9])  # the base points
    assert coxeter.coset_reps([]) == []


def test_coset_reps_on_an_empty_memo_peels_as_one_key_peels(monkeypatch):
    """From the base points alone, one batch of every coset key of the
    elements of up to 7 letters (longest first, so a key passes points that
    later keys of the batch meet memoised) gives each key the word a
    one-key peel gives it, and the matrix peel's word of its stripped
    representative."""
    keys = [coset_key(element_of_word("".join(w)), p) for n in range(7, -1, -1)
            for w in itertools.product("rst", repeat=n) for p in (D8, D10, D4, CAY)]
    monkeypatch.setattr(coxeter, "_REPS", base_points())
    batch = [rep._word for rep in coxeter.coset_reps(keys)]
    monkeypatch.setattr(coxeter, "_REPS", base_points())
    single = [coxeter.coset_rep(key)._word for key in keys]
    assert batch == single
    memo = {coxeter._IDENTITY_MAT: ""}
    for key, word in dict(zip(keys, batch)).items():
        g = element_of_word(word)
        p = coxeter.PARABOLIC_BY_NAME[key[0]]
        assert coset_key(g, p) == key
        assert matrix_shortlex_word(stripped_coset_rep(g, p).mat, memo) == word


def test_a_bad_key_in_a_batch_raises_as_alone(monkeypatch):
    """A malformed key, a graded point of the closed negated chamber that is
    not a base point, and a key off the orbit raise in a batch the error a
    one-key peel raises, word for word; the keys before the bad one stay
    memoised and the one after it is not peeled.  The off-orbit key still
    makes exactly ``len(_PEEL_STEPS)`` descents of its own."""
    good = [coset_key(element_of_word(w), D8) for w in ("t", "tst", "tsrst")]
    later = coset_key(element_of_word("tsrsrst"), D8)
    rst = coset_key(element_of_word("rst"), D8)
    chamber = ("D8", *(2 * a for a in coset_key(identity(), D8)[1:]))
    monkeypatch.setattr(coxeter, "_REPS", base_points())
    calls = counted_descents(monkeypatch)
    coxeter.coset_reps(good)
    descents, memo = len(calls), dict(coxeter._REPS)
    cases = [(("D6", *rst[1:]), ValueError, "not a coset key", 0),
             (rst + (0,), ValueError, "not a coset key", 0),
             (chamber, ArithmeticError, "has no descent", 1),  # the one step that finds none
             (rst[:1] + (rst[1] + 1,) + rst[2:], ArithmeticError, "off the orbit",
              len(coxeter._PEEL_STEPS))]
    for bad, error, match, own in cases:
        monkeypatch.setattr(coxeter, "_REPS", base_points())
        with pytest.raises(error, match=match) as alone:
            coxeter.coset_rep(bad)
        assert coxeter._REPS == base_points()
        del calls[:]
        with pytest.raises(error) as batched:
            coxeter.coset_reps([*good, bad, later])
        assert str(batched.value) == str(alone.value)
        assert all(key in coxeter._REPS for key in good) and later not in coxeter._REPS
        assert coxeter._REPS == memo
        assert len(calls) == descents + own


# the vertices at each depth of a tiling's ball around a fixed vertex
SPHERE_SIZES = {"pentagon-subcomplex": [1, 4, 12, 28, 64, 148, 340, 780, 1792, 4116, 9452],
                "d10-orbit": [1, 5, 15, 40, 105, 275, 720]}


@pytest.mark.parametrize("center, radius, mode, size", [
    (fix_vertex(D8), 10, "pentagon-subcomplex", 16737), (fix_vertex(D10), 6, "d10-orbit", 1161)])
def test_ball_makes_one_descent_per_new_representative(monkeypatch, center, radius, mode, size):
    """A ball's peels make exactly one descent per point the memo gains:
    the one-descent link and the long peel each descend once per
    representative they memoise.  Its levels have the tiling's sphere
    sizes."""
    monkeypatch.setattr(coxeter, "_REPS", base_points())
    before = len(coxeter._REPS)
    calls = counted_descents(monkeypatch)
    slab = build_ball(center, radius, mode)
    assert len(slab) == size
    assert [slab.depth.count(d) for d in range(radius + 1)] == SPHERE_SIZES[mode]
    assert len(calls) == len(coxeter._REPS) - before > size // 2


def test_word_coset_rep_is_the_word_walk():
    """For every word of up to 8 letters and every parabolic, CAY included,
    the representative peeled off u_P reflected by the word is the one of
    the walked matrix, with the same word."""
    for n in range(9):
        for letters in itertools.product("rst", repeat=n):
            w = "".join(letters)
            for p in (D8, D10, D4, CAY):
                rep = coxeter.word_coset_rep(w, p)
                want = make_vertex(p, element_of_word(w))
                assert rep == want.rep and rep.canonical_word() == want.word(), (w, p)


@pytest.mark.parametrize("word", ["q", "rqs", "rsqxt", "tsR", "r s"])
def test_word_coset_rep_names_the_first_bad_letter(word):
    """A bad letter raises the message ``element_of_word`` gives, which
    names the first bad letter."""
    with pytest.raises(ValueError) as walked:
        element_of_word(word)
    for p in (D8, CAY):
        with pytest.raises(ValueError) as peeled:
            coxeter.word_coset_rep(word, p)
        assert str(peeled.value) == str(walked.value)
