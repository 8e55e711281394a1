"""Edge-type keys: orbit invariance, symmetry, partners, sampling."""

import random

from hypothesis import given, settings, strategies as st

import cox245.coxeter as coxeter
from cox245.complexgraph import (
    Vertex,
    build_ball,
    cayley_vertex,
    fix_vertex,
    make_vertex,
    translate,
)
from cox245.coxeter import (
    D4,
    D8,
    D10,
    PARABOLICS,
    GroupElement,
    element_of_word,
    identity,
    parabolic_elements,
)
from cox245.edgetypes import (
    find_pair_transport,
    key_partners,
    orbit_sample,
    pair_key,
    type_key_cayley,
    type_key_complex,
)

words = st.text(alphabet="rst", max_size=8)

C8 = fix_vertex(D8)
T8 = make_vertex(D8, element_of_word("t"))


def test_pentagon_edge_key():
    key = type_key_complex(C8, T8)
    assert key.serialize() == "CPLX:D8:D8:t"


def test_degenerate_key():
    key = type_key_complex(C8, C8)
    assert key.is_degenerate
    assert key.serialize() == "CPLX:D8:D8:"


def test_translation_invariance_example():
    w = element_of_word("srts")
    assert type_key_complex(translate(w, C8), translate(w, T8)) == type_key_complex(C8, T8)


def test_cayley_examples():
    e = identity()
    k1 = type_key_cayley(e, element_of_word("tsr"))
    k2 = type_key_cayley(element_of_word("tr"), element_of_word("tst"))
    assert k1 == k2
    assert k1.serialize() == "CAY:rst"  # lex-min of the two canonical words
    assert type_key_cayley(e, e).is_degenerate


@given(words, words)
@settings(max_examples=60, deadline=None)
def test_cayley_key_symmetric_and_invariant(gw, hw):
    g, h = element_of_word(gw), element_of_word(hw)
    key = type_key_cayley(g, h)
    assert key == type_key_cayley(h, g)
    w = element_of_word("stsr")
    assert type_key_cayley(w * g, w * h) == key


@given(words, words)
@settings(max_examples=40, deadline=None)
def test_complex_key_symmetric_and_invariant(gw, ww):
    u = make_vertex(D8, element_of_word(gw))
    v = make_vertex(D10, element_of_word(gw + "t"))
    key = type_key_complex(u, v)
    assert type_key_complex(v, u) == key
    w = element_of_word(ww)
    assert type_key_complex(translate(w, u), translate(w, v)) == key


def test_orbit_sample_pentagon_edges():
    slab = build_ball(C8, 3, "pentagon-subcomplex")
    key = type_key_complex(C8, T8)
    pairs = orbit_sample(key, slab, 6)
    assert len(pairs) == 6
    for u, v in pairs:
        assert pair_key(u, v) == key


def test_orbit_sample_degenerate_and_missing():
    slab = build_ball(C8, 2, "pentagon-subcomplex")
    ident = type_key_complex(C8, C8)
    pairs = orbit_sample(ident, slab, 3)
    assert pairs and all(u == v for u, v in pairs)
    # endpoints of the straight two-step string sit at distance 3, which a
    # radius-1 ball (diameter 2) cannot realize
    from cox245.certificates import StringSpec, string_key

    tiny = build_ball(C8, 1, "pentagon-subcomplex")
    far = string_key(StringSpec.parse("SS"))
    assert orbit_sample(far, tiny, 2) == []


def test_key_partners_complete_and_correct():
    slab = build_ball(C8, 4, "pentagon-subcomplex")
    key = trace_key = pair_key(C8, T8)
    for idx in (0, 1, 5, 9):
        v = slab.vertices[idx]
        partners = key_partners(v, trace_key)
        assert all(pair_key(v, u) == key for u in partners)
        # completeness against a brute scan of the slab
        brute = {u for u in slab.vertices if u != v and pair_key(v, u) == key}
        assert brute <= set(partners)


def test_equal_key_pairs_are_connected_by_group_element():
    slab = build_ball(C8, 4, "pentagon-subcomplex")
    rng = random.Random(7)
    verts = list(slab.vertices)
    buckets = {}
    for _ in range(300):
        u, v = rng.choice(verts), rng.choice(verts)
        buckets.setdefault(pair_key(u, v), []).append((u, v))
    checked = 0
    for key, pairs in buckets.items():
        if len(pairs) >= 2:
            w = find_pair_transport(pairs[0], pairs[1])
            assert w is not None
            checked += 1
    assert checked >= 3


def generic_element(word):
    mat = coxeter._IDENTITY_MAT
    for x in word:
        mat = coxeter._mat_mul(mat, coxeter._GEN_MATS[x])
    return GroupElement(mat)


def reference_key_partners(v, key):
    """key_partners by generic matrix products and inverses (the oracle)."""
    if key.mode == "cayley":
        g = generic_element(key.word)
        out = [Vertex(None, v.rep * g)]
        back = Vertex(None, v.rep * g.inverse())
        return out if back == out[0] else out + [back]
    w = generic_element(key.word)
    variants = []
    if v.parabolic.name == key.p:
        variants.append((w, PARABOLICS[key.q]))
    if v.parabolic.name == key.q:
        variants.append((w.inverse(), PARABOLICS[key.p]))
    out = []
    for step, target in variants:
        for p in parabolic_elements(v.parabolic):
            cand = make_vertex(target, v.rep * p * step)
            if cand not in out:
                out.append(cand)
    return out


def test_key_partners_match_generic_products():
    full = build_ball(C8, 2, "full-Y")
    keys = dict.fromkeys(pair_key(fix_vertex(p), v) for p in (D8, D10, D4) for v in full.vertices)
    checked = 0
    for v in full.vertices:
        for key in keys:
            got = key_partners(v, key)
            assert got == reference_key_partners(v, key), (v.label(), key)
            checked += bool(got)
    assert checked == 921
    cayley = build_ball(cayley_vertex(identity()), 5, "cayley")
    keys = dict.fromkeys(pair_key(cayley.center, v) for v in cayley.vertices)
    checked = 0
    for v in cayley.vertices:
        for key in keys:
            assert key_partners(v, key) == reference_key_partners(v, key), (v.label(), key)
            checked += 1
    assert checked == 1350
