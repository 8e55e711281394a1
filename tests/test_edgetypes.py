"""Edge-type keys: orbit invariance, symmetry, partners, sampling."""

import hashlib
import json
import random
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

import cox245.coxeter as coxeter
import cox245.edgetypes as edgetypes
import cox245.implications as implications
import matrix_oracle
from matrix_oracle import generic_product, mat_inv, mat_mul
from certificate_lines import builtin_lines
from cox245.certificates import (
    FAMILIES,
    StringSpec,
    family_implication,
    parse_key,
    string_key,
    verify_pentagon_suite,
)
from cox245.complexgraph import (
    Vertex,
    build_ball,
    cayley_vertex,
    fix_vertex,
    key_vertex,
    make_vertex,
    translate,
)
from cox245.coxeter import (
    CAY,
    D4,
    D8,
    D10,
    PARABOLICS,
    GroupElement,
    coset_key,
    coset_rep,
    element_of_word,
    identity,
    parabolic_elements,
    translate_key,
)
from cox245.edgetypes import (
    EdgeTypeKey,
    anchor_orbit_reps,
    find_pair_transport,
    key_partners,
    pair_key,
    partner_keys,
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


@pytest.mark.parametrize("p", [D8, D10, D4])
def test_mixed_universe_pairs_raise(p):
    """A Cayley vertex never pairs with a coset of a maximal parabolic, in
    either order."""
    cay, cos = cayley_vertex(identity()), fix_vertex(p)
    for u, v in ((cay, cos), (cos, cay)):
        with pytest.raises(ValueError):
            pair_key(u, v)
        with pytest.raises(ValueError):
            type_key_complex(u, v)


@given(words, words)
@settings(max_examples=60, deadline=None)
def test_cayley_key_symmetric_and_invariant(gw, hw):
    g, h = element_of_word(gw), element_of_word(hw)
    key = type_key_cayley(g, h)
    assert key == type_key_cayley(h, g)
    # a Cayley pair is a pair of CAY-cosets: the complex key agrees
    assert type_key_complex(cayley_vertex(g), cayley_vertex(h)) == key
    assert (key.p, key.q) == ("CAY", "CAY")
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


def matrix_pair_key(u, v):
    """pair_key by the adjugate inverse, the generic product and the
    alternating matrix strip (the oracle for the word walks and the peel)."""
    diff = GroupElement(mat_mul(mat_inv(u.rep.mat), v.rep.mat))
    if u.parabolic is CAY:
        back = GroupElement(mat_inv(diff.mat))
        return EdgeTypeKey("CAY", "CAY", min(diff.canonical_word(), back.canonical_word()))
    d1 = matrix_oracle.min_double_coset_rep(diff, u.parabolic, v.parabolic)
    d2 = GroupElement(mat_inv(d1.mat))
    k1 = (u.parabolic.name, v.parabolic.name, d1.canonical_word())
    k2 = (v.parabolic.name, u.parabolic.name, d2.canonical_word())
    return EdgeTypeKey(*min(k1, k2))


@pytest.mark.parametrize("center, radius, mode, size, types", [
    (C8, 3, "full-Y", 133, 399), (cayley_vertex(identity()), 6, "cayley", 66, 232),
    (C8, 4, "pentagon-subcomplex", 109, 233), (fix_vertex(D10), 4, "d10-orbit", 166, 446)])
def test_type_keys_match_matrix_kernel(center, radius, mode, size, types):
    """Both type keys on every pair of a ball, in both orientations."""
    verts = build_ball(center, radius, mode).vertices
    seen = set()
    for i, u in enumerate(verts):
        for v in verts[i:]:
            key = matrix_pair_key(u, v)
            assert pair_key(u, v) == pair_key(v, u) == key, (u.label(), v.label())
            seen.add(key)
    assert (len(verts), len(seen)) == (size, types)


@given(st.text(alphabet="rst", max_size=14), st.text(alphabet="rst", max_size=14))
@settings(max_examples=80, deadline=None)
def test_raw_cayley_keys_match_matrix_kernel(gw, hw):
    """Elements that carry a matrix and no word are checked, then keyed as
    the matrix oracle keys them."""
    g, h = element_of_word(gw), element_of_word(hw)
    assert g._word is None and h._word is None
    want = matrix_pair_key(Vertex(CAY, element_of_word(gw)), Vertex(CAY, element_of_word(hw)))
    assert type_key_cayley(g, h) == want


def test_type_keys_of_built_vertices_make_no_generator_products(monkeypatch):
    """Two vertices whose matrices are built are keyed by reflecting orbit
    points only: no generator product on either side, so no product matrix,
    inverse or lazy representative's matrix."""
    verts = build_ball(C8, 3, "full-Y").vertices
    assert all(v.rep.mat for v in verts)
    calls = []
    for name in ("_mat_mul_gen_right", "_mat_mul_gen_left"):
        fn = getattr(coxeter, name)
        monkeypatch.setattr(coxeter, name, lambda m, x, _fn=fn: calls.append(x) or _fn(m, x))
    keys = {type_key_complex(u, v) for u in verts[::4] for v in verts}
    assert len(keys) == 398 and calls == []


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


def generic_mul(first, *factors):
    """The product of group elements by generic matrix products."""
    mat = first.mat
    for g in factors:
        mat = mat_mul(mat, g.mat)
    return GroupElement(mat)


@cache
def generic_step(word):
    """The element of ``word`` and its inverse, by generic products and the
    adjugate."""
    w = GroupElement(generic_product(word))
    return w, GroupElement(mat_inv(w.mat))


@cache
def generic_pair(p, step):
    """p * step by a generic product, once per pair."""
    return generic_mul(p, step)


def reference_key_partners(v, key):
    """key_partners by generic matrix products and inverses (the oracle)."""
    w, back = generic_step(key.word)
    if key.p == "CAY":
        out = [Vertex(CAY, generic_mul(v.rep, w))]
        back = Vertex(CAY, generic_mul(v.rep, back))
        return out if back == out[0] else out + [back]
    variants = []
    if v.parabolic.name == key.p:
        variants.append((w, PARABOLICS[key.q]))
    if v.parabolic.name == key.q:
        variants.append((back, PARABOLICS[key.p]))
    out = []
    for step, target in variants:
        for p in parabolic_elements(v.parabolic):
            cand = make_vertex(target, generic_mul(v.rep, generic_pair(p, step)))
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
    # the suites' complex keys on the d10 and pentagon balls (the Cayley
    # keys pair no vertex of these balls)
    keys = [k for k in suite_keys() if k.p != "CAY"]
    for center, radius, mode, want in ((fix_vertex(D10), 4, "d10-orbit", 2490),
                                       (C8, 5, "pentagon-subcomplex", 6425)):
        checked = 0
        for v in build_ball(center, radius, mode).vertices:
            for key in keys:
                got = key_partners(v, key)
                assert got == reference_key_partners(v, key), (v.label(), key)
                checked += bool(got)
        assert checked == want, mode


def suite_keys():
    """Every key the suites search with: the pentagon families' strings at
    n <= 3 and the bare edge, the d10 search's seed and candidates at radius
    6, and the sources and targets of the Cayley list."""
    keys = [string_key(StringSpec(()))]
    for family in FAMILIES:
        for n in range(4):
            sources, target = family_implication(family, n)
            keys += [string_key(s) for s in (*sources, target)]
    center = fix_vertex(D10)
    d10 = build_ball(center, 6, "d10-orbit")
    keys += [type_key_complex(center, v)
             for i, v in enumerate(d10.vertices) if 0 < d10.depth[i] <= 4]
    for line in builtin_lines():
        keys += [parse_key(k) for k in (*line.get("sources", ()), line.get("target"))
                 if k is not None]
    return list(dict.fromkeys(keys))


def test_anchor_orbit_reps_meet_every_partner_orbit():
    """The anchor's partners for a key are exactly the translates of its
    orbit representatives by the anchor's stabiliser P.  The full-Y keys
    of a radius-2 ball give the D4 anchor partners too."""
    full = build_ball(C8, 2, "full-Y")
    keys = list(dict.fromkeys([*suite_keys(), *(pair_key(fix_vertex(p), v)
                                                for p in (D8, D10, D4) for v in full.vertices)]))
    nonempty = {}
    for p in (D8, D10, D4, CAY):
        anchor = Vertex(p, identity())
        for key in keys:
            want = partner_keys(anchor, key)
            reps = anchor_orbit_reps(p, key)
            got = {translate_key(x, r) for x in parabolic_elements(p) for r in reps}
            assert got == set(want), (p.name, key)
            assert len(reps) <= 2
            if p is CAY:
                assert list(reps) == want, key
            nonempty[p.name] = nonempty.get(p.name, 0) + bool(want)
    assert min(nonempty.values()) > 10, nonempty


def test_partner_plan_seeds_each_orbit_once(monkeypatch):
    """``partner_keys`` translates one seed per distinct orientation orbit
    and computes every anchor partner exactly once, on one vertex of each
    parabolic of the full-Y ball and of each other universe."""
    full = build_ball(C8, 2, "full-Y")
    keys = list(dict.fromkeys([*suite_keys(), *(pair_key(fix_vertex(p), v)
                                                for p in (D8, D10, D4) for v in full.vertices)]))
    vertices = [*{v.parabolic: v for v in full.vertices}.values(),
                *(build_ball(c, 2, mode).vertices[-1]
                  for c, mode in ((C8, "pentagon-subcomplex"), (fix_vertex(D10), "d10-orbit"),
                                  (cayley_vertex(identity()), "cayley")))]
    assert {v.parabolic for v in vertices} == {D8, D10, D4, CAY}
    seeds = []
    monkeypatch.setattr(coxeter, "translate_key",
                        lambda g, k, _inner=coxeter.translate_key: seeds.append(k) or _inner(g, k))
    shapes = set()
    for v in vertices:
        for key in keys:
            orbits = {frozenset(coset_key(p.times(step), target)
                                for p in parabolic_elements(v.parabolic))
                      for step, target in edgetypes._orientations(v.parabolic, key)}
            seeds.clear()
            got = partner_keys(v, key)
            assert len(seeds) == len(orbits), (v.label(), key)
            assert len(got) == len(set(got)) == len(frozenset().union(*orbits)), (v.label(), key)
            assert len(edgetypes._partner_plan(v.parabolic, key)) == len(got)
            shapes.add((len(edgetypes._orientations(v.parabolic, key)), len(orbits)))
    assert shapes == {(0, 0), (1, 1), (2, 1), (2, 2)}


def word_walk_key_partners(v, key):
    """Complex-mode key_partners as one word walk from v.rep per candidate,
    through p's word and the step (the oracle for the anchor translation)."""
    assert key.p != "CAY"
    variants = []
    if v.parabolic.name == key.p:
        variants.append((key.word, PARABOLICS[key.q]))
    if v.parabolic.name == key.q:
        variants.append((key.word[::-1], PARABOLICS[key.p]))
    cands = {}
    for step, target in variants:
        for p in parabolic_elements(v.parabolic):
            g = v.rep.times(p.canonical_word() + step)
            cands.setdefault(coset_key(g, target), target)
    return [Vertex(q, coset_rep(k)) for k, q in cands.items()]


@pytest.fixture(scope="module")
def pentagon_n5():
    """The n <= 5, radius-10 pentagon suite and every (vertex, key) whose
    partner keys its witness searches ask for."""
    queried = []
    inner = implications.partner_keys

    def recording(v, key):
        queried.append((v, key))
        return inner(v, key)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(implications, "partner_keys", recording)
        rep = verify_pentagon_suite(5, 10)
    return rep, queried


def test_pentagon_n5_verdict_and_witnesses(pentagon_n5):
    rep, _ = pentagon_n5
    assert rep["status"] == "verified"
    trail = [[s["target_key"], s["witness"]] for s in rep["steps"]]
    trail += [[s["derived"], s["witness"]] for s in rep["chain"]["steps"]]
    assert len(trail) == 56 and sum(len(w) for _, w in trail) == 234
    assert trail[0] == ["CPLX:D8:D8:tsrstsrtst", [
        "D8:e", "D8:rsrstsrstst", "D8:srstsrstsrtst", "D8:srstsrtstsrst", "D8:srststsrst"]]
    assert hashlib.sha256(json.dumps(trail).encode()).hexdigest() == (
        "b0030e2e847e4a6e9eb29212b75aee1fc03b9f986c5cdd40e7cd58b83cf9d518")
    assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() == (
        "a4c8f03482e92a85a643f189dd94525e7bc2f8a0f06303ccc1aa3065dc30793f")


def test_key_partners_match_word_walks_on_pentagon_n5(pentagon_n5):
    _, queried = pentagon_n5
    assert len(queried) == len(set(queried)) > 500
    for v, key in queried:
        got = [key_vertex(k) for k in partner_keys(v, key)]
        assert got == word_walk_key_partners(v, key), (v.label(), key)


def test_warm_key_partners_walk_no_words(monkeypatch):
    """Once a complex key's anchor partners are built, a vertex's partners
    cost translations and peels only: no generator product on the right,
    and the orbit-point check of the raw-matrix entry points stays off."""
    calls = {"_mat_mul_gen_right": 0, "_form": 0}
    full = build_ball(C8, 2, "full-Y")
    keys = list(dict.fromkeys(pair_key(fix_vertex(p), v) for p in (D8, D10, D4)
                              for v in full.vertices))
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(coxeter, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(coxeter, name, counted)
    edgetypes._partner_plan.cache_clear()
    edgetypes.anchor_orbit_reps.cache_clear()
    slab = build_ball(C8, 4, "full-Y")
    assert calls["_form"] == 0
    for key in keys:
        for p in (D8, D10, D4):
            key_partners(fix_vertex(p), key)
    assert calls["_mat_mul_gen_right"] > 0
    calls["_mat_mul_gen_right"] = 0
    partners = sum(len(key_partners(v, key)) for v in slab.vertices for key in keys)
    assert partners > 0
    assert calls == {"_mat_mul_gen_right": 0, "_form": 0}
