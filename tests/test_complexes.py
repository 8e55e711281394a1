"""Coset-complex and Cayley balls: adjacency, degrees, distances, dumps."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import cox245.complexgraph as complexgraph
import cox245.coxeter as coxeter
from cox245.complexgraph import (
    ResourceLimitExceeded,
    VertexNotInSlab,
    build_ball,
    cayley_vertex,
    fix_vertex,
    graph_distance,
    key_vertex,
    make_vertex,
    neighbors,
    translate,
    vertex_key,
)
from cox245.coxeter import (
    CAY,
    D8,
    D10,
    D4,
    PARABOLICS,
    element_of_word,
    coset_key,
    coset_rep,
    coset_reps,
    identity,
    parabolic_elements,
)
from cox245.edgetypes import key_partners, pair_key
from cox245.exact import ONE, ZERO, bilinear_form_matrix, generator_matrix_field, iq_to_field
from ball_oracle import plain_ball
from matrix_oracle import U_P, generic_product, mat_inv, mat_mul, mat_vec, reference_point

C8 = fix_vertex(D8)
C10 = fix_vertex(D10)
T8 = make_vertex(D8, element_of_word("t"))


def test_pentagon_ball_radius_1_has_degree_4():
    slab = build_ball(C8, 1, "pentagon-subcomplex")
    assert len(slab) == 5

    # independent oracle: enumerate the cosets d*t*D8 as full element sets
    d8 = parabolic_elements(D8)
    t = element_of_word("t")
    cosets = {frozenset((d * t * p) for p in d8) for d in d8}
    assert len(cosets) == 4


def test_cayley_ball_counts():
    cv = cayley_vertex(identity())
    assert len(build_ball(cv, 1, "cayley")) == 4
    assert len(build_ball(cv, 2, "cayley")) == 9  # tr = rt folds two length-2 words


def test_pentagon_interior_degree_4():
    slab = build_ball(C8, 6, "pentagon-subcomplex")
    for i in range(len(slab)):
        if slab.depth[i] < slab.radius:
            assert len(slab.adj[i]) == 4


def test_graph_distance_matches_slab():
    """The keyed bidirectional BFS gives every vertex of a radius-3 ball its
    depth, in all four universes."""
    for center, mode in ((C8, "pentagon-subcomplex"), (C10, "d10-orbit"), (C8, "full-Y"),
                         (cayley_vertex(identity()), "cayley")):
        slab = build_ball(center, 3, mode)
        for v, d in zip(slab.vertices, slab.depth):
            assert graph_distance(center, v, mode) == d, (mode, v.label())


def test_vertex_not_in_slab():
    slab = build_ball(C8, 1, "pentagon-subcomplex")
    far = make_vertex(D8, element_of_word("tsrsrt"))
    with pytest.raises(VertexNotInSlab):
        slab.index_of(far)


def test_vertex_cap(monkeypatch):
    monkeypatch.setattr(complexgraph, "MAX_BALL_VERTICES", 100)
    with pytest.raises(ResourceLimitExceeded):
        build_ball(C8, 6, "pentagon-subcomplex")


def test_full_y_contains_pentagon_edges_and_intersections():
    slab = build_ball(C8, 2, "full-Y")
    i, j = slab.index_of(C8), slab.index_of(T8)
    assert j in slab.adj[i]  # the pentagon edge is wired into full-Y
    k = slab.index_of(C10)
    assert k in slab.adj[i]


def test_d10_orbit_degree_5():
    slab = build_ball(C10, 2, "d10-orbit")
    assert len(slab.adj[slab.index_of(C10)]) == 5


def test_pentagon_cyclic_neighbors_consistency():
    for word in ("", "t", "rst", "srst"):
        v = make_vertex(D8, element_of_word(word))
        nbrs = neighbors(v, "pentagon-subcomplex")
        assert len(set(nbrs)) == 4
        assert all(v in neighbors(u, "pentagon-subcomplex") for u in nbrs)


def test_dump_deterministic_and_well_formed():
    slab = build_ball(C8, 2, "pentagon-subcomplex")
    dump1 = slab.dump()
    dump2 = build_ball(C8, 2, "pentagon-subcomplex").dump()
    assert dump1 == dump2
    lines = dump1.strip().splitlines()
    n_vertices = len(slab)
    head = lines[:n_vertices]
    assert head[0].split() == ["0", "D8", "e"]
    for line in lines[n_vertices:]:
        i, j = map(int, line.split())
        assert 0 <= i < j < n_vertices


def test_adjacency_symmetric_irreflexive():
    slab = build_ball(C8, 3, "full-Y")
    for i, nbrs in enumerate(slab.adj):
        assert i not in nbrs
        for j in nbrs:
            assert i in slab.adj[j]


def test_mode_center_validation():
    with pytest.raises(ValueError):
        build_ball(C10, 2, "pentagon-subcomplex")
    with pytest.raises(ValueError):
        build_ball(cayley_vertex(identity()), 2, "full-Y")
    with pytest.raises(ValueError):
        build_ball(C8, 2, "no-such-mode")


@pytest.mark.parametrize("call, match", [
    (lambda: neighbors(cayley_vertex(identity()), "full-Y"), "does not fit"),
    (lambda: neighbors(C10, "cayley"), "does not fit"),
    (lambda: graph_distance(C10, C10, "no-such-mode"), "unknown mode"),
    (lambda: graph_distance(C8, C8, "d10-orbit"), "does not fit"),
    (lambda: neighbors(C10, "pentagon-subcomplex"), "does not fit"),
], ids=["cayley-in-full-Y", "D10-in-cayley", "unknown-mode-distance", "D8-in-d10-distance",
        "D10-pentagon"])
def test_neighbors_and_distance_never_mix_universes(call, match):
    """A vertex outside the mode's universe, or an unknown mode, raises
    before any key is computed, even where both ends are equal."""
    with pytest.raises(ValueError, match=match):
        call()


# (parabolic, mode, rotation, order, edge letter) of the two tilings
TILINGS = ((D8, "pentagon-subcomplex", "rs", 4, "t"), (D10, "d10-orbit", "st", 5, "r"))


@given(st.text(alphabet="rst", max_size=40))
@settings(max_examples=60, deadline=None)
def test_cyclic_neighbors_match_rotation_products(w):
    """Neighbor k is the coset of rep * rot^k * edge, with the rotation
    reversed at odd-length representatives; full-Y lists a D8-vertex's
    pentagon neighbors in the same order, and a Cayley vertex's neighbors
    are rep * x for x = r, s, t."""
    g = element_of_word(w)
    for parabolic, mode, rot, order, edge in TILINGS:
        v = make_vertex(parabolic, g)
        if v.rep.length() % 2:
            rot = rot[::-1]
        want = [make_vertex(parabolic, v.rep * element_of_word(rot * k + edge)) for k in range(order)]
        assert neighbors(v, mode) == want
        if parabolic == D8:
            assert [u for u in neighbors(v, "full-Y") if u.parabolic is D8] == want
    v = cayley_vertex(g)
    assert neighbors(v, "cayley") == [cayley_vertex(v.rep.times(x)) for x in "rst"]


def test_wall_offsets_are_scaled_rotated_roots():
    """The kernel's constant offsets delta_k = u_P - M_{rot^k e} u_P, per
    parity, equal 2B(a_e, u_P) rot^k a_e (rot reversed at odd parity),
    computed over the field from the generator matrices and the form; the
    Cayley graph's delta_x equal 2B(a_x, rho) a_x."""
    B = bilinear_form_matrix()

    def twob(i, vec):
        return sum((2 * B[i][j] * vec[j] for j in range(3)), ZERO)

    def times(word, vec):
        for x in reversed(word):
            mat = generator_matrix_field(x)
            vec = [sum((mat[i][j] * vec[j] for j in range(3)), ZERO) for i in range(3)]
        return vec

    def kernel(parabolic, words):
        return [[iq_to_field(d[4 * j:4 * j + 4]) for j in range(3)]
                for d in coxeter._wall_offsets(parabolic, words)]

    for parabolic, _, rot, order, edge in TILINGS:
        e = "rst".index(edge)
        scale = twob(e, [iq_to_field(x) for x in U_P[parabolic.name]])
        assert scale != ZERO
        for r in (rot, rot[::-1]):
            root = [ONE if j == e else ZERO for j in range(3)]
            want = [[scale * c for c in times(r * k, root)] for k in range(order)]
            assert kernel(parabolic, tuple(r * k + edge for k in range(order))) == want
    rho = [iq_to_field(x) for x in U_P["CAY"]]
    want = [[twob(i, rho) if j == i else ZERO for j in range(3)] for i in range(3)]
    assert kernel(CAY, ("r", "s", "t")) == want


@pytest.mark.parametrize("center, radius, mode, size, digest", [
    (C8, 6, "pentagon-subcomplex", 597,
     "cd2bd8e2bf3f2cdb0e6af366b5ba77c17b47425eaf7798d9508c13273947ef56"),
    (C10, 5, "d10-orbit", 441,
     "a10a5aab44d4da4aa393a1b4b5df6b2d621e872787c8d9573f41ae148b830366"),
    (C8, 4, "full-Y", 329,
     "794cb0887366b51280a8a1b99d4253a6d3ed265aafcf8fd922d5b363c6e7250c"),
    (cayley_vertex(identity()), 12, "cayley", 411,
     "f691aeef588cda141be262aa66d9dcb3257292e1bc748350740cea5e35291eb9"),
])
def test_slab_dump_fingerprints(center, radius, mode, size, digest):
    """Vertex order, canonical words and edges of four balls, byte for byte."""
    slab = build_ball(center, radius, mode)
    assert len(slab) == size
    assert hashlib.sha256(slab.dump().encode()).hexdigest() == digest


def reference_adjacent(u, v):
    """Coset intersection by generic products against the members of v's
    parabolic: the full-Y oracle of ``test_adjacency_matches_pair_keys``."""
    if u == v or u.parabolic == v.parabolic:
        return False
    diff = mat_mul(mat_inv(u.rep.mat), v.rep.mat)
    members = {g.mat for g in parabolic_elements(v.parabolic)}
    return any(mat_mul(p.mat, diff) in members for p in parabolic_elements(u.parabolic))


def reference_full_y_keys(v):
    """v's full-Y neighbor keys by the word walk: the keys of v.rep * p * Q
    for the other two maximal types Q in ``PARABOLICS`` order and p in v's
    parabolic in ``parabolic_elements`` order, first occurrences kept, then a
    D8 vertex's pentagon neighbors v.rep * rot^k * t, the rotation rs
    reversed at odd length."""
    keys = [coset_key(v.rep.times(p.canonical_word()), q) for q in PARABOLICS.values()
            if q is not v.parabolic for p in parabolic_elements(v.parabolic)]
    if v.parabolic is D8:
        rot = "rs" if v.rep.length() % 2 == 0 else "sr"
        keys += [coset_key(v.rep.times(rot * k + "t"), D8) for k in range(4)]
    return list(dict.fromkeys(keys))


def test_full_y_candidates_follow_the_word_walk():
    """The orbit plans give every full-Y neighbor key of the word walk, in
    its order, at every vertex of a ball of all three types."""
    slab = build_ball(C8, 3, "full-Y")
    assert {v.parabolic.name for v in slab.vertices} == set(PARABOLICS)
    for v in slab.vertices:
        assert list(complexgraph._candidates(v, vertex_key(v), "full-Y")) == reference_full_y_keys(v)


def test_ball_strips_each_coset_once(monkeypatch):
    """A coset already in the ball or the level is found by its key, so
    only the center is never peeled: the ball passes each other key once to
    the batch peel, in one call per level, and makes no single peel."""
    batches, singles = [], []

    def counted(keys):
        batches.append(list(keys))
        return coset_reps(keys)
    monkeypatch.setattr(complexgraph, "coset_reps", counted)
    monkeypatch.setattr(complexgraph, "coset_rep", lambda key: singles.append(key) or coset_rep(key))
    slab = build_ball(C8, 6, "pentagon-subcomplex")
    assert len(slab) == 597
    keys = [key for batch in batches for key in batch]
    assert len(batches) == 6 and singles == []
    assert len(keys) == len(set(keys)) == 596
    assert vertex_key(C8) not in keys


def test_ball_and_partners_make_no_matrix_descent_tests(monkeypatch):
    """Words and coset representatives on the ball path are peeled off orbit
    points, even with an empty point memo: the kernel defines no matrix
    inverse, determinant, generic product or root-sign test, and the ball
    and its partner sets make no generic ``iq_mul`` product."""
    for name in ("_mat_inv", "_mat_det", "_mat_mul", "_column_root_sign"):
        assert not hasattr(coxeter, name), name
    near = build_ball(C8, 2, "pentagon-subcomplex").vertices[1:]
    keys = list(dict.fromkeys(pair_key(C8, v) for v in near))  # t, tst, tsrst
    calls = []

    def counted(x, y, _fn=coxeter.iq_mul):
        calls.append(1)
        return _fn(x, y)
    monkeypatch.setattr(coxeter, "iq_mul", counted)
    monkeypatch.setattr(coxeter, "_REPS", {
        key: g for key, g in coxeter._REPS.items() if g is coxeter._IDENT})
    slab = build_ball(C8, 6, "pentagon-subcomplex")
    partners = sum(len(key_partners(v, key)) for v in slab.vertices for key in keys)
    assert (len(slab), partners) == (597, 9552)
    assert calls == []


def walked_vertices(monkeypatch):
    """The list to which every vertex whose neighbors ``complexgraph``
    walks is appended from now on."""
    walked = []

    def counted(v, key, mode, _fn=complexgraph._candidates):
        walked.append(v)
        return _fn(v, key, mode)
    monkeypatch.setattr(complexgraph, "_candidates", counted)
    return walked


@pytest.mark.parametrize("center, radius, mode", [
    (C8, 8, "pentagon-subcomplex"), (C10, 6, "d10-orbit")])
def test_ball_builds_only_the_expanded_matrices(monkeypatch, center, radius, mode):
    """A peeled representative builds its matrix when first read: after a
    ball, every vertex it expanded has one, its outer level has none, and
    fewer vertices have one than lie below the outer level (the rest of
    an expanded vertex's orbit is never expanded)."""
    monkeypatch.setattr(coxeter, "_REPS", {
        key: g for key, g in coxeter._REPS.items() if g is coxeter._IDENT})
    walked = walked_vertices(monkeypatch)
    slab = build_ball(center, radius, mode)
    assert all(v.rep._mat is not None for v in walked)
    built = [d for v, d in zip(slab.vertices, slab.depth) if v.rep._mat is not None]
    assert max(built) < radius
    assert len(built) < sum(d < radius for d in slab.depth)


@pytest.mark.parametrize("center, radius, mode", [
    (C8, 4, "pentagon-subcomplex"), (C10, 3, "d10-orbit"), (C8, 2, "full-Y"),
    (cayley_vertex(identity()), 6, "cayley"),
])
def test_every_vertex_is_keyed_by_its_coset(center, radius, mode):
    """One key for every universe: a vertex's key is its coset's key, and
    peeling the key gives the vertex back."""
    for v in build_ball(center, radius, mode).vertices:
        key = vertex_key(v)
        assert key == coset_key(v.rep, v.parabolic)
        assert key_vertex(key) == v


def test_keys_have_seven_fields(monkeypatch):
    """A key is its parabolic's name and six ints: so is every key of four
    balls' indexes and every key the peels memoise."""
    monkeypatch.setattr(coxeter, "_REPS", {
        key: g for key, g in coxeter._REPS.items() if g is coxeter._IDENT})
    for center, radius, mode in [(C8, 10, "pentagon-subcomplex"), (C10, 6, "d10-orbit"),
                                 (cayley_vertex(identity()), 12, "cayley"), (C8, 4, "full-Y")]:
        slab = build_ball(center, radius, mode)
        assert {len(key) for key in slab.key_index} == {7}, mode
    assert len(coxeter._REPS) > 16737
    assert {len(key) for key in coxeter._REPS} == {7}


def reference_vertex_key(v):
    """A vertex's key computed apart from the kernel: M u_P by generic
    ``iq_mul`` products, where M is the representative's matrix for a
    coset and, for a Cayley vertex, the product of its word's generator
    matrices by the generic matrix product."""
    mat = generic_product(v.word()) if v.parabolic is CAY else v.rep.mat
    return reference_point(mat, v.parabolic.name)


@pytest.mark.parametrize("center, radius, mode", [
    (C8, 6, "pentagon-subcomplex"), (C8, 4, "full-Y"), (C10, 5, "d10-orbit"),
    (cayley_vertex(identity()), 12, "cayley"),
])
def test_key_index_oracle(center, radius, mode):
    """The slab's key index sends each vertex's independently computed key
    to its own index, the keys are pairwise distinct, and a vertex one step
    beyond the ball is not in it."""
    slab = build_ball(center, radius, mode)
    keys = [reference_vertex_key(v) for v in slab.vertices]
    assert len(set(keys)) == len(slab) == len(slab.key_index)
    for i, (v, key) in enumerate(zip(slab.vertices, keys)):
        assert slab.key_index[key] == i
        assert vertex_key(v) == key
        assert slab.index_of(v) == i and v in slab
    bigger = build_ball(center, radius + 1, mode)
    beyond = [v for i, v in enumerate(bigger.vertices) if bigger.depth[i] == radius + 1]
    assert beyond
    for v in beyond[:20]:
        assert v not in slab
        with pytest.raises(VertexNotInSlab):
            slab.index_of(v)


def edge_oracle(mode):
    """Adjacency in each universe read off the edge-type key of the pair:
    one orbit of pairs per edge kind, and coset intersection in full-Y."""
    if mode == "pentagon-subcomplex":
        pentagon = pair_key(C8, T8)
        return lambda u, v: pair_key(u, v) == pentagon
    if mode == "d10-orbit":
        square = pair_key(C10, make_vertex(D10, element_of_word("r")))
        return lambda u, v: pair_key(u, v) == square
    if mode == "cayley":
        return lambda u, v: pair_key(u, v).serialize() in ("CAY:r", "CAY:s", "CAY:t")
    pentagon = pair_key(C8, T8)
    return lambda u, v: reference_adjacent(u, v) or (
        u.parabolic is v.parabolic is D8 and pair_key(u, v) == pentagon)


@pytest.mark.parametrize("center, radius, mode", [
    (C8, 3, "pentagon-subcomplex"), (C10, 2, "d10-orbit"), (C8, 2, "full-Y"),
    (cayley_vertex(identity()), 4, "cayley"),
])
def test_adjacency_matches_pair_keys(center, radius, mode):
    """The adjacency a slab derives on first use is the edge relation read
    off ``pair_key`` over all pairs of its vertices."""
    slab = build_ball(center, radius, mode)
    assert "adj" not in vars(slab)
    edge = edge_oracle(mode)
    want = tuple(tuple(j for j, v in enumerate(slab.vertices) if j != i and edge(u, v))
                 for i, u in enumerate(slab.vertices))
    assert slab.adj == want
    assert slab.adj is slab.adj  # walked once


@pytest.mark.parametrize("center, radius, mode", [
    (C8, 6, "pentagon-subcomplex"), (C10, 4, "d10-orbit"), (C8, 3, "full-Y"),
    (cayley_vertex(identity()), 8, "cayley"), (T8, 4, "pentagon-subcomplex"),
])
def test_ball_walks_no_frontier_vertex(monkeypatch, center, radius, mode):
    """``build_ball`` walks the neighbors of one vertex of depth below the
    radius per orbit of the center's stabiliser, and wires no adjacency:
    the walked vertices' orbits, by ``translate``, are pairwise distinct and
    cover the inner vertices.  With a trivial stabiliser (the Cayley
    center, a center that is not fixed) it walks every inner vertex, in
    slab order."""
    walked = walked_vertices(monkeypatch)
    slab = build_ball(center, radius, mode)
    inner = [v for v, d in zip(slab.vertices, slab.depth) if d < radius]
    stabiliser = parabolic_elements(center.parabolic) if center.rep.is_identity() else (identity(),)
    orbits = {frozenset(translate(p, v) for p in stabiliser) for v in walked}
    assert set(walked) <= set(inner)
    assert len(orbits) == len(walked)
    assert set().union(*orbits) == set(inner)
    if len(stabiliser) == 1:
        assert walked == inner
    else:
        assert len(walked) < len(inner)
    assert len(inner) < len(slab) and "adj" not in vars(slab)


@pytest.mark.parametrize("center, radius, mode", [
    (C8, 8, "pentagon-subcomplex"), (C10, 6, "d10-orbit"), (C8, 4, "full-Y"),
    (fix_vertex(D4), 3, "full-Y"), (cayley_vertex(identity()), 8, "cayley"),
    (T8, 6, "pentagon-subcomplex"),
])
def test_ball_matches_the_plain_bfs(center, radius, mode):
    """The orbit walk builds the slab that expanding every inner vertex
    builds (``ball_oracle``): the same vertices, depths, key index in the
    same order, and dump."""
    slab, plain = build_ball(center, radius, mode), plain_ball(center, radius, mode)
    assert slab.vertices == plain.vertices
    assert slab.depth == plain.depth
    assert list(slab.key_index.items()) == list(plain.key_index.items())
    assert slab.dump() == plain.dump()


def test_key_orbit_is_the_stabiliser_translates():
    """``key_orbit(k, P)`` is the key of p.v for each p of P, in
    ``parabolic_elements`` order, v the vertex of k: checked against
    ``translate`` and the generic matrix product, for random keys of all
    three types and every P, the trivial one included."""
    rng = random.Random(37)
    keys = [*build_ball(C8, 4, "full-Y").key_index, *build_ball(C10, 6, "d10-orbit").key_index]
    for key in rng.sample(keys, 60):
        v = key_vertex(key)
        for p in (D8, D10, D4, CAY):
            elements = parabolic_elements(p)
            want = [mat_vec(g.mat, key) for g in elements]
            assert coxeter.key_orbit(key, p) == want
            assert [vertex_key(translate(g, v)) for g in elements] == want
