"""Coset-complex and Cayley balls: adjacency, degrees, distances, dumps."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

import cox245.complexgraph as complexgraph
import cox245.coxeter as coxeter
from cox245.complexgraph import (
    ResourceLimitExceeded,
    VertexNotInSlab,
    adjacent,
    build_ball,
    cayley_vertex,
    fix_vertex,
    graph_distance,
    key_vertex,
    make_vertex,
    neighbors,
    pentagon_cyclic_neighbors,
    translate,
    vertex_key,
)
from cox245.coxeter import (
    CAY,
    D4,
    D8,
    D10,
    element_of_word,
    coset_key,
    coset_rep,
    identity,
    parabolic_elements,
)
from cox245.edgetypes import key_partners, pair_key
from cox245.numberfield import iq_mul
from matrix_oracle import generic_product, mat_inv, mat_mul

C8 = fix_vertex(D8)
C10 = fix_vertex(D10)
C4 = fix_vertex(D4)
T8 = make_vertex(D8, element_of_word("t"))


def test_fix_vertices_span_a_clique():
    assert adjacent(C8, C10)
    assert adjacent(C10, C4)
    assert adjacent(C4, C8)


def test_adjacency_is_irreflexive_and_type_separated():
    assert not adjacent(C8, C8)
    assert not adjacent(C8, T8)  # same-type cosets never intersect


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


def test_adjacency_left_invariant():
    pairs = [(C8, C10), (C8, T8), (C10, C4), (C8, C4)]
    for w_word in ("r", "st", "tsr", "rsts", "trst"):
        w = element_of_word(w_word)
        for u, v in pairs:
            if u.parabolic != v.parabolic:
                assert adjacent(translate(w, u), translate(w, v)) == adjacent(u, v)


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


def test_vertex_cap():
    with pytest.raises(ResourceLimitExceeded):
        build_ball(C8, 6, "pentagon-subcomplex", max_vertices=100)


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
        nbrs = pentagon_cyclic_neighbors(v)
        assert len(set(nbrs)) == 4
        assert set(neighbors(v, "pentagon-subcomplex")) == set(nbrs)


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


@given(st.text(alphabet="rst", max_size=20))
@settings(max_examples=60, deadline=None)
def test_cyclic_neighbors_match_rotation_products(w):
    """Neighbor k is the coset of rep * rot^k * edge, with the rotation
    reversed at odd-length representatives."""
    g = element_of_word(w)
    for parabolic, mode, rot, order, edge in ((D8, "pentagon-subcomplex", "rs", 4, "t"),
                                              (D10, "d10-orbit", "st", 5, "r")):
        v = make_vertex(parabolic, g)
        if v.rep.length() % 2:
            rot = rot[::-1]
        want = [make_vertex(parabolic, v.rep * element_of_word(rot * k + edge)) for k in range(order)]
        assert neighbors(v, mode) == want
        if parabolic == D8:
            assert pentagon_cyclic_neighbors(v) == want


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
    parabolic (the oracle for ``adjacent``)."""
    if u == v or u.parabolic == v.parabolic:
        return False
    diff = mat_mul(mat_inv(u.rep.mat), v.rep.mat)
    members = {g.mat for g in parabolic_elements(v.parabolic)}
    return any(mat_mul(p.mat, diff) in members for p in parabolic_elements(u.parabolic))


def test_adjacent_matches_generic_coset_intersection():
    slab = build_ball(C8, 2, "full-Y")
    hits = 0
    for u in slab.vertices:
        for v in slab.vertices:
            got = adjacent(u, v)
            assert got == reference_adjacent(u, v), (u.label(), v.label())
            hits += got
    assert (hits, len(slab) ** 2) == (240, 2401)


def test_ball_strips_each_coset_once(monkeypatch):
    """A coset already in the ball or the level is found by its key, so
    only the center is never peeled."""
    calls = []

    def counted(key):
        calls.append(key[0])
        return coset_rep(key)
    monkeypatch.setattr(complexgraph, "coset_rep", counted)
    slab = build_ball(C8, 6, "pentagon-subcomplex")
    assert len(slab) == 597
    assert len(calls) <= 596


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


# u_P in simple-root coordinates over the integral basis {1, sqrt2, phi, sqrt2 phi},
# and u_CAY = rho = u_D8 + u_D10 + u_D4
U_P = {"D8": ((0, 0, 0, 1), (0, 0, 2, 0), (2, 0, 0, 0)),
       "D10": ((0, 3, 0, -1), (4, 0, 0, 0), (0, 0, 2, 0)),
       "D4": ((0, 1, 0, 0), (2, 0, 0, 0), (0, 0, 1, 0)),
       "CAY": ((0, 4, 0, 0), (6, 0, 2, 0), (2, 0, 3, 0))}


def reference_vertex_key(v):
    """A vertex's key computed apart from the kernel: M u_P by generic
    ``iq_mul`` products, where M is the representative's matrix for a
    coset and, for a Cayley vertex, the product of its word's generator
    matrices by the generic matrix product."""
    mat = generic_product(v.word()) if v.parabolic is CAY else v.rep.mat
    out = [v.parabolic.name]
    for i in range(3):
        terms = [iq_mul(mat[3 * i + j], U_P[v.parabolic.name][j]) for j in range(3)]
        out.extend(sum(t[c] for t in terms) for c in range(4))
    return tuple(out)


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
    (cayley_vertex(identity()), 8, "cayley"),
])
def test_ball_walks_no_frontier_vertex(monkeypatch, center, radius, mode):
    """``build_ball`` walks the neighbors of exactly the vertices of depth
    below the radius, each once, and wires no adjacency."""
    walked = []

    def counted(v, mode, _fn=complexgraph._candidates):
        walked.append(v)
        return _fn(v, mode)
    monkeypatch.setattr(complexgraph, "_candidates", counted)
    slab = build_ball(center, radius, mode)
    inner = [v for v, d in zip(slab.vertices, slab.depth) if d < radius]
    assert walked == inner
    assert len(inner) < len(slab) and "adj" not in vars(slab)
