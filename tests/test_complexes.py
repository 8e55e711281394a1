"""Coset-complex and Cayley balls: adjacency, degrees, distances, dumps."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from cox245.complexgraph import (
    ResourceLimitExceeded,
    VertexNotInSlab,
    _d10_cyclic_neighbors,
    adjacent,
    build_ball,
    cayley_vertex,
    fix_vertex,
    graph_distance,
    make_vertex,
    neighbors,
    pentagon_cyclic_neighbors,
    translate,
)
from cox245.coxeter import D4, D8, D10, element_of_word, identity, parabolic_elements

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


def test_distance_basics():
    slab = build_ball(C8, 4, "pentagon-subcomplex")
    d = slab.distance(C8, C8)
    assert d.value == 0 and d.exact
    d = slab.distance(C8, T8)
    assert d.value == 1 and d.exact


def test_distance_metric_axioms_spot_check():
    slab = build_ball(C8, 5, "pentagon-subcomplex")
    vs = [slab.vertices[i] for i in (0, 3, 7, 11, 20)]
    for u in vs:
        for v in vs:
            duv = slab.distance(u, v)
            dvu = slab.distance(v, u)
            if duv.exact and dvu.exact:
                assert duv.value == dvu.value
                assert (duv.value == 0) == (u == v)
            for w in vs:
                duw, dwv = slab.distance(u, w), slab.distance(w, v)
                if duv.exact and duw.exact and dwv.exact:
                    assert duv.value <= duw.value + dwv.value


def test_frontier_distances_not_overclaimed():
    small = build_ball(C8, 2, "pentagon-subcomplex")
    big = build_ball(C8, 6, "pentagon-subcomplex")
    exact = 0
    for i in range(len(small)):
        for j in range(i + 1, len(small)):
            u, v = small.vertices[i], small.vertices[j]
            d_small = small.distance(u, v)
            truth = big.distance(u, v)
            assert truth.exact
            if d_small.exact:
                exact += 1
                assert d_small.value == truth.value
            else:
                assert d_small.lower_bound <= truth.value
    # a path that leaves the ball is at least the escape length, so every
    # in-slab distance up to it is exact
    assert (exact, len(small) * (len(small) - 1) // 2) == (86, 136)


def test_graph_distance_matches_slab():
    slab = build_ball(C8, 5, "pentagon-subcomplex")
    for idx in (1, 5, 17, 30):
        v = slab.vertices[idx]
        assert graph_distance(C8, v, "pentagon-subcomplex") == slab.depth[idx]


def test_vertex_not_in_slab():
    slab = build_ball(C8, 1, "pentagon-subcomplex")
    far = make_vertex(D8, element_of_word("tsrsrt"))
    with pytest.raises(VertexNotInSlab):
        slab.distance(C8, far)


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
    for parabolic, cyclic, rot, order, edge in ((D8, pentagon_cyclic_neighbors, "rs", 4, "t"),
                                                (D10, _d10_cyclic_neighbors, "st", 5, "r")):
        v = make_vertex(parabolic, g)
        if v.rep.length() % 2:
            rot = rot[::-1]
        assert cyclic(v) == [make_vertex(parabolic, v.rep * element_of_word(rot * k + edge))
                             for k in range(order)]


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
