"""Triangulated discs: curvature audit, enumeration, isomorphism."""

import hashlib
import random
from itertools import permutations, product

import pytest

from cox245 import discs
from cox245.discs import (
    MAX_INTERIOR,
    CapExceeded,
    InvalidDisc,
    TriDisc,
    canonical_form,
    curvature_profile,
    discs_suite,
    enumerate_discs,
    p8_disc,
    p10_disc,
    wheel_disc,
)


def test_single_triangle_profile():
    d = TriDisc((0, 1, 2), ((0, 1, 2),))
    p = curvature_profile(d)
    assert p.interior == {}
    assert p.boundary == {0: 2, 1: 2, 2: 2}
    assert p.total == 6


def test_hexagonal_wheel_profile():
    p = curvature_profile(wheel_disc(6))
    assert p.interior == {6: 0}
    assert set(p.boundary.values()) == {1}


def test_p8_profile():
    p = curvature_profile(p8_disc())
    assert p.interior == {8: -2}
    assert sum(p.boundary.values()) == 8


def test_p10_profile():
    d = p10_disc()
    p = curvature_profile(d)
    assert sorted(p.interior.values()) == [0, 0]
    assert sorted(p.boundary.values()) == [0, 0, 1, 1, 1, 1, 1, 1]
    assert len(d.triangles) == 10


def test_validation_rejects_garbage():
    with pytest.raises(InvalidDisc):
        TriDisc((0, 1, 2), ((0, 1, 2), (0, 1, 2)))  # repeated triangle
    with pytest.raises(InvalidDisc):
        TriDisc((0, 1, 2, 3), ((0, 1, 2),))  # boundary edge uncovered


def _octahedron(p, q, first):
    """The octahedron with poles p, q and equator first..first+3."""
    eq = range(first, first + 4)
    return [(pole, eq[i], eq[(i + 1) % 4]) for pole in (p, q) for i in range(4)]


_W6 = list(wheel_disc(6).triangles)
_P10 = list(p10_disc().triangles)
_TORUS = [t for i in range(7) for t in ((i, (i + 1) % 7, (i + 3) % 7),
                                         (i, (i + 2) % 7, (i + 3) % 7))]


def test_validation_rejects_disc_plus_disjoint_torus():
    """A boundary triangle plus the 7-vertex torus on 3..9 has V - E + F =
    10 - 24 + 15 = 1 and a fan or cycle at every vertex, so only the
    connectivity check tells it from a disc."""
    tris = ((0, 1, 2), *(tuple(3 + x for x in t) for t in _TORUS))
    with pytest.raises(InvalidDisc, match="7 vertices lie off the boundary's component"):
        TriDisc((0, 1, 2), tris)


@pytest.mark.parametrize("boundary, tris, message", [
    ((0, 1), [(0, 1, 2)], "boundary needs at least 3 vertices"),
    ((0, 1, 2, 1), [(0, 1, 2)], "boundary cycle is not simple"),
    (tuple(range(6)), _W6[1:], "edge (0, 6) lies in 1 triangles, expected 2"),
    (tuple(range(6)), _W6 + [(0, 2, 6)], "edge (0, 6) lies in 3 triangles, expected 2"),
    (tuple(range(4)), [(0, 1, 2)], "edge (0, 2) lies in 1 triangles, expected 2"),
    # flipping the wheel(3) spoke (0, 3) repeats the triangle (1, 2, 3)
    ((0, 1, 2), [(0, 1, 2), (1, 2, 3), (1, 2, 3)], "repeated triangle"),
    # flipping a spoke of the wheel or the hub edge of P10 leaves a disc
    (tuple(range(6)), [t for t in _W6 if t not in [(1, 2, 6), (2, 3, 6)]]
     + [(1, 2, 3), (1, 3, 6)], None),
    (tuple(range(8)), [t for t in _P10 if t not in [(0, 8, 9), (4, 8, 9)]]
     + [(0, 4, 8), (0, 4, 9)], None),
    (tuple(range(6)), _W6[:-1] + [(4, 4, 5)], "degenerate triangle (4, 4, 5)"),
    ((0, 1, 2), _octahedron(3, 4, 5), "boundary edge (0, 1) not covered by a triangle"),
    ((0, 1, 2), [(0, 1, 2)] + _octahedron(3, 4, 5), "Euler characteristic 3 != 1"),
    # a sphere glued on at two vertices: V - E + F = 1, every edge count right
    (tuple(range(6)), _W6 + _octahedron(0, 3, 7), "link of vertex 0 is disconnected (pinch point)"),
    (tuple(range(8)), _P10 + _octahedron(8, 9, 10), "link of vertex 8 is disconnected (pinch point)"),
    ((0, 1, 2), [(0, 1, 2)] + [tuple(3 + x for x in t) for t in _TORUS],
     "7 vertices lie off the boundary's component (a disjoint closed surface)"),
    # the tetrahedron: a closed sphere
    ((0, 1, 2), [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
     "edge (0, 1) lies in 2 triangles, expected 1"),
])
def test_validation_messages_pinned(boundary, tris, message):
    """The first failing check names the fault; ``None`` marks a valid disc."""
    try:
        TriDisc(boundary, tuple(tris))
    except InvalidDisc as exc:
        assert str(exc) == message
    else:
        assert message is None


def test_isomorphism_respects_marked_boundary():
    w = wheel_disc(8)
    rotated = TriDisc(tuple(range(8)), tuple(((i + 3) % 8, (i + 4) % 8, 8) for i in range(8)))
    assert w.canonical == rotated.canonical
    assert p8_disc().canonical != p10_disc().canonical
    assert TriDisc((0, 1, 2), ((0, 1, 2),)).canonical != wheel_disc(3).canonical


def test_enumerate_boundary3():
    out = enumerate_discs(3, 1)
    assert len(out) == 1
    assert out[0].canonical == TriDisc((0, 1, 2), ((0, 1, 2),)).canonical


def test_enumerate_square():
    out = enumerate_discs(4, 2)
    # two labeled fans, one isomorphism class
    assert len(out) == 1
    out = enumerate_discs(4, 4)
    assert any(len(d.triangles) == 4 for d in out)  # the coned square appears


def test_hexagon_wheel_unique():
    out = enumerate_discs(6, 8, locally_6_large=True, forbid_boundary_chords=True)
    assert len(out) == 1
    assert out[0].canonical == wheel_disc(6).canonical


def test_octagon_classification():
    out = enumerate_discs(8, 10, locally_6_large=True, min_boundary_angle=2,
                          forbid_boundary_chords=True)
    assert len(out) == 2
    assert [d.canonical for d in out] == [p8_disc().canonical, p10_disc().canonical]


def test_gauss_bonnet_over_enumeration():
    for boundary, cap in ((3, 5), (4, 6), (5, 7), (6, 8)):
        for d in enumerate_discs(boundary, cap):
            assert curvature_profile(d).total == 6


def test_enumeration_constraint_monotonicity():
    relaxed = {canonical_form(d) for d in enumerate_discs(6, 8)}
    strict = enumerate_discs(6, 8, locally_6_large=True, forbid_boundary_chords=True)
    assert all(canonical_form(d) in relaxed for d in strict)
    mid = enumerate_discs(6, 8, forbid_boundary_chords=True)
    assert {canonical_form(d) for d in strict} <= {canonical_form(d) for d in mid} <= relaxed


def test_enumeration_closed_under_refilter():
    out = enumerate_discs(6, 8, locally_6_large=True, forbid_boundary_chords=True)
    for d in out:
        prof = curvature_profile(d)
        # locally 6-large: every interior curvature 6 - angle is <= 0
        assert all(k <= 0 for k in prof.interior.values())
        assert all(d.angle(v) >= 6 for v in d.interior_vertices)
        edges = d.edges()
        b = len(d.boundary)
        for (x, y) in edges:
            if x < b and y < b:
                assert (x - y) % b in (1, b - 1)


def test_enumeration_duplicate_free():
    out = enumerate_discs(6, 8)
    keys = [canonical_form(d) for d in out]
    assert len(keys) == len(set(keys))


def test_caps_enforced():
    with pytest.raises(CapExceeded):
        enumerate_discs(13, 10)
    with pytest.raises(CapExceeded):
        enumerate_discs(6, 20)
    with pytest.raises(ValueError):
        enumerate_discs(2, 4)


def test_negative_constraints_rejected():
    with pytest.raises(ValueError, match="max_triangles"):
        enumerate_discs(6, -1)
    with pytest.raises(ValueError, match="min_boundary_angle"):
        enumerate_discs(6, 8, min_boundary_angle=-1)


def test_suite_flags_missing_classified_discs(monkeypatch):
    assert discs_suite(8, 9, True, 2, True)["status"] == "verified"  # P10 needs 10
    monkeypatch.setattr(discs, "enumerate_discs", lambda *args, **kwargs: [])
    octagon = discs_suite(8, 10, True, 2, True)
    assert octagon["status"] == "failed"
    assert octagon["red_flags"] == [p8_disc().to_text(), p10_disc().to_text()]
    assert discs_suite(8, 9, True, 2, True)["red_flags"] == [p8_disc().to_text()]
    hexagon = discs_suite(6, 8, True, 0, True)
    assert hexagon["status"] == "failed"
    assert hexagon["red_flags"] == [wheel_disc(6).to_text()]
    # boundary angle 3 excludes every reference disc, so none is expected
    assert discs_suite(8, 10, True, 3, True)["status"] == "verified"
    assert discs_suite(6, 5, True, 0, True)["status"] == "verified"


@pytest.mark.parametrize("args, kwargs, count, digest", [
    ((8, 10), {}, 788, "ca6cce85e342cc9c"),
    ((10, 12), {"locally_6_large": True}, 165, "957cb079f2edf34b"),
    # past the clone-based oracle's range, up to the caps
    ((9, 11), {"min_boundary_angle": 1}, 2866, "da20aebe2fa067f0"),
    ((12, 14), {"locally_6_large": True}, 2030, "f10ec3b3943f6294"),
    ((12, 14), {"forbid_boundary_chords": True}, 7, "12ac4eeee97c3c7b"),
    ((10, 14), {"locally_6_large": True, "min_boundary_angle": 2, "forbid_boundary_chords": True},
     6, "72823a33d827c10b"),
])
def test_benchmark_enumerations_pinned(args, kwargs, count, digest):
    out = enumerate_discs(*args, **kwargs)
    assert len(out) == count
    text = "".join(d.to_text() for d in out)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_orderly_boundary_keeps_about_one_leaf_per_class(monkeypatch):
    leaves = []
    relabel = discs._least_relabeling

    def counted(*args):
        leaves.append(1)
        return relabel(*args)

    monkeypatch.setattr(discs, "_least_relabeling", counted)
    assert len(enumerate_discs(8, 10)) == 788
    # every kept leaf is keyed by its canonical form; 11,715 leaves reach
    # the key without the orderly prune
    assert 0 < len(leaves) <= 1000


def test_corner_bound_prunes_dead_subtrees(monkeypatch):
    tried = []
    tri = discs._tri

    def counted(*args):
        tried.append(1)
        return tri(*args)

    monkeypatch.setattr(discs, "_tri", counted)
    assert len(enumerate_discs(10, 12, locally_6_large=True)) == 165
    # one call per apex tried, plus one per triangle of each new class;
    # 17,202 with the current angle as each boundary angle's lower bound,
    # 6,676 with every open corner lifted by the spare new vertices, and
    # 4,597 when only a region big enough to hold a new vertex lifts
    assert len(tried) <= 5000


def test_serialization_golden_wheel():
    text = wheel_disc(6).to_text()
    assert text == (
        "7 12 6 6\n"
        "0 1 2 3 4 5\n"
        "0 1 6\n"
        "0 5 6\n"
        "1 2 6\n"
        "2 3 6\n"
        "3 4 6\n"
        "4 5 6\n"
    )
    # serialization is canonical: any rotation prints identically
    rotated = TriDisc(tuple(range(6)), tuple(((i + 2) % 6, (i + 3) % 6, 6) for i in range(6)))
    assert rotated.to_text() == text


# --- the clone-based enumerator, kept as the oracle ---------------------------
# It builds a TriDisc (so runs the full validation) and its canonical form at
# every leaf, and copies the whole fill state at every move.

class _RefFillState:
    __slots__ = ("nverts", "edges", "tris", "tri_set", "angle", "regions", "on_regions")

    def __init__(self, nverts, edges, tris, tri_set, angle, regions, on_regions):
        self.nverts = nverts
        self.edges = edges
        self.tris = tris
        self.tri_set = tri_set
        self.angle = angle
        self.regions = regions
        self.on_regions = on_regions

    def clone(self):
        return _RefFillState(self.nverts, dict(self.edges), list(self.tris),
                             set(self.tri_set), list(self.angle),
                             [list(r) for r in self.regions], list(self.on_regions))


def _ref_tri(a, b, c):
    return tuple(sorted((a, b, c)))


def _ref_edge(a, b):
    return (a, b) if a < b else (b, a)


def reference_enumerate_discs(boundary_len, max_triangles, locally_6_large=False,
                              min_boundary_angle=0, forbid_boundary_chords=False):
    B = boundary_len
    results = {}
    start = _RefFillState(
        nverts=B,
        edges={_ref_edge(i, (i + 1) % B): 1 for i in range(B)},
        tris=[],
        tri_set=set(),
        angle=[0] * B,
        regions=[list(range(B))],
        on_regions=[1] * B,
    )

    def finalize_vertex(st, v):
        if v < B:
            return st.angle[v] >= min_boundary_angle
        return (not locally_6_large) or st.angle[v] >= 6

    def lower_bound(st):
        return sum(len(r) - 2 for r in st.regions)

    def emit(st):
        disc = TriDisc(tuple(range(B)), tuple(st.tris))
        key = canonical_form(disc)
        if key not in results:
            results[key] = disc

    def step(st):
        if not st.regions:
            emit(st)
            return
        region = st.regions[-1]
        a, b = region[0], region[1]
        m = len(region)
        for k in list(range(2, m)) + [None]:
            new_vertex = k is None
            w = st.nverts if new_vertex else region[k]
            tri = _ref_tri(a, b, w)
            if tri in st.tri_set:
                continue
            e_bw, e_wa = _ref_edge(b, w), _ref_edge(w, a)
            if not new_vertex:
                if (e_bw in st.edges) != (k == 2):
                    continue
                if (e_wa in st.edges) != (k == m - 1):
                    continue
                if k == 2 and st.edges[e_bw] < 1:
                    continue
                if k == m - 1 and st.edges[e_wa] < 1:
                    continue
            if forbid_boundary_chords and not new_vertex:
                if any(x < B and y < B and (x - y) % B not in (1, B - 1)
                       and _ref_edge(x, y) not in st.edges
                       for (x, y) in ((b, w), (w, a))):
                    continue
            nxt = st.clone()
            if new_vertex:
                nxt.nverts += 1
                nxt.angle.append(0)
                nxt.on_regions.append(0)
            nxt.tris.append(tri)
            nxt.tri_set.add(tri)
            for v in tri:
                nxt.angle[v] += 1
            nxt.edges[_ref_edge(a, b)] -= 1
            for e in (e_bw, e_wa):
                if e in nxt.edges:
                    nxt.edges[e] -= 1
                else:
                    nxt.edges[e] = 1
            old = nxt.regions.pop()
            for v in old:
                nxt.on_regions[v] -= 1
            if new_vertex:
                new_regions = [[a, w] + old[1:]]
            elif k == 2 and m == 3:
                new_regions = []
            elif k == 2:
                new_regions = [old[2:] + [a]]
            elif k == m - 1:
                new_regions = [old[1:]]
            else:
                new_regions = [old[k:] + [a], old[1:k + 1]]
            for r in new_regions:
                assert len(r) >= 3, "degenerate region"
                nxt.regions.append(r)
                for v in r:
                    nxt.on_regions[v] += 1
            closed = [v for v in set(old) if nxt.on_regions[v] == 0]
            if any(not finalize_vertex(nxt, v) for v in closed):
                continue
            if len(nxt.tris) + lower_bound(nxt) > max_triangles:
                continue
            if nxt.nverts - B > MAX_INTERIOR:
                continue
            step(nxt)

    step(start)
    ordered = sorted(results.items(), key=lambda kv: (len(kv[1].triangles), kv[0]))
    return [disc for _, disc in ordered]


def test_enumeration_matches_clone_based_oracle():
    total = 0
    for boundary in range(3, 9):
        for cap in range(boundary - 2, min(boundary + 2, 9) + 1):
            for flags in product((False, True), (0, 2), (False, True)):
                l6, min_angle, no_chords = flags
                kwargs = dict(locally_6_large=l6, min_boundary_angle=min_angle,
                              forbid_boundary_chords=no_chords)
                want = [d.to_text() for d in reference_enumerate_discs(boundary, cap, **kwargs)]
                got = [d.to_text() for d in enumerate_discs(boundary, cap, **kwargs)]
                assert got == want, (boundary, cap, flags)
                total += len(got)
    assert total == 923


# --- canonical forms ------------------------------------------------------------

def _relabelings(d):
    """Every boundary rotation/reflection combined with every interior
    relabeling of ``d``, as triangle lists: boundary[(off + sign i) % n]
    goes to i and the interior onto n.. in every order."""
    bnd = d.boundary
    n = len(bnd)
    interior = sorted({v for t in d.triangles for v in t} - set(bnd))
    for off in range(n):
        for sign in (1, -1):
            for perm in permutations(range(n, n + len(interior))):
                label = {bnd[(off + sign * i) % n]: i for i in range(n)}
                label.update(zip(interior, perm))
                yield [tuple(sorted(label[v] for v in t)) for t in d.triangles]


def brute_canonical_form(d):
    """The least sorted triangle list over all 2B * k! relabelings."""
    return tuple(min(sorted(tris) for tris in _relabelings(d)))


def _shuffled_copy(d, rng):
    """``d`` under a random dihedral turn of its boundary, with every vertex
    renamed to a distinct random label in 0..99 (boundary and interior
    mixed, not contiguous)."""
    n = len(d.boundary)
    turn = rng.randrange(n)
    bnd = d.boundary[turn:] + d.boundary[:turn]
    if rng.random() < 0.5:
        bnd = bnd[::-1]
    names = dict(zip(d.vertices, rng.sample(range(100), len(d.vertices))))
    return TriDisc(tuple(names[v] for v in bnd),
                   tuple(tuple(names[v] for v in t) for t in d.triangles))


@pytest.mark.parametrize("args, kwargs, count", [
    ((3, 12), {}, 101),
    ((8, 10), {}, 788),
    ((10, 12), {"locally_6_large": True}, 165),
])
def test_canonical_form_matches_brute_force(args, kwargs, count):
    rng = random.Random(count)
    out = enumerate_discs(*args, **kwargs)
    assert len(out) == count
    for d in out:
        want = brute_canonical_form(d)
        assert d.canonical == canonical_form(d) == want
        copy = _shuffled_copy(d, rng)
        assert canonical_form(copy) == brute_canonical_form(copy) == want
    if args == (3, 12):
        assert max(len(d.interior_vertices) for d in out) == 5


def _least_angle_sequence(d):
    angles = [d.angle(v) for v in d.boundary]
    n = len(angles)
    return min(tuple(angles[(off + sign * i) % n] for i in range(n))
               for off in range(n) for sign in (1, -1))


@pytest.mark.parametrize("boundary,cap", [(7, 9), (4, 8)])
def test_canonical_form_is_a_complete_invariant(boundary, cap):
    discs = enumerate_discs(boundary, cap)
    forms = []
    for d in discs:
        form = canonical_form(d)
        assert all(canonical_form(TriDisc(d.boundary, tuple(tris))) == form
                   for tris in _relabelings(d))
        forms.append(form)
    assert len(set(forms)) == len(discs)
    if (boundary, cap) == (4, 8):
        # here the boundary-angle sequence alone does not separate the classes
        assert len({_least_angle_sequence(d) for d in discs}) < len(discs)


def test_each_disc_builds_its_edge_dict_once(monkeypatch):
    built = []
    edges = TriDisc.edges

    def counted(self):
        built.append(1)
        return edges(self)

    monkeypatch.setattr(TriDisc, "edges", counted)
    report = discs_suite(6, 8, False, 0, False)
    assert len(built) == report["count"] == len(report["steps"])  # one per validation
    monkeypatch.undo()
    for d in enumerate_discs(6, 8):
        assert d.counts()[1] == len(d.edges())
