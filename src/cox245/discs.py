"""Combinatorial triangulated discs: curvature audits and classification.

A disc here is a simplicial triangulation of a 2-disc with a marked
boundary cycle.  Curvature is the combinatorial one: an interior vertex
with k incident triangles carries 6 - k, a boundary vertex 3 - k, and the
totals over a disc always sum to 6 (discrete Gauss-Bonnet with Euler
characteristic 1); the profile computation asserts the identity instead of
assuming it, so a malformed disc fails loudly.

Enumeration grows discs inward from the boundary, always filling a
deterministic frontier edge, so every labeled triangulation of the marked
boundary 0..B-1 is reachable exactly once; results are deduplicated up to
rotation/reflection of the marked boundary (boundary and interior never
exchange roles).  The search's only state is the fill (the edges drawn,
the triangles, the angles and the open regions), and each move is undone
after recursing into it.  Every edge between consecutive vertices of an
open region lies in exactly one triangle, or in none on the boundary
cycle, so an apex may reuse only those edges.  Besides the triangle cap,
two exact integer bounds, both read off the open regions in ``pruned()``,
prune the search after every move:

* Angle bound.  Every completion of the open regions needs at least
  ``len(tris) + sum(|r| - 2)`` triangles, and each new vertex adds two to
  that, so at most ``slack // 2`` new vertices remain, where ``slack`` is
  the cap minus that least count.  In a valid disc the triangles at a
  corner of an m-region filled with j new vertices form a fan whose
  vertices are distinct, so they number at most m - 2 + j.  A vertex on
  open regions therefore ends with at most ``angle + sum_{r on v}(|r| - 2)
  + slack // 2`` triangles, and a closed vertex keeps its angle exactly.
  Under local 6-largeness a region takes a new vertex only if it is big
  enough to hold one: a new vertex made in an m-region lies inside that
  region's fill, and its link is a cycle of distinct vertices drawn from
  the m corners and the fill's other new vertices, so it ends with at most
  m + j - 1 <= m + slack // 2 - 1 triangles.  A region of fewer than
  ``7 - slack // 2`` corners thus takes none, and the ``slack // 2`` term
  counts only at a vertex with an open region of at least that many
  corners (without local 6-largeness, at every vertex on an open region).
  A state is dropped when that bound is below what the vertex must reach
  (6 inside under local 6-largeness, the minimum boundary angle on the
  boundary).
* Orderly boundary.  Every class has a labeling whose boundary-angle
  sequence ``angle[0..B-1]`` is the least of its 2B dihedral images, and
  that labeling is generated, so only such leaves are kept.  At an inner
  node each boundary angle lies in [low, bound], where ``low`` adds to the
  angle the number of open regions the vertex is a corner of: every
  completion fills each open region with a triangulation of its polygon,
  which has a triangle at each of its corners, and the fills of distinct
  regions share no triangle.  For each non-identity order the positions
  i are scanned while the identity's angle is certainly at least the one
  that order puts there, from vertex j: the same vertex, or low[i] =
  bound[j], as then final[i] >= low[i] = bound[j] >= final[j] in every
  completion.  The scan stops at the first position with low[i] <
  bound[j].  If instead low[i] > bound[j], every completion's image under
  that order is smaller (at the first position where the two sequences
  differ, the identity's is the larger), so it is not kept, and the state
  is dropped.  At a leaf no region is open and low = angle = bound, so leaf
  acceptance does not depend on these bounds: a tighter bound only drops
  subtrees without a kept leaf, and the output is the same.

A class still reaches several leaves when its least sequence is symmetric,
so each kept leaf is keyed by its canonical form (``_least_relabeling``),
and only a leaf whose form is new becomes a ``TriDisc``, which keeps that
form: one canonical form per kept leaf and one validation per class (a
skipped leaf is a relabeling of a validated one, and validity does not
depend on labels).  The first leaf of a class is its representative, and
the output is sorted by triangle count and canonical form.

The two octagon fillings with one resp. two interior hubs (the degree-8
wheel and its split companion) are provided as reference discs; under the
local-largeness constraints the octagon enumeration must produce exactly
those two, and a hexagon must produce only the wheel.  The suite flags a
disc outside the family, and a family disc that fits the run's triangle
cap and minimum boundary angle but was not enumerated.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, cached_property
from itertools import permutations
from operator import lt

__all__ = [
    "TriDisc",
    "CurvatureProfile",
    "InvalidDisc",
    "CapExceeded",
    "curvature_profile",
    "enumerate_discs",
    "discs_suite",
    "canonical_form",
    "is_isomorphic",
    "wheel_disc",
    "p8_disc",
    "p10_disc",
    "MAX_BOUNDARY",
    "MAX_TRIANGLES",
    "MAX_INTERIOR",
]

MAX_BOUNDARY = 12
MAX_TRIANGLES = 14
MAX_INTERIOR = 7


class InvalidDisc(ValueError):
    pass


class CapExceeded(RuntimeError):
    pass


def _tri(a, b, c):
    return tuple(sorted((a, b, c)))


def _edge(a, b):
    return (a, b) if a < b else (b, a)


class TriDisc(namedtuple("TriDisc", "boundary triangles")):
    """A triangulated disc with marked boundary cycle.

    ``boundary`` lists the boundary vertices in cyclic order; ``triangles``
    is the sorted tuple of sorted vertex triples.  Construction validates
    the simplicial disc axioms (edge multiplicities, vertex links, Euler
    characteristic, simple boundary).  Instances keep a ``__dict__`` for
    ``canonical``.
    """

    def __new__(cls, boundary: tuple[int, ...], triangles: tuple[tuple[int, int, int], ...]):
        d = super().__new__(cls, boundary, tuple(sorted(_tri(*t) for t in triangles)))
        _validate(d)
        return d

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.boundary).union(*self.triangles)))

    @property
    def interior_vertices(self) -> tuple[int, ...]:
        b = set(self.boundary)
        return tuple(v for v in self.vertices if v not in b)

    def edges(self) -> dict[tuple[int, int], int]:
        counts: dict[tuple[int, int], int] = {}
        for a, b, c in self.triangles:  # each triple sorted
            for e in ((a, b), (b, c), (a, c)):
                counts[e] = counts.get(e, 0) + 1
        return counts

    def angle(self, v: int) -> int:
        return sum(1 for t in self.triangles if v in t)

    def counts(self) -> tuple[int, int, int, int]:
        """(V, E, F, B); E = V + F - 1, as construction checks Euler's formula."""
        nv, nf = len(self.vertices), len(self.triangles)
        return (nv, nv + nf - 1, nf, len(self.boundary))

    @cached_property
    def canonical(self) -> tuple:
        """``canonical_form(self)``, computed once per disc."""
        return canonical_form(self)

    def to_text(self) -> str:
        """Canonical serialization: counts line, boundary line, triangles."""
        return _text(self.counts(), self.canonical)


def _text(counts, form) -> str:
    """``to_text`` of a disc with these ``counts()`` and canonical form."""
    lines = [" ".join(map(str, counts)), " ".join(map(str, range(counts[3])))]
    lines.extend(" ".join(map(str, t)) for t in form)
    return "\n".join(lines) + "\n"


def _validate(d: TriDisc):
    """Raise ``InvalidDisc`` unless ``d`` is a simplicial disc with boundary
    cycle ``d.boundary``.

    A link vertex u of v has degree the number of triangles on the edge
    (v, u).  Once every edge lies in one triangle on the boundary cycle and
    in two elsewhere, and every boundary edge is covered, each link is
    therefore a union of cycles, plus, at a boundary vertex, one path between
    its two cycle neighbours (its only degree-1 link vertices); no vertex is
    isolated.  So each link is only walked, from a cycle neighbour to the
    other or around the cycle through its first vertex, and must be crossed
    in full.  Connected links make the complex a surface, and Euler's
    formula alone does not make it a disc (a disc plus a disjoint torus has
    V - E + F = 1), so every vertex must also reach the boundary."""
    bnd = d.boundary
    if len(bnd) < 3:
        raise InvalidDisc("boundary needs at least 3 vertices")
    if len(set(bnd)) != len(bnd):
        raise InvalidDisc("boundary cycle is not simple")
    tris = d.triangles
    if len(set(tris)) != len(tris):
        raise InvalidDisc("repeated triangle")
    links: dict[int, list[tuple[int, int]]] = {}
    for t in tris:
        a, b, c = t  # sorted
        if a == b or b == c:
            raise InvalidDisc(f"degenerate triangle {t}")
        links.setdefault(a, []).append((b, c))
        links.setdefault(b, []).append((a, c))
        links.setdefault(c, []).append((a, b))
    cycle_nbrs = {v: (bnd[i - 1], bnd[(i + 1) % len(bnd)]) for i, v in enumerate(bnd)}
    boundary_edges = {_edge(v, w) for v, (_, w) in cycle_nbrs.items()}
    counts = d.edges()
    for e, c in counts.items():
        want = 1 if e in boundary_edges else 2
        if c != want:
            raise InvalidDisc(f"edge {e} lies in {c} triangles, expected {want}")
    for e in boundary_edges:
        if e not in counts:
            raise InvalidDisc(f"boundary edge {e} not covered by a triangle")
    euler = len(links) - len(counts) + len(tris)
    if euler != 1:
        raise InvalidDisc(f"Euler characteristic {euler} != 1")
    graph: dict[int, dict[int, list[int]]] = {}
    for v in sorted(links):
        link = links[v]
        nbrs: dict[int, list[int]] = {}
        for a, b in link:
            nbrs.setdefault(a, []).append(b)
            nbrs.setdefault(b, []).append(a)
        x, stop = cycle_nbrs.get(v, (link[0][0],) * 2)  # a path's ends, or a cycle's start
        prev, moves = None, 0
        while True:
            n = nbrs[x]
            prev, x = x, n[1] if n[0] == prev else n[0]
            moves += 1
            if x == stop:
                break
        if moves != len(link):
            raise InvalidDisc(f"link of vertex {v} is disconnected (pinch point)")
        graph[v] = nbrs
    reached = {bnd[0]}
    stack = [bnd[0]]
    while stack:
        for x in graph[stack.pop()]:
            if x not in reached:
                reached.add(x)
                stack.append(x)
    if len(reached) != len(links):
        raise InvalidDisc(f"{len(links) - len(reached)} vertices lie off the boundary's "
                          "component (a disjoint closed surface)")


class CurvatureProfile(namedtuple("CurvatureProfile", "interior boundary")):
    """Curvature per vertex: ``interior`` and ``boundary`` map each vertex
    of that kind to its curvature."""

    __slots__ = ()

    @property
    def total(self) -> int:
        return sum(self.interior.values()) + sum(self.boundary.values())


def curvature_profile(d: TriDisc) -> CurvatureProfile:
    """Exact curvature profile; the Gauss-Bonnet total is asserted = 6."""
    angles = dict.fromkeys(d.vertices, 0)  # every vertex's, in one sweep
    for t in d.triangles:
        for v in t:
            angles[v] += 1
    bset = set(d.boundary)
    interior = {v: 6 - a for v, a in angles.items() if v not in bset}
    boundary = {v: 3 - angles[v] for v in d.boundary}
    profile = CurvatureProfile(interior, boundary)
    if profile.total != 6:
        raise InvalidDisc(f"Gauss-Bonnet failure: total curvature {profile.total}")
    return profile


# --- reference discs ---------------------------------------------------------

def wheel_disc(n: int) -> TriDisc:
    """The n-gon coned to a single interior hub."""
    return TriDisc(tuple(range(n)), tuple((i, (i + 1) % n, n) for i in range(n)))


def p8_disc() -> TriDisc:
    return wheel_disc(8)


def p10_disc() -> TriDisc:
    """The octagon filled by two interior hubs of angle 6 joined by an edge."""
    tris = [(i, i + 1, 8) for i in range(4)] + \
           [(i, (i + 1) % 8, 9) for i in range(4, 8)] + \
           [(0, 8, 9), (4, 8, 9)]
    return TriDisc(tuple(range(8)), tuple(tris))


# --- isomorphism -------------------------------------------------------------

@cache
def _dihedral_orders(n: int) -> tuple[tuple[int, ...], ...]:
    """The 2n cyclic orders of a marked n-cycle: every rotation of 0..n-1,
    each followed by its reversal."""
    orders = []
    for off in range(n):
        rot = tuple((off + i) % n for i in range(n))
        orders.append(rot)
        orders.append(rot[::-1])
    return tuple(orders)


@cache
def _order_tables(n: int) -> tuple[tuple[tuple[int, int], tuple[int, ...]], ...]:
    """For each dihedral order o of an n-cycle, its first edge (o[0], o[1]),
    sorted, and its position table ``pos``: pos[o[i]] = i."""
    tables = []
    for order in _dihedral_orders(n):
        pos = [0] * n
        for i, j in enumerate(order):
            pos[j] = i
        tables.append((_edge(order[0], order[1]), tuple(pos)))
    return tuple(tables)


def _least_relabeling(tris, n: int, nverts: int) -> tuple:
    """The least sorted triangle list over the relabelings that send
    boundary vertex o[i] to i, for a dihedral order o of the boundary cycle
    0..n-1, and the interior n..nverts-1 onto itself in any order; ``tris``
    are on the labels 0..nverts-1, each triple sorted.

    Under an order o, labels 0 and 1 lie on the boundary edge (o[0], o[1]),
    which is in exactly one triangle, so every list o gives starts with
    (0, 1, h): h the apex's position under o, or at least n for an interior
    apex.  So only the orders of least head (apex position, else n) can
    reach the least list; each is relabeled under every interior order (k!
    for k interior vertices), through one label list: the order's position
    table followed by that interior order.
    """
    apex = {}
    for a, b, c in tris:
        apex[a, b], apex[b, c], apex[a, c] = c, a, b
    heads = {}
    for edge, pos in _order_tables(n):
        w = apex[edge]
        heads.setdefault(pos[w] if w < n else n, []).append(pos)
    best = None
    for pos in heads[min(heads)]:
        for perm in permutations(range(n, nverts)):
            label = pos + perm
            rel = []
            for a, b, c in tris:
                x, y, z = label[a], label[b], label[c]
                if x > y:
                    x, y = y, x
                if y > z:
                    y, z = z, y
                    if x > y:
                        x, y = y, x
                rel.append((x, y, z))
            rel.sort()
            if best is None or rel < best:
                best = rel
    return tuple(best)


def canonical_form(d: TriDisc) -> tuple:
    """Minimum relabeled triangle list over boundary rotations/reflections."""
    interior = d.interior_vertices
    if len(interior) > MAX_INTERIOR:
        raise CapExceeded(f"more than {MAX_INTERIOR} interior vertices")
    # relabel the boundary cycle to 0..n-1 and the interior to n.. once
    index = {v: i for i, v in enumerate((*d.boundary, *interior))}
    tris = [_tri(index[a], index[b], index[c]) for a, b, c in d.triangles]
    return _least_relabeling(tris, len(d.boundary), len(index))


def is_isomorphic(d1: TriDisc, d2: TriDisc) -> bool:
    """Isomorphism of marked discs (boundary rotations/reflections only)."""
    if len(d1.boundary) != len(d2.boundary) or len(d1.triangles) != len(d2.triangles):
        return False
    return d1.canonical == d2.canonical


# --- enumeration -------------------------------------------------------------

def enumerate_discs(boundary_len: int, max_triangles: int,
                    locally_6_large: bool = False,
                    min_boundary_angle: int = 0,
                    forbid_boundary_chords: bool = False) -> list[TriDisc]:
    """All discs with the given boundary length and at most ``max_triangles``
    triangles meeting the constraints, one representative per isomorphism
    class, in a deterministic order.

    ``locally_6_large``: every interior vertex has at least 6 triangles.
    ``min_boundary_angle k``: every boundary vertex has at least k.
    ``forbid_boundary_chords``: no edge joins non-consecutive boundary
    vertices.
    """
    if boundary_len < 3:
        raise ValueError("boundary_len must be at least 3")
    if max_triangles < 0:
        raise ValueError(f"max_triangles must be non-negative, got {max_triangles}")
    if min_boundary_angle < 0:
        raise ValueError(
            f"min_boundary_angle must be non-negative, got {min_boundary_angle}")
    if boundary_len > MAX_BOUNDARY or max_triangles > MAX_TRIANGLES:
        raise CapExceeded(
            f"caps are boundary <= {MAX_BOUNDARY}, triangles <= {MAX_TRIANGLES}")
    B = boundary_len
    classes: dict[tuple, TriDisc] = {}  # canonical form -> first leaf
    # the angle each vertex must end with, by label (interior from B on)
    need = [min_boundary_angle] * B + [6 if locally_6_large else 0] * MAX_INTERIOR
    rivals = _dihedral_orders(B)[1:]  # orders[0] is the identity

    # The fill, mutated by each move and restored after it.  Every edge
    # between consecutive vertices of an open region lies in exactly one
    # triangle, or in none on the boundary cycle, with the outside beyond it.
    # Each move keeps this (a new apex, k = 2, k = m - 1 and an inner split
    # alike), so a frontier edge always has one free side and any other
    # drawn edge none: the set of drawn edges is all the search needs.
    edges = {_edge(i, (i + 1) % B) for i in range(B)}
    tris: list[tuple[int, int, int]] = []
    angle = [0] * B  # by vertex label; its length is the vertex count
    regions = [list(range(B))]

    def slack() -> int:
        """max_triangles minus the least triangle count of any completion:
        B - 2 at the start, kept by every split, and two more per new vertex."""
        return max_triangles - (B - 2) - 2 * (len(angle) - B)

    def pruned() -> bool:
        """True when no leaf below the current state is emitted: some vertex
        cannot reach the angle it needs, or the boundary-angle sequence is
        certainly not the least of its dihedral images."""
        spare = slack() // 2  # most new vertices any completion can add
        # a new vertex in a region of m corners ends with at most m + spare
        # - 1 triangles, so under local 6-largeness a region of fewer than
        # `room` corners takes none
        room = 7 - spare if locally_6_large else 0
        # hi[v] = angle[v] + the |r| - 2 of each open region r on v, plus
        # spare if one of them can take a new vertex; low[v] = angle[v] +
        # the number of them
        hi, low = angle[:], angle[:]
        lifted = set()
        for r in regions:
            m = len(r)
            if m >= room:
                lifted.update(r)
            for v in r:
                hi[v] += m - 2
                low[v] += 1
        for v in lifted:
            hi[v] += spare
        if any(map(lt, hi, need)):
            return True
        for order in rivals:
            for i, j in enumerate(order):
                if i == j:
                    continue
                if low[i] > hi[j]:
                    return True  # this order's sequence is certainly smaller
                if low[i] < hi[j]:
                    break
        return False

    def emit():
        form = _least_relabeling(tris, B, len(angle))
        if form not in classes:
            classes[form] = disc = TriDisc(tuple(range(B)), tuple(tris))
            vars(disc)["canonical"] = form  # the cached property, already known

    def step():
        if not regions:
            emit()
            return
        region = regions[-1]
        top = len(regions) - 1
        a, b = region[0], region[1]
        m = len(region)
        # apex choices: splitting vertices of the active region, then a new
        # one, which adds two triangles to every completion.  A new vertex
        # needs slack() >= 2, so under the caps (at most 14 triangles, B >= 3)
        # at most (14 - 3) // 2 + 1 = 6 interior vertices arise, within the
        # MAX_INTERIOR = 7 that `need` is sized for.
        new_apex = [None] if slack() >= 2 else []
        for k in [*range(2, m), *new_apex]:
            new_vertex = k is None
            w = len(angle) if new_vertex else region[k]
            tri = _tri(a, b, w)
            e_bw, e_wa = _edge(b, w), _edge(w, a)
            # reuse only the region-consecutive edges.  This also rules out
            # a repeated triangle: it needs b-w and w-a drawn, so k = 2 =
            # m - 1, a 3-region each of whose edges lies in that triangle;
            # the two would close a sphere, which a fill holding the
            # boundary cycle never does.
            if not new_vertex and ((e_bw in edges) != (k == 2)
                                   or (e_wa in edges) != (k == m - 1)):
                continue
            created = [e for e in (e_bw, e_wa) if e not in edges]
            # the boundary cycle is drawn, so a new edge on two boundary
            # vertices is a chord
            if forbid_boundary_chords and any(y < B for _, y in created):
                continue
            if new_vertex:
                splits = [[a, w] + region[1:]]
                angle.append(0)
            else:
                # a side of two vertices is the new edge itself
                splits = [r for r in (region[k:] + [a], region[1:k + 1]) if len(r) > 2]
            tris.append(tri)
            for v in tri:
                angle[v] += 1
            edges.update(created)
            regions[top:] = splits
            if not pruned():
                step()
            # undo the move
            regions[top:] = [region]
            edges.difference_update(created)
            for v in tri:
                angle[v] -= 1
            tris.pop()
            if new_vertex:
                angle.pop()

    if slack() >= 0:
        step()
    # step reaches itself through its closure cell; clearing the cell frees
    # the closures and the fill by reference counting, leaving no cycle
    del step
    return sorted(classes.values(), key=lambda d: (len(d.triangles), d.canonical))


def discs_suite(boundary: int, max_triangles: int, locally_6_large: bool,
                min_angle: int, no_chords: bool) -> dict:
    """Enumerate and audit.  When the configuration matches one of the
    classified settings, flags any disc outside the classified family, and
    any disc of the family that meets the triangle cap and minimum boundary
    angle but is missing from the enumeration."""
    discs = enumerate_discs(boundary, max_triangles,
                            locally_6_large=locally_6_large,
                            min_boundary_angle=min_angle,
                            forbid_boundary_chords=no_chords)
    steps = []
    for d in discs:
        profile = curvature_profile(d)  # asserts the Gauss-Bonnet identity
        # d.counts(), read off the profile's vertices (each disc's are
        # gathered once)
        nv, nf = len(profile.interior) + len(profile.boundary), len(d.triangles)
        counts = (nv, nv + nf - 1, nf, len(d.boundary))
        steps.append({
            "triangles": nf,
            "counts": list(counts),
            "interior_curvature_total": sum(profile.interior.values()),
            "boundary_curvature_total": sum(profile.boundary.values()),
            "text": _text(counts, d.canonical),
        })
    status = "verified"
    red_flags = []
    expected = None
    if locally_6_large and no_chords and boundary == 6:
        expected = [wheel_disc(6)]
    elif locally_6_large and no_chords and boundary == 8 and min_angle >= 2:
        expected = [p8_disc(), p10_disc()]
    if expected is not None:
        allowed = {d.canonical for d in expected}
        found = {d.canonical for d in discs}
        red_flags = [d.to_text() for d in discs if d.canonical not in allowed]
        # a classified disc that meets this run's constraints must turn up
        red_flags += [d.to_text() for d in expected
                      if d.canonical not in found and len(d.triangles) <= max_triangles
                      and all(d.angle(v) >= min_angle for v in d.boundary)]
        if red_flags:
            status = "failed"
    return {
        "suite": "discs",
        "status": status,
        "steps": steps,
        "count": len(discs),
        "red_flags": red_flags,
    }
