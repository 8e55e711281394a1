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
exchange roles).  The search mutates one fill state and undoes each move
after recursing into it.  Besides the triangle cap, two exact integer
bounds prune it after every move:

* Angle bound.  Every completion of the open regions needs at least
  ``len(tris) + sum(|r| - 2)`` triangles, and each new vertex adds two to
  that, so at most ``slack // 2`` new vertices remain, where ``slack`` is
  the cap minus that least count.  In a valid disc the triangles at a
  corner of an m-region filled with j new vertices form a fan whose
  vertices are distinct, so they number at most m - 2 + j.  A vertex on
  open regions therefore ends with at most ``angle + sum_{r on v}(|r| - 2)
  + slack // 2`` triangles, and a closed vertex keeps its angle exactly.
  A state is dropped when that bound is below what the vertex must reach
  (6 inside under local 6-largeness, the minimum boundary angle on the
  boundary).
* Orderly boundary.  Every class has a labeling whose boundary-angle
  sequence ``angle[0..B-1]`` is the least of its 2B dihedral images, and
  that labeling is generated, so only such leaves are kept.  At an inner
  node each boundary angle lies in [angle, bound]; for each non-identity
  order the positions are scanned while they are certainly equal (the same
  vertex, or two exact equal angles).  If at the first other position the
  identity's least angle exceeds the bound of the vertex that order puts
  there, every completion has a smaller image and is not kept, so the
  state is dropped.

A class still reaches several leaves when its least sequence is symmetric,
so each kept leaf is reduced to a cheap complete invariant (``_leaf_key``),
and only a leaf whose key is new becomes a ``TriDisc``: one validation and
one canonical form per class (a skipped leaf is a relabeling of a validated
one, and validity does not depend on labels).  The first leaf of a class is
its representative, and the output is sorted by triangle count and
canonical form.

The two octagon fillings with one resp. two interior hubs (the degree-8
wheel and its split companion) are provided as reference discs; under the
local-largeness constraints the octagon enumeration must produce exactly
those two, and a hexagon must produce only the wheel.  The suite flags a
disc outside the family, and a family disc that fits the run's triangle
cap and minimum boundary angle but was not enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class TriDisc:
    """A triangulated disc with marked boundary cycle.

    ``boundary`` lists the boundary vertices in cyclic order; ``triangles``
    is the sorted tuple of sorted vertex triples.  Construction validates
    the simplicial disc axioms (edge multiplicities, vertex links, Euler
    characteristic, simple boundary).
    """

    boundary: tuple[int, ...]
    triangles: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "triangles", tuple(sorted(_tri(*t) for t in self.triangles)))
        _validate(self)

    @property
    def vertices(self) -> tuple[int, ...]:
        vs = set(self.boundary)
        for t in self.triangles:
            vs.update(t)
        return tuple(sorted(vs))

    @property
    def interior_vertices(self) -> tuple[int, ...]:
        b = set(self.boundary)
        return tuple(v for v in self.vertices if v not in b)

    def edges(self) -> dict[tuple[int, int], int]:
        counts: dict[tuple[int, int], int] = {}
        for a, b, c in self.triangles:
            for e in (_edge(a, b), _edge(b, c), _edge(a, c)):
                counts[e] = counts.get(e, 0) + 1
        return counts

    def angle(self, v: int) -> int:
        return sum(1 for t in self.triangles if v in t)

    def counts(self) -> tuple[int, int, int, int]:
        """(V, E, F, B)"""
        return (len(self.vertices), len(self.edges()), len(self.triangles), len(self.boundary))

    @cached_property
    def canonical(self) -> tuple:
        """``canonical_form(self)``, computed once per disc."""
        return canonical_form(self)

    def to_text(self) -> str:
        """Canonical serialization: counts line, boundary line, triangles."""
        tris = self.canonical
        bnd = len(self.boundary)
        edges = len(self.edges())
        lines = [f"{len(self.vertices)} {edges} {len(self.triangles)} {bnd}",
                 " ".join(str(i) for i in range(bnd))]
        lines.extend(" ".join(str(v) for v in t) for t in tris)
        return "\n".join(lines) + "\n"


def _validate(d: TriDisc):
    bnd = d.boundary
    if len(bnd) < 3:
        raise InvalidDisc("boundary needs at least 3 vertices")
    if len(set(bnd)) != len(bnd):
        raise InvalidDisc("boundary cycle is not simple")
    if len(set(d.triangles)) != len(d.triangles):
        raise InvalidDisc("repeated triangle")
    for t in d.triangles:
        if len(set(t)) != 3:
            raise InvalidDisc(f"degenerate triangle {t}")
    bset = set(bnd)
    boundary_edges = {_edge(bnd[i], bnd[(i + 1) % len(bnd)]) for i in range(len(bnd))}
    counts = d.edges()
    for e, c in counts.items():
        want = 1 if e in boundary_edges else 2
        if c != want:
            raise InvalidDisc(f"edge {e} lies in {c} triangles, expected {want}")
    for e in boundary_edges:
        if e not in counts:
            raise InvalidDisc(f"boundary edge {e} not covered by a triangle")
    vertices = d.vertices
    euler = len(vertices) - len(counts) + len(d.triangles)
    if euler != 1:
        raise InvalidDisc(f"Euler characteristic {euler} != 1")
    stars: dict[int, list[tuple[int, int, int]]] = {}
    for t in d.triangles:
        for v in t:
            stars.setdefault(v, []).append(t)
    # vertex links: one fan per boundary vertex, one cycle per interior vertex
    for v in vertices:
        star = stars.get(v)
        if not star:
            raise InvalidDisc(f"isolated vertex {v}")
        opposite = [tuple(x for x in t if x != v) for t in star]
        deg: dict[int, int] = {}
        for a, b in opposite:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        odd = [x for x, k in deg.items() if k == 1]
        if v in bset:
            if len(odd) != 2 or any(k > 2 for k in deg.values()):
                raise InvalidDisc(f"boundary vertex {v} has a broken fan")
        else:
            if odd or any(k != 2 for k in deg.values()):
                raise InvalidDisc(f"interior vertex {v} has a non-cycle link")
        # connectivity of the link graph
        adj: dict[int, list[int]] = {}
        for a, b in opposite:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        start = next(iter(adj))
        seen = {start}
        stack = [start]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != len(adj):
            raise InvalidDisc(f"link of vertex {v} is disconnected (pinch point)")


@dataclass(frozen=True)
class CurvatureProfile:
    interior: dict[int, int]
    boundary: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.interior.values()) + sum(self.boundary.values())


def curvature_profile(d: TriDisc) -> CurvatureProfile:
    """Exact curvature profile; the Gauss-Bonnet total is asserted = 6."""
    bset = set(d.boundary)
    interior = {v: 6 - d.angle(v) for v in d.vertices if v not in bset}
    boundary = {v: 3 - d.angle(v) for v in d.boundary}
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


def _least_relabeling(tris, boundary, interior, orders) -> list:
    """The least sorted triangle list over the relabelings that send
    boundary[order[i]] to i, for an order in ``orders``, and the interior
    onto len(boundary).. in any order.

    The boundary stays a marked cycle (never mixed with the interior);
    interior labels are minimized by brute force, which is fine at the
    desk-scale interior counts this module enforces.
    """
    n = len(boundary)
    label = {}
    best = None
    for order in orders:
        for i, j in enumerate(order):
            label[boundary[j]] = i
        for perm in permutations(range(n, n + len(interior))):
            label.update(zip(interior, perm))
            rel = sorted(_tri(label[a], label[b], label[c]) for a, b, c in tris)
            if best is None or rel < best:
                best = rel
    return best


def canonical_form(d: TriDisc) -> tuple:
    """Minimum relabeled triangle list over boundary rotations/reflections."""
    interior = d.interior_vertices
    if len(interior) > MAX_INTERIOR:
        raise CapExceeded(f"more than {MAX_INTERIOR} interior vertices")
    orders = _dihedral_orders(len(d.boundary))
    return tuple(_least_relabeling(d.triangles, d.boundary, interior, orders))


def is_isomorphic(d1: TriDisc, d2: TriDisc) -> bool:
    """Isomorphism of marked discs (boundary rotations/reflections only)."""
    if len(d1.boundary) != len(d2.boundary) or len(d1.triangles) != len(d2.triangles):
        return False
    return d1.canonical == d2.canonical


def _leaf_key(boundary_len: int, nverts: int, tris, angle) -> bytes:
    """A complete isomorphism invariant of a filled disc on boundary
    0..boundary_len-1 and interior boundary_len..nverts-1.

    The least boundary-angle sequence over the dihedral orders, then the
    least relabeled triangle list over just the orders that reach it
    (``_least_relabeling``).  Angles and labels stay below 20 under the
    module caps, so for one boundary length the bytes of the sequence
    followed by the flattened triangles are unambiguous.  Equal keys mean
    one disc is a relabeling of the other.
    """
    orders = _dihedral_orders(boundary_len)
    seqs = [[angle[v] for v in order] for order in orders]
    least = min(seqs)
    best = _least_relabeling(tris, range(boundary_len), range(boundary_len, nverts),
                             [order for order, seq in zip(orders, seqs) if seq == least])
    return bytes(least) + bytes(x for t in best for x in t)


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
    seen: set[bytes] = set()
    results: list[TriDisc] = []
    # the angle each vertex must end with, by label (interior from B on)
    need = [min_boundary_angle] * B + [6 if locally_6_large else 0] * MAX_INTERIOR
    rivals = _dihedral_orders(B)[1:]  # orders[0] is the identity

    # the one fill state, mutated by each move and restored after it
    nverts = B
    edges = {_edge(i, (i + 1) % B): 1 for i in range(B)}
    tris: list[tuple[int, int, int]] = []
    tri_set: set[tuple[int, int, int]] = set()
    angle = [0] * B
    regions = [list(range(B))]
    # room[v] = angle[v] + sum of (|r| - 2) over the open regions r on v;
    # every region has |r| >= 3, so v is still open iff room[v] > angle[v]
    room = [B - 2] * B
    # max_triangles minus the least triangle count of any completion
    slack = max_triangles - (B - 2)

    def pruned() -> bool:
        """True when no leaf below the current state is emitted: some vertex
        cannot reach the angle it needs, or the boundary-angle sequence is
        certainly not the least of its dihedral images."""
        spare = slack // 2  # most new vertices any completion can add
        hi = [r + spare if r > x else r for r, x in zip(room, angle)]
        if any(map(lt, hi, need)):
            return True
        for order in rivals:
            for i, j in enumerate(order):
                if i == j:
                    continue
                if angle[i] > hi[j]:
                    return True  # this order's sequence is certainly smaller
                if not angle[i] == hi[i] == angle[j] == hi[j]:
                    break
        return False

    def emit():
        key = _leaf_key(B, nverts, tris, angle)
        if key not in seen:
            seen.add(key)
            results.append(TriDisc(tuple(range(B)), tuple(tris)))

    def step():
        nonlocal nverts, slack
        if not regions:
            emit()
            return
        region = regions[-1]
        a, b = region[0], region[1]
        e_ab = _edge(a, b)
        m = len(region)
        # apex choices: splitting vertices of the active region, then a new one
        for k in list(range(2, m)) + [None]:
            new_vertex = k is None
            if new_vertex and (slack < 2 or nverts - B == MAX_INTERIOR):
                continue  # a new vertex adds two triangles to every completion
            w = nverts if new_vertex else region[k]
            tri = _tri(a, b, w)
            if tri in tri_set:
                continue
            e_bw, e_wa = _edge(b, w), _edge(w, a)
            if not new_vertex:
                if (e_bw in edges) != (k == 2):
                    continue  # reuse only the region-consecutive edge
                if (e_wa in edges) != (k == m - 1):
                    continue
                if k == 2 and edges[e_bw] < 1:
                    continue
                if k == m - 1 and edges[e_wa] < 1:
                    continue
            if forbid_boundary_chords and not new_vertex:
                # only newly created edges can introduce a chord
                if any(x < B and y < B and (x - y) % B not in (1, B - 1)
                       and _edge(x, y) not in edges
                       for (x, y) in ((b, w), (w, a))):
                    continue
            # apply the move
            if new_vertex:
                nverts += 1
                slack -= 2
                angle.append(0)
                room.append(0)
            tris.append(tri)
            tri_set.add(tri)
            for v in tri:
                angle[v] += 1
                room[v] += 1
            edges[e_ab] -= 1
            created = []
            for e in (e_bw, e_wa):
                created.append(e not in edges)
                if created[-1]:
                    edges[e] = 1
                else:
                    edges[e] -= 1
            old = regions.pop()
            for v in old:
                room[v] -= m - 2
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
                if len(r) < 3:
                    raise AssertionError("degenerate region")
                regions.append(r)
                for v in r:
                    room[v] += len(r) - 2
            if not pruned():
                step()
            # undo the move, in reverse order
            for r in reversed(new_regions):
                regions.pop()
                for v in r:
                    room[v] -= len(r) - 2
            regions.append(old)
            for v in old:
                room[v] += m - 2
            for e, fresh in zip((e_wa, e_bw), reversed(created)):
                if fresh:
                    del edges[e]
                else:
                    edges[e] += 1
            edges[e_ab] += 1
            for v in tri:
                angle[v] -= 1
                room[v] -= 1
            tri_set.remove(tri)
            tris.pop()
            if new_vertex:
                nverts -= 1
                slack += 2
                angle.pop()
                room.pop()

    if slack >= 0:
        step()
    return sorted(results, key=lambda d: (len(d.triangles), d.canonical))


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
        steps.append({
            "triangles": len(d.triangles),
            "counts": list(d.counts()),
            "interior_curvature_total": sum(profile.interior.values()),
            "boundary_curvature_total": sum(profile.boundary.values()),
            "text": d.to_text(),
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
