"""Combinatorial triangulated discs: curvature audits and classification.

A disc here is a simplicial triangulation of a 2-disc with a marked
boundary cycle.  Curvature is the combinatorial one: an interior vertex
with k incident triangles carries 6 - k, a boundary vertex 3 - k, and the
totals over a disc always sum to 6 (discrete Gauss-Bonnet with Euler
characteristic 1); the profile computation asserts the identity instead of
assuming it, so a malformed disc fails loudly.

Enumeration grows discs inward from the boundary, always filling a
deterministic frontier edge, so every labeled triangulation is generated
exactly once; results are deduplicated up to rotation/reflection of the
marked boundary (boundary and interior never exchange roles).

The two octagon fillings with one resp. two interior hubs (the degree-8
wheel and its split companion) are provided as reference discs; under the
local-largeness constraints the octagon enumeration must produce exactly
those two, and a hexagon must produce only the wheel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

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

    def to_text(self) -> str:
        """Canonical serialization: counts line, boundary line, triangles."""
        tris = canonical_form(self)
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
    v_count = len(d.vertices)
    euler = v_count - len(counts) + len(d.triangles)
    if euler != 1:
        raise InvalidDisc(f"Euler characteristic {euler} != 1")
    # vertex links: one fan per boundary vertex, one cycle per interior vertex
    for v in d.vertices:
        star = [t for t in d.triangles if v in t]
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

def canonical_form(d: TriDisc) -> tuple:
    """Minimum relabeled triangle list over boundary rotations/reflections.

    The boundary stays a marked cycle (never mixed with the interior);
    interior labels are minimized by brute force, which is fine at the
    desk-scale interior counts this module enforces.
    """
    bnd = d.boundary
    n = len(bnd)
    interior = d.interior_vertices
    if len(interior) > MAX_INTERIOR:
        raise CapExceeded(f"more than {MAX_INTERIOR} interior vertices")
    best = None
    orders = []
    seq = list(bnd)
    for off in range(n):
        rot = seq[off:] + seq[:off]
        orders.append(rot)
        orders.append(rot[::-1])
    for order in orders:
        bmap = {v: i for i, v in enumerate(order)}
        for perm in permutations(range(n, n + len(interior))):
            m = dict(bmap)
            m.update(zip(interior, perm))
            tris = tuple(sorted(_tri(m[a], m[b], m[c]) for a, b, c in d.triangles))
            if best is None or tris < best:
                best = tris
    return best


def is_isomorphic(d1: TriDisc, d2: TriDisc) -> bool:
    """Isomorphism of marked discs (boundary rotations/reflections only)."""
    if len(d1.boundary) != len(d2.boundary) or len(d1.triangles) != len(d2.triangles):
        return False
    return canonical_form(d1) == canonical_form(d2)


# --- enumeration -------------------------------------------------------------

class _FillState:
    __slots__ = ("nverts", "edges", "tris", "tri_set", "angle", "regions", "on_regions")

    def __init__(self, nverts, edges, tris, tri_set, angle, regions, on_regions):
        self.nverts = nverts
        self.edges = edges
        self.tris = tris
        self.tri_set = tri_set
        self.angle = angle
        self.regions = regions
        self.on_regions = on_regions

    def clone(self) -> "_FillState":
        return _FillState(self.nverts, dict(self.edges), list(self.tris),
                          set(self.tri_set), list(self.angle),
                          [list(r) for r in self.regions], list(self.on_regions))


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
    if boundary_len > MAX_BOUNDARY or max_triangles > MAX_TRIANGLES:
        raise CapExceeded(
            f"caps are boundary <= {MAX_BOUNDARY}, triangles <= {MAX_TRIANGLES}")
    B = boundary_len
    results: dict[tuple, TriDisc] = {}

    start = _FillState(
        nverts=B,
        edges={_edge(i, (i + 1) % B): 1 for i in range(B)},
        tris=[],
        tri_set=set(),
        angle=[0] * B,
        regions=[list(range(B))],
        on_regions=[1] * B,
    )

    def finalize_vertex(st, v) -> bool:
        if v < B:
            return st.angle[v] >= min_boundary_angle
        return (not locally_6_large) or st.angle[v] >= 6

    def lower_bound(st) -> int:
        return sum(len(r) - 2 for r in st.regions)

    def emit(st):
        disc = TriDisc(tuple(range(B)), tuple(st.tris))
        key = canonical_form(disc)
        if key not in results:
            results[key] = disc

    def step(st: _FillState):
        if not st.regions:
            emit(st)
            return
        region = st.regions[-1]
        a, b = region[0], region[1]
        m = len(region)
        # apex choices: splitting vertices of the active region, then a new one
        for k in list(range(2, m)) + [None]:
            new_vertex = k is None
            w = st.nverts if new_vertex else region[k]
            tri = _tri(a, b, w)
            if tri in st.tri_set:
                continue
            e_bw, e_wa = _edge(b, w), _edge(w, a)
            if not new_vertex:
                if (e_bw in st.edges) != (k == 2):
                    continue  # reuse only the region-consecutive edge
                if (e_wa in st.edges) != (k == m - 1):
                    continue
                if k == 2 and st.edges[e_bw] < 1:
                    continue
                if k == m - 1 and st.edges[e_wa] < 1:
                    continue
            if forbid_boundary_chords and not new_vertex:
                # only newly created edges can introduce a chord
                if any(x < B and y < B and (x - y) % B not in (1, B - 1)
                       and _edge(x, y) not in st.edges
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
            nxt.edges[_edge(a, b)] -= 1
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
                if len(r) < 3:
                    raise AssertionError("degenerate region")
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
    return sorted(results.values(), key=lambda d: (len(d.triangles), canonical_form(d)))


def discs_suite(boundary: int, max_triangles: int, locally_6_large: bool,
                min_angle: int, no_chords: bool) -> dict:
    """Enumerate and audit; flags any disc outside the classified families
    when the configuration matches one of the classified settings."""
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
        allowed = {canonical_form(d) for d in expected}
        for d in discs:
            if canonical_form(d) not in allowed:
                red_flags.append(d.to_text())
        if red_flags:
            status = "failed"
    return {
        "suite": "discs",
        "status": status,
        "steps": steps,
        "count": len(discs),
        "red_flags": red_flags,
    }
