"""Finite balls of the Coxeter-complex 1-skeleton and the Cayley graph.

Vertices of the Coxeter complex are cosets of the three maximal standard
parabolics, stored by their unique shortest representative.  Four vertex/
edge universes are wired and never mixed silently:

``"full-Y"``
    all three coset types; edges are nonempty coset intersection, plus the
    pentagon edges {w*FixD8, wt*FixD8}.
``"pentagon-subcomplex"``
    the D8-coset orbit with pentagon edges only: the tiling of the
    hyperbolic plane by right-angled pentagons, four around each vertex.
``"d10-orbit"``
    the dual picture: D10-cosets with edges {w*FixD10, wr*FixD10}, five
    squares around each vertex.
``"cayley"``
    group elements, edges = right multiplication by a generator.

Neighbors in the tiling modes come from walking the representative's
matrix through the rotation's generators, one add-only generator product
per letter (see :mod:`cox245.coxeter`).  Balls are built by BFS; vertex
order is BFS depth with canonical-word tie-break inside each level, which
makes slab dumps reproducible.  A ball keeps one ``Vertex`` per coset and
records neighbors as slab indices.
Distances inside a slab are certified: a value is marked exact only when no
shorter path could leave the ball, otherwise a lower bound is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque

from .coxeter import (
    D4,
    D8,
    D10,
    GENERATORS,
    GroupElement,
    PARABOLICS,
    ParabolicId,
    identity,
    min_coset_rep,
    parabolic_elements,
    _mat_mul,  # internal fast paths for coset enumeration
    _mat_mul_gen_right,
)

__all__ = [
    "MODES",
    "Vertex",
    "make_vertex",
    "cayley_vertex",
    "fix_vertex",
    "translate",
    "adjacent",
    "neighbors",
    "pentagon_cyclic_neighbors",
    "GraphSlab",
    "Distance",
    "build_ball",
    "graph_distance",
    "ResourceLimitExceeded",
    "VertexNotInSlab",
]

# the vertex types of each universe, in the order the witness precheck
# anchors them (None: a bare group element)
MODES = {"full-Y": (D8, D10, D4), "pentagon-subcomplex": (D8,),
         "cayley": (None,), "d10-orbit": (D10,)}


class ResourceLimitExceeded(RuntimeError):
    """Ball construction hit the vertex cap."""


class VertexNotInSlab(KeyError):
    pass


@dataclass(frozen=True)
class Vertex:
    """A coset of a maximal parabolic (or a bare group element in Cayley mode).

    ``rep`` is always the minimal coset representative, so equality of
    vertices is equality of fields.
    """

    parabolic: ParabolicId | None
    rep: GroupElement

    def word(self) -> str:
        return self.rep.canonical_word()

    def label(self) -> str:
        tag = self.parabolic.name if self.parabolic else "CAY"
        return f"{tag}:{self.word() or 'e'}"


def make_vertex(parabolic: ParabolicId, g: GroupElement) -> Vertex:
    return Vertex(parabolic, min_coset_rep(g, parabolic))


def cayley_vertex(g: GroupElement) -> Vertex:
    return Vertex(None, g)


def fix_vertex(parabolic: ParabolicId) -> Vertex:
    """The vertex fixed by the parabolic: its identity coset."""
    return Vertex(parabolic, identity())


def translate(w: GroupElement, v: Vertex) -> Vertex:
    """Left action of the group on vertices."""
    if v.parabolic is None:
        return Vertex(None, w * v.rep)
    return make_vertex(v.parabolic, w * v.rep)


# --- neighbor oracles ------------------------------------------------------

def _cyclic_neighbors(v: Vertex, parabolic: ParabolicId, rot: str, order: int,
                      edge: str) -> list[Vertex]:
    """Cosets of v * rot^k * edge for k = 0..order-1, in rotation order.

    The rotation is reversed at representatives of odd length, so that
    "clockwise" means the same thing at every vertex of the tiling (up to
    one global flip, which only exchanges the two lateral turn letters).
    """
    if v.parabolic != parabolic:
        raise ValueError(f"cyclic neighbors need a {parabolic.name}-vertex, got {v.label()}")
    if v.rep.length() % 2:
        rot = rot[::-1]
    out = []
    acc = v.rep.mat
    for k in range(order):
        out.append(make_vertex(parabolic, GroupElement(_mat_mul_gen_right(acc, edge))))
        if k + 1 < order:
            for x in rot:
                acc = _mat_mul_gen_right(acc, x)
    return out


def pentagon_cyclic_neighbors(v: Vertex) -> list[Vertex]:
    """The four pentagon neighbors of a D8-vertex: the orbit of the
    quarter-turn rs conjugated to the vertex, in rotation order."""
    return _cyclic_neighbors(v, D8, "rs", 4, "t")


def _d10_cyclic_neighbors(v: Vertex) -> list[Vertex]:
    return _cyclic_neighbors(v, D10, "st", 5, "r")


def _dedup(seq):
    seen = set()
    out = []
    for v in seq:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def _intersection_neighbors(v: Vertex) -> list[Vertex]:
    out = []
    for qname in ("D8", "D10", "D4"):
        q = PARABOLICS[qname]
        if q == v.parabolic:
            continue
        out.extend(make_vertex(q, GroupElement(_mat_mul(v.rep.mat, p.mat)))
                   for p in parabolic_elements(v.parabolic))
    return _dedup(out)


def neighbors(v: Vertex, mode: str) -> list[Vertex]:
    """Deterministically ordered neighbor list in the given universe."""
    if mode == "cayley":
        return [Vertex(None, GroupElement(_mat_mul_gen_right(v.rep.mat, x))) for x in GENERATORS]
    if mode == "pentagon-subcomplex":
        return pentagon_cyclic_neighbors(v)
    if mode == "d10-orbit":
        return _d10_cyclic_neighbors(v)
    if mode == "full-Y":
        out = _intersection_neighbors(v)
        if v.parabolic == D8:
            out.extend(pentagon_cyclic_neighbors(v))
        return _dedup(out)
    raise ValueError(f"unknown mode {mode!r}")


_MEMBER_CACHE: dict[str, frozenset] = {}


def _member_mats(p: ParabolicId) -> frozenset:
    cached = _MEMBER_CACHE.get(p.name)
    if cached is None:
        cached = frozenset(g.mat for g in parabolic_elements(p))
        _MEMBER_CACHE[p.name] = cached
    return cached


def adjacent(u: Vertex, v: Vertex) -> bool:
    """Coxeter-complex adjacency: the two cosets intersect.

    Distinct cosets of the same parabolic never intersect, so same-type
    vertices are never adjacent here; the pentagon edges are a different
    edge notion and belong to the subcomplex modes.
    """
    if u.parabolic is None or v.parabolic is None:
        raise ValueError("coset adjacency needs parabolic vertices")
    if u == v or u.parabolic == v.parabolic:
        return False
    diff = u.rep.inverse() * v.rep
    q_mats = _member_mats(v.parabolic)
    return any(_mat_mul(p.mat, diff.mat) in q_mats
               for p in parabolic_elements(u.parabolic))


# --- slabs -----------------------------------------------------------------

@dataclass(frozen=True)
class Distance:
    """A slab distance; ``exact`` is False when truncation may hide a
    shorter path, in which case ``lower_bound`` is still valid."""

    value: int
    exact: bool
    lower_bound: int


class GraphSlab:
    """Immutable BFS ball.  Vertices are indexed in (depth, canonical word)
    order; adjacency is symmetric and irreflexive."""

    def __init__(self, mode, center, radius, vertices, depth, adj):
        self.mode = mode
        self.center = center
        self.radius = radius
        self.vertices = vertices
        self.depth = depth
        self.adj = adj
        self.index = {v: i for i, v in enumerate(vertices)}

    def __len__(self):
        return len(self.vertices)

    def __contains__(self, v):
        return v in self.index

    def index_of(self, v: Vertex) -> int:
        try:
            return self.index[v]
        except KeyError:
            raise VertexNotInSlab(v.label()) from None

    def edges(self):
        for i, nbrs in enumerate(self.adj):
            for j in nbrs:
                if i < j:
                    yield (i, j)

    def distance(self, u: Vertex, v: Vertex) -> Distance:
        """BFS distance inside the slab, with a truncation certificate."""
        iu = self.index_of(u)
        iv = self.index_of(v)
        if iu == iv:
            return Distance(0, True, 0)
        dist = {iu: 0}
        queue = deque([iu])
        found = -1
        while queue:
            i = queue.popleft()
            if i == iv:
                found = dist[i]
                break
            for j in self.adj[i]:
                if j not in dist:
                    dist[j] = dist[i] + 1
                    queue.append(j)
        # a path that leaves the ball runs out to depth radius + 1 and back,
        # so it is at least ``escape`` long
        escape = (self.radius + 1 - self.depth[iu]) + (self.radius + 1 - self.depth[iv])
        if found >= 0:
            return Distance(found, found <= escape, min(found, escape))
        return Distance(escape, False, escape)

    def dump(self) -> str:
        """Debug text form: vertex lines "idx parabolic rep-word", then edge
        lines "i j"; ordering is the slab's deterministic vertex order."""
        lines = []
        for i, v in enumerate(self.vertices):
            tag = v.parabolic.name if v.parabolic else "CAY"
            lines.append(f"{i} {tag} {v.word() or 'e'}")
        for i, j in self.edges():
            lines.append(f"{i} {j}")
        return "\n".join(lines) + "\n"


def build_ball(center: Vertex, radius: int, mode: str,
               max_vertices: int = 500_000) -> GraphSlab:
    """BFS-complete ball of the given radius around ``center``."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if center.parabolic not in MODES[mode]:
        raise ValueError(f"center {center.label()} does not fit mode {mode!r}")
    vertices = [center]
    depth = [0]
    index = {center: 0}
    # per vertex, its neighbors as slab indices; while a level is expanded a
    # new neighbor is held as the one Vertex object kept for its coset
    nbr_lists: list[list | None] = [None]
    level = [0]
    for d in range(radius):
        discovered: dict[Vertex, Vertex] = {}
        for i in level:
            row = []
            for nb in neighbors(vertices[i], mode):
                j = index.get(nb)
                row.append(discovered.setdefault(nb, nb) if j is None else j)
            nbr_lists[i] = row
        if not discovered:
            level = []
            break
        fresh = sorted(discovered, key=lambda v: (v.word(), v.parabolic.name if v.parabolic else ""))
        if len(vertices) + len(fresh) > max_vertices:
            raise ResourceLimitExceeded(
                f"ball exceeds {max_vertices} vertices at depth {d + 1}")
        level = []
        for v in fresh:
            index[v] = len(vertices)
            level.append(len(vertices))
            vertices.append(v)
            depth.append(d + 1)
            nbr_lists.append(None)
    for i in level:  # frontier still needs its in-slab edges
        nbr_lists[i] = [index.get(nb) for nb in neighbors(vertices[i], mode)]
    adj: list[tuple[int, ...]] = []
    for i, row in enumerate(nbr_lists):
        hits = {index[j] if isinstance(j, Vertex) else j for j in row}
        hits.discard(None)
        hits.discard(i)
        adj.append(tuple(sorted(hits)))
    return GraphSlab(mode, center, radius, tuple(vertices), tuple(depth), tuple(adj))


def graph_distance(u: Vertex, v: Vertex, mode: str, max_depth: int = 64) -> int | None:
    """Exact distance in the (infinite) graph by bidirectional BFS.

    Returns None when the distance exceeds ``max_depth``.  Unlike slab
    distances this never suffers truncation: the frontier is generated from
    the group action on demand.
    """
    if u == v:
        return 0
    side_a = {u: 0}
    side_b = {v: 0}
    front_a, front_b = [u], [v]
    ra = rb = 0
    while ra + rb < max_depth and front_a and front_b:
        if len(front_a) <= len(front_b):
            front, dist, other, r = front_a, side_a, side_b, ra
            ra += 1
        else:
            front, dist, other, r = front_b, side_b, side_a, rb
            rb += 1
        nxt = []
        for x in front:
            for nb in neighbors(x, mode):
                if nb in other:
                    return r + 1 + other[nb]
                if nb not in dist:
                    dist[nb] = r + 1
                    nxt.append(nb)
        if front is front_a:
            front_a = nxt
        else:
            front_b = nxt
    return None
