"""Finite balls of the Coxeter-complex 1-skeleton and the Cayley graph.

Every vertex is a coset g*P of a standard parabolic P, stored by its unique
shortest representative: P is one of the three maximal parabolics in the
Coxeter complex, and the trivial parabolic ``CAY`` in the Cayley graph,
whose cosets are the group's elements.  Four vertex/edge universes are
wired and never mixed silently:

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
    CAY-cosets, i.e. group elements; edges = right multiplication by a
    generator.

Neighbors in every mode are word walks: the representative times a
generator (Cayley), the rotation's and the edge's letters (pentagon and
d10 tilings) or the words of its parabolic's elements (coset
intersection), each through ``GroupElement.times`` (see
:mod:`cox245.coxeter`).  The walk yields unstripped elements,
deduplicated by their cosets' ``coxeter.coset_key`` (``vertex_key``;
``key_vertex`` goes back).
``neighbors`` peels each distinct key once to its minimal representative
(``coxeter.coset_rep``) and ``adjacent`` compares keys of the intersection
walk.  A ball is a keyed BFS: each level is the dict of new keys walked
from the level before, and a coset is peeled only the first time its key
is met, so each vertex but the center is peeled exactly once and the
frontier is never walked.  The ball's dict is the slab's only index.  It
holds the key tuples the walk built, which the peel memoises the
representatives under, so the index costs no new tuples.
Vertex order is BFS depth with canonical-word tie-break inside each level,
which makes slab dumps reproducible; a peeled representative carries its
word, so the sort peels nothing more.  A ball keeps one ``Vertex`` per
coset, its depth and the key index; its adjacency is derived on first use
from the same walk.  ``graph_distance`` runs a bidirectional BFS on keys in
the infinite graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .coxeter import (
    CAY,
    D4,
    D8,
    D10,
    GENERATORS,
    GroupElement,
    PARABOLICS,
    PARABOLIC_BY_NAME,
    ParabolicId,
    coset_key,
    coset_rep,
    identity,
    min_coset_rep,
    parabolic_elements,
)

__all__ = [
    "MODES",
    "Vertex",
    "make_vertex",
    "cayley_vertex",
    "fix_vertex",
    "translate",
    "vertex_key",
    "key_vertex",
    "adjacent",
    "neighbors",
    "pentagon_cyclic_neighbors",
    "GraphSlab",
    "build_ball",
    "graph_distance",
    "ResourceLimitExceeded",
    "VertexNotInSlab",
]

# the vertex types of each universe, in the order the witness precheck
# anchors them
MODES = {"full-Y": (D8, D10, D4), "pentagon-subcomplex": (D8,),
         "cayley": (CAY,), "d10-orbit": (D10,)}


class ResourceLimitExceeded(RuntimeError):
    """Ball construction hit the vertex cap."""


class VertexNotInSlab(KeyError):
    pass


@dataclass(frozen=True, slots=True)
class Vertex:
    """A coset of a standard parabolic (of CAY: a group element).

    ``rep`` is always the minimal coset representative, so equality of
    vertices is equality of fields.
    """

    parabolic: ParabolicId
    rep: GroupElement

    def word(self) -> str:
        return self.rep.canonical_word()

    def label(self) -> str:
        return f"{self.parabolic.name}:{self.word() or 'e'}"


def make_vertex(parabolic: ParabolicId, g: GroupElement) -> Vertex:
    return Vertex(parabolic, min_coset_rep(g, parabolic))


def cayley_vertex(g: GroupElement) -> Vertex:
    return make_vertex(CAY, g)


def fix_vertex(parabolic: ParabolicId) -> Vertex:
    """The vertex fixed by the parabolic: its identity coset."""
    return Vertex(parabolic, identity())


def translate(w: GroupElement, v: Vertex) -> Vertex:
    """Left action of the group on vertices."""
    return make_vertex(v.parabolic, w * v.rep)


# --- neighbor oracles ------------------------------------------------------

def vertex_key(v: Vertex) -> tuple:
    """The key of v: its coset's ``coset_key``.  Two vertices are equal iff
    their keys are."""
    return coset_key(v.rep, v.parabolic)


def key_vertex(key: tuple) -> Vertex:
    """The vertex whose key is ``key``, peeled to its minimal representative;
    a key starts with its parabolic's name."""
    return Vertex(PARABOLIC_BY_NAME[key[0]], coset_rep(key))


# (parabolic, rotation, order, edge letter) of the two tilings
_PENTAGONS = (D8, "rs", 4, "t")
_SQUARES = (D10, "st", 5, "r")


def _cyclic_walk(v: Vertex, parabolic: ParabolicId, rot: str, order: int,
                 edge: str) -> list[GroupElement]:
    """v.rep * rot^k * edge for k = 0..order-1, in rotation order.

    The rotation is reversed at representatives of odd length, so that
    "clockwise" means the same thing at every vertex of the tiling (up to
    one global flip, which only exchanges the two lateral turn letters).
    """
    if v.parabolic != parabolic:
        raise ValueError(f"cyclic neighbors need a {parabolic.name}-vertex, got {v.label()}")
    if v.rep.length() % 2:
        rot = rot[::-1]
    out = []
    acc = v.rep
    for k in range(order):
        out.append(acc.times(edge))
        if k + 1 < order:
            acc = acc.times(rot)
    return out


def pentagon_cyclic_neighbors(v: Vertex) -> list[Vertex]:
    """The four pentagon neighbors of a D8-vertex: the orbit of the
    quarter-turn rs conjugated to the vertex, in rotation order."""
    return [key_vertex(coset_key(g, D8)) for g in _cyclic_walk(v, *_PENTAGONS)]


def _members(v: Vertex) -> list[GroupElement]:
    """The elements v.rep * p of the coset v, p in v's parabolic."""
    return [v.rep.times(p.canonical_word()) for p in parabolic_elements(v.parabolic)]


def _intersection_walk(v: Vertex) -> list[tuple[ParabolicId, GroupElement]]:
    """(Q, g) for the other two maximal types Q and the members g of v: the
    cosets g*Q are those that meet v."""
    members = _members(v)
    return [(q, g) for q in PARABOLICS.values() if q != v.parabolic for g in members]


def _candidates(v: Vertex, mode: str) -> dict:
    """The keys of v's neighbors, in order of first occurrence (a dict with
    no values)."""
    if mode == "cayley":
        walk = [(CAY, v.rep.times(x)) for x in GENERATORS]
    elif mode == "pentagon-subcomplex":
        walk = [(D8, g) for g in _cyclic_walk(v, *_PENTAGONS)]
    elif mode == "d10-orbit":
        walk = [(D10, g) for g in _cyclic_walk(v, *_SQUARES)]
    elif mode == "full-Y":
        walk = _intersection_walk(v)
        if v.parabolic == D8:
            walk += [(D8, g) for g in _cyclic_walk(v, *_PENTAGONS)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return dict.fromkeys(coset_key(g, parabolic) for parabolic, g in walk)


def neighbors(v: Vertex, mode: str) -> list[Vertex]:
    """Deterministically ordered neighbor list in the given universe; each
    distinct neighbor is peeled once."""
    return [key_vertex(key) for key in _candidates(v, mode)]


def adjacent(u: Vertex, v: Vertex) -> bool:
    """Coxeter-complex adjacency: the two cosets intersect.

    Distinct cosets of the same parabolic never intersect, so same-type
    vertices are never adjacent here; the pentagon edges are a different
    edge notion and belong to the subcomplex modes.
    """
    if u.parabolic == v.parabolic:
        return False
    key = vertex_key(v)
    return any(coset_key(g, v.parabolic) == key for g in _members(u))


# --- slabs -----------------------------------------------------------------

class GraphSlab:
    """Immutable BFS ball.  Vertices are indexed in (depth, canonical word)
    order.  ``key_index`` maps each vertex's key (see ``vertex_key``) to its
    index, in index order."""

    def __init__(self, mode, center, radius, vertices, depth, key_index):
        self.mode = mode
        self.center = center
        self.radius = radius
        self.vertices = vertices
        self.depth = depth
        self.key_index = key_index

    def __len__(self):
        return len(self.vertices)

    def __contains__(self, v):
        return vertex_key(v) in self.key_index

    def index_of(self, v: Vertex) -> int:
        try:
            return self.key_index[vertex_key(v)]
        except KeyError:
            raise VertexNotInSlab(v.label()) from None

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, its in-slab neighbors as sorted indices; symmetric
        and irreflexive.  Walked once, on first use."""
        index = self.key_index
        return tuple(
            tuple(sorted(index[key] for key in _candidates(v, self.mode) if key in index))
            for v in self.vertices)

    def edges(self):
        for i, nbrs in enumerate(self.adj):
            for j in nbrs:
                if i < j:
                    yield (i, j)

    def dump(self) -> str:
        """Debug text form: vertex lines "idx parabolic rep-word", then edge
        lines "i j"; ordering is the slab's deterministic vertex order."""
        lines = []
        for i, v in enumerate(self.vertices):
            lines.append(f"{i} {v.parabolic.name} {v.word() or 'e'}")
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
    center.word()  # raises off W, where the walk's unchecked peels would not end
    vertices = [center]
    depth = [0]
    index = {vertex_key(center): 0}
    level = [center]
    for d in range(1, radius + 1):
        # the level's new keys, in discovery order
        found = dict.fromkeys(key for v in level for key in _candidates(v, mode)
                              if key not in index)
        if len(vertices) + len(found) > max_vertices:
            raise ResourceLimitExceeded(
                f"ball exceeds {max_vertices} vertices at depth {d}")
        new = sorted(zip(map(key_vertex, found), found),
                     key=lambda vk: (vk[0].word(), vk[0].parabolic.name))
        level = []
        for v, key in new:
            index[key] = len(vertices)
            vertices.append(v)
            depth.append(d)
            level.append(v)
    return GraphSlab(mode, center, radius, tuple(vertices), tuple(depth), index)


def graph_distance(u: Vertex, v: Vertex, mode: str, max_depth: int = 64) -> int | None:
    """Exact distance in the (infinite) graph by bidirectional BFS.

    Returns None when the distance exceeds ``max_depth``.  Each side keeps
    the keys it has reached; a completed level is peeled to become the next
    frontier, so the keys met in the final expansion are never peeled.
    """
    if u == v:
        return 0
    side_a = {vertex_key(u): 0}
    side_b = {vertex_key(v): 0}
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
            for key in _candidates(x, mode):
                if key in other:
                    return r + 1 + other[key]
                if key not in dist:
                    dist[key] = r + 1
                    nxt.append(key)
        nxt = [key_vertex(key) for key in nxt]
        if front is front_a:
            front_a = nxt
        else:
            front_b = nxt
    return None
