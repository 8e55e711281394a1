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

A vertex's key is its coset's ``coxeter.coset_key``: a 7-tuple, the
parabolic's name and the six ints of the orbit point M_g u_P that the
sqrt2-grading leaves nonzero.  Neighbors in the tilings and the Cayley
graph are wall reflections of the vertex's key p: the coset g*w*P, w =
rot^k * edge (the rotation reversed at odd-length representatives) or a
generator, has key p - M_g delta_w with a constant offset delta_w
(``coxeter.wall_keys``), a few sqrt2 and phi shifts of g's columns added
to p.  The cosets meeting
g*P (full-Y) are g times the P-orbits of the other two base points: one
``coxeter.orbit_plan`` per P, run by ``orbit_keys``.  Every mode yields
keys, deduplicated (``vertex_key``; ``key_vertex`` goes back), and checks
that the vertex belongs to its universe.  ``neighbors`` peels each
distinct key once to its minimal representative (``key_vertex``).

A ball is a keyed BFS that walks orbits.  The center's stabiliser P (the
parabolic of a fixed vertex (P, e), else the trivial group) preserves
depth, so every level is a union of P-orbits, and the walk expands one
vertex per orbit: a neighbor key met in neither the ball nor the level
brings its whole orbit into the level (``coxeter.key_orbit``, one
reflection per element of P), and only that key is expanded at the next
depth.  The radius-10 pentagon ball expands 917 of its 7,285 inner
vertices.  A coset is peeled only the first time its key is met, so each
vertex but the center is peeled exactly once and the frontier is never
expanded.  A level is peeled in one ``coxeter.coset_reps`` call, the
package's one peel loop, after the walk has found all of its keys, and
its vertices are made from its keys' parabolics and the representatives
the call returns.  Levels are peeled in order, so all but 105 of the
radius-10 pentagon ball's 16,736 new keys take one descent onto a point
already memoised, and each vertex but the center costs one descent.
The ball's dict is the slab's only index.  It holds the key tuples the
walk built, which the peel memoises the representatives under, so the
index costs no new tuples.
Vertex order is BFS depth with canonical-word tie-break inside each level,
then the parabolic's name, which makes slab dumps reproducible and
independent of which vertex of an orbit was expanded.  A level is sorted
as (word, key, representative) tuples, a key starting with its
parabolic's name; a peeled representative carries its word, so the sort
peels nothing more.  Its matrix is built only when read: by the walk at
the vertices it expands, which builds the matrices of their words'
suffixes too, or by a search.  So no other vertex of an expanded orbit
and none of the outer level builds one (2,926 of 16,737 in the radius-10
pentagon ball).  A ball keeps one ``Vertex`` per coset, its depth and the
key index; its adjacency is derived on first use from the neighbor keys
of every vertex.
``graph_distance`` runs a bidirectional BFS on keys in the infinite graph.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, cached_property

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
    coset_reps,
    identity,
    key_orbit,
    min_coset_rep,
    orbit_keys,
    orbit_plan,
    wall_keys,
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
    "neighbors",
    "GraphSlab",
    "build_ball",
    "graph_distance",
    "MAX_BALL_VERTICES",
    "ResourceLimitExceeded",
    "VertexNotInSlab",
]

# the vertex types of each universe, in the order the witness precheck
# anchors them
MODES = {"full-Y": (D8, D10, D4), "pentagon-subcomplex": (D8,),
         "cayley": (CAY,), "d10-orbit": (D10,)}


# a ball larger than this raises ``ResourceLimitExceeded`` before it is built
MAX_BALL_VERTICES = 500_000


class ResourceLimitExceeded(RuntimeError):
    """Ball construction hit the vertex cap."""


class VertexNotInSlab(KeyError):
    pass


class Vertex(namedtuple("Vertex", "parabolic rep")):
    """A coset of a standard parabolic (of CAY: a group element): the
    ``ParabolicId`` ``parabolic`` and a ``GroupElement`` ``rep``.

    ``rep`` is always the minimal coset representative, so equality of
    vertices is equality of fields; a named tuple compares and hashes them
    in C.
    """

    __slots__ = ()

    def word(self) -> str:
        return self.rep.canonical_word()

    def label(self) -> str:
        return f"{self.parabolic.name}:{self.word() or 'e'}"


# a Vertex from its two fields, without the named tuple's Python-level __new__
_vertex = tuple.__new__


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

def _check_mode(mode: str, *vertices: Vertex) -> None:
    """Raise ``ValueError`` unless the mode is known and every vertex is of
    one of its types."""
    types = MODES.get(mode)
    if types is None:
        raise ValueError(f"unknown mode {mode!r}")
    for v in vertices:
        if v.parabolic not in types:
            raise ValueError(f"{v.label()} does not fit mode {mode!r}")


def vertex_key(v: Vertex) -> tuple:
    """The key of v: its coset's ``coset_key``.  Two vertices are equal iff
    their keys are."""
    return coset_key(v.rep, v.parabolic)


def key_vertex(key: tuple) -> Vertex:
    """The vertex whose key is ``key``, peeled to its minimal representative;
    a key starts with its parabolic's name."""
    return Vertex(PARABOLIC_BY_NAME[key[0]], coset_rep(key))


# a tiling's vertex parabolic, the rotation about a vertex, its order and
# the edge letter
_TILINGS = {"pentagon-subcomplex": (D8, "rs", 4, "t"), "d10-orbit": (D10, "st", 5, "r")}


@cache
def _walls(mode: str) -> tuple:
    """Per parity of a representative's length, the ``wall_keys`` of the
    mode's neighbors: rep * rot^k * edge for k = 0..order-1 in a tiling,
    rep * x for the generators x in the Cayley graph.

    The rotation is reversed at representatives of odd length, so that
    "clockwise" means the same thing at every vertex of the tiling (up to
    one global flip, which only exchanges the two lateral turn letters).
    """
    if mode == "cayley":
        return (wall_keys(CAY, tuple(GENERATORS)),) * 2
    parabolic, rot, order, edge = _TILINGS[mode]
    return tuple(wall_keys(parabolic, tuple(r * k + edge for k in range(order)))
                 for r in (rot, rot[::-1]))


def _reflections(v: Vertex, key: tuple, mode: str) -> tuple:
    """The keys of v's neighbors in a tiling or the Cayley graph, in
    rotation (generator) order: v's key ``key`` reflected across its walls."""
    rep = v.rep
    return _walls(mode)[rep.length() % 2](key, rep.mat)


@cache
def _intersection_plan(parabolic: ParabolicId) -> tuple:
    """The ``orbit_plan`` of the cosets p*Q meeting the vertex (P, e), p in
    P: the P-orbits of the base points of the other two maximal types Q, in
    ``PARABOLICS`` order."""
    return orbit_plan(parabolic, tuple(coset_key(identity(), q)
                                       for q in PARABOLICS.values() if q is not parabolic))


def _candidates(v: Vertex, key: tuple, mode: str) -> dict:
    """The keys of v's neighbors, in order of first occurrence (a dict with
    no values); ``key`` is v's own key, which the caller already holds.
    Raises ``ValueError`` for an unknown mode or a vertex outside the mode's
    universe."""
    _check_mode(mode, v)
    if mode != "full-Y":
        return dict.fromkeys(_reflections(v, key, mode))
    keys = orbit_keys(_intersection_plan(v.parabolic), v.rep)
    if v.parabolic is D8:
        keys += _reflections(v, key, "pentagon-subcomplex")
    return dict.fromkeys(keys)


def neighbors(v: Vertex, mode: str) -> list[Vertex]:
    """Deterministically ordered neighbor list in the given universe; each
    distinct neighbor is peeled once."""
    return [key_vertex(key) for key in _candidates(v, vertex_key(v), mode)]


# --- slabs -----------------------------------------------------------------

class GraphSlab:
    """Immutable BFS ball.  Vertices are indexed in (depth, canonical word)
    order.  ``key_index`` maps each vertex's key (see ``vertex_key``) to its
    index, in index order.  A vertex comes with its matrix built only if
    the walk expanded it (one per orbit of the center's stabiliser below
    the outer level) or a vertex whose word ends in its word."""

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
            tuple(sorted(index[k] for k in _candidates(v, key, self.mode) if k in index))
            for v, key in zip(self.vertices, index))

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


def build_ball(center: Vertex, radius: int, mode: str) -> GraphSlab:
    """BFS-complete ball of the given radius around ``center``, walked one
    vertex per orbit of the center's stabiliser (see the module docstring)."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    _check_mode(mode, center)
    center.word()  # raises off W, where the walk's unchecked peels would not end
    stabiliser = center.parabolic if center.rep.is_identity() else CAY
    vertices = [center]
    depth = [0]
    key = vertex_key(center)
    index = {key: 0}
    walk = [(center, key)]  # (vertex, key) pairs, one per orbit of the last level
    for d in range(1, radius + 1):
        # the level's keys, each orbit in discovery order; True marks the
        # key that met it, which the next level expands
        found = {}
        for v, key in walk:
            for k in _candidates(v, key, mode):
                if k not in index and k not in found:
                    found.update(dict.fromkeys(key_orbit(k, stabiliser), False))
                    found[k] = True
        if len(vertices) + len(found) > MAX_BALL_VERTICES:
            raise ResourceLimitExceeded(
                f"ball exceeds {MAX_BALL_VERTICES} vertices at depth {d}")
        reps = coset_reps(found)
        walk = []
        for _, key, rep in sorted(zip([rep._word for rep in reps], found, reps)):
            v = _vertex(Vertex, (PARABOLIC_BY_NAME[key[0]], rep))
            index[key] = len(vertices)
            vertices.append(v)
            depth.append(d)
            if found[key]:
                walk.append((v, key))
    return GraphSlab(mode, center, radius, tuple(vertices), tuple(depth), index)


def graph_distance(u: Vertex, v: Vertex, mode: str) -> int:
    """Exact distance in the (infinite) graph by bidirectional BFS.

    Every mode's graph is infinite and connected, so the two searches always
    meet.  Each side keeps the keys it has reached; a completed level is
    peeled in one ``coset_reps`` call to become the next frontier, so the
    keys met in the final expansion are never peeled.
    """
    _check_mode(mode, u, v)
    if u == v:
        return 0
    key_u, key_v = vertex_key(u), vertex_key(v)
    side_a = {key_u: 0}
    side_b = {key_v: 0}
    front_a, front_b = [(u, key_u)], [(v, key_v)]  # (vertex, key) pairs
    ra = rb = 0
    while True:
        if len(front_a) <= len(front_b):
            front, dist, other, r = front_a, side_a, side_b, ra
            ra += 1
        else:
            front, dist, other, r = front_b, side_b, side_a, rb
            rb += 1
        nxt = []
        for x, x_key in front:
            for key in _candidates(x, x_key, mode):
                if key in other:
                    return r + 1 + other[key]
                if key not in dist:
                    dist[key] = r + 1
                    nxt.append(key)
        nxt = [(_vertex(Vertex, (PARABOLIC_BY_NAME[key[0]], rep)), key)
               for key, rep in zip(nxt, coset_reps(nxt))]
        if front is front_a:
            front_a = nxt
        else:
            front_b = nxt
