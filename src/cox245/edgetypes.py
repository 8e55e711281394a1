"""Canonical orbit invariants ("edge types") of unordered vertex pairs.

A pair of vertices is a pair of cosets (gP, hQ).  Orbits of ordered pairs
under the left action biject with double cosets P\\W/Q, so the invariant
is (P, Q) and the canonical word of the minimal double-coset
representative of g^-1 h; the unordered key is the lexicographically
smaller of the two orientations.  A pair of Cayley vertices is the case
P = Q = CAY, the trivial parabolic: the double coset of d = g^-1 h is d
itself, and the key is the smaller of the canonical words of d and d^-1.
Cayley keys serialize as ``CAY:word``, the others as ``CPLX:P:Q:word``;
a Cayley vertex never pairs with a coset of a maximal parabolic.

Keys are read off word walks and orbit points: g^-1 h is h's matrix
left-multiplied by g's ShortLex letters (``GroupElement.inverse_times``),
its inverse is the walk along its reversed word, and the double-coset
representative is peeled off the point of its coset (see
``coxeter.min_double_coset_rep``).  No matrix is inverted.

Keys are exact: equal keys if and only if the pairs lie in one W-orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .complexgraph import GraphSlab, Vertex, key_vertex, translate
from .coxeter import (
    CAY,
    GroupElement,
    PARABOLIC_BY_NAME,
    ParabolicId,
    coset_key,
    element_of_word,
    min_double_coset_rep,
    parabolic_elements,
    translate_key,
)

__all__ = [
    "EdgeTypeKey",
    "type_key_cayley",
    "type_key_complex",
    "pair_key",
    "partner_keys",
    "key_partners",
    "anchor_orbit_reps",
    "orbit_sample",
    "find_pair_transport",
]


@dataclass(frozen=True)
class EdgeTypeKey:
    p: str  # parabolic names, "CAY" for both of a Cayley pair
    q: str
    word: str

    @property
    def mode(self) -> str:
        return "cayley" if self.p == "CAY" else "complex"

    def serialize(self) -> str:
        if self.p == "CAY":
            return f"CAY:{self.word}"
        return f"CPLX:{self.p}:{self.q}:{self.word}"

    @property
    def is_degenerate(self) -> bool:
        """The type of a pair (v, v); always treated as contained."""
        return self.word == ""

    def __repr__(self):
        return self.serialize()


def _type_key(p: ParabolicId, q: ParabolicId, d: GroupElement) -> EdgeTypeKey:
    """The key of a pair (gP, hQ) with g^-1 h = d."""
    if (p is CAY) != (q is CAY):
        raise ValueError("a Cayley vertex pairs only with a Cayley vertex")
    d1 = min_double_coset_rep(d, p, q)
    d2 = d1.inverse()  # the minimal rep of the reversed pair's double coset
    return EdgeTypeKey(*min((p.name, q.name, d1.canonical_word()),
                            (q.name, p.name, d2.canonical_word())))


def type_key_cayley(g: GroupElement, h: GroupElement) -> EdgeTypeKey:
    """The key of the Cayley pair (g, h)."""
    return _type_key(CAY, CAY, g.inverse_times(h))


def type_key_complex(u: Vertex, v: Vertex) -> EdgeTypeKey:
    return _type_key(u.parabolic, v.parabolic, u.rep.inverse_times(v.rep))


def pair_key(u: Vertex, v: Vertex) -> EdgeTypeKey:
    """The key of (u, v).  Cayley pairs go through ``type_key_cayley``, so
    each kind of pair has its own entry point to trace."""
    if u.parabolic is CAY and v.parabolic is CAY:
        return type_key_cayley(u.rep, v.rep)
    return type_key_complex(u, v)


def partner_keys(v: Vertex, key: EdgeTypeKey) -> list:
    """The keys (see ``complexgraph.vertex_key``) of all vertices u with
    pair_key(v, u) == key, in deterministic order; nothing is peeled.

    The partners of a P-side vertex for key (P, Q, w) are the cosets
    v.rep * p * w * Q with p in P; the mirrored orientation uses w^-1, the
    reversed word (generators are involutions).  Both directions are
    generated.  Their coset keys at the anchor vertex (P, e) are built
    once per (P, key) by word walks, in that order and deduplicated (see
    ``_anchor_partners``); v's partner keys are their translates by v.rep,
    one ``translate_key`` each.  M_v is invertible, so two candidates
    coincide at v exactly when they do at the anchor, and the list is the
    one a walk from v.rep would give.
    """
    g = v.rep
    return [translate_key(g, k) for k in _anchor_partners(v.parabolic, key)]


def key_partners(v: Vertex, key: EdgeTypeKey) -> list[Vertex]:
    """The vertices of ``partner_keys(v, key)``, peeled, in its order."""
    return [key_vertex(k) for k in partner_keys(v, key)]


def _orientations(parabolic: ParabolicId, key: EdgeTypeKey):
    """(step word, target parabolic) of each orientation of ``key`` that
    starts on a P-side vertex: w for (P, Q, w), and the reversed word w^-1
    (generators are involutions) for (Q, P, w)."""
    out = []
    if parabolic.name == key.p:
        out.append((key.word, PARABOLIC_BY_NAME[key.q]))
    if parabolic.name == key.q:
        out.append((key.word[::-1], PARABOLIC_BY_NAME[key.p]))
    return out


@cache
def _anchor_partners(parabolic: ParabolicId, key: EdgeTypeKey):
    """The coset key of each partner of the vertex (P, e) for ``key``: both
    orientations, p in ``parabolic_elements`` order, first occurrence of
    each coset kept.  Memoised for the life of the process, one entry per
    (anchor parabolic, key) queried."""
    return tuple(dict.fromkeys(
        coset_key(p.times(step), target)
        for step, target in _orientations(parabolic, key)
        for p in parabolic_elements(parabolic)))


@cache
def anchor_orbit_reps(parabolic: ParabolicId, key: EdgeTypeKey):
    """Representatives of the orbits of P, the stabiliser of the vertex
    (P, e), on that vertex's partners for ``key``: one coset key per
    orientation, deduplicated.

    The partners of an orientation are the cosets p * w * Q with p in P
    (``_anchor_partners``), one P-orbit, represented by its p = e term: one
    word walk per orientation, memoised like ``_anchor_partners``.  For
    CAY, whose P is trivial, these are the partners themselves."""
    return tuple(dict.fromkeys(coset_key(element_of_word(step), target)
                               for step, target in _orientations(parabolic, key)))


def orbit_sample(key: EdgeTypeKey, slab: GraphSlab, count: int) -> list[tuple[Vertex, Vertex]]:
    """Up to ``count`` distinct slab pairs of the given type, scanned in
    index order (degenerate pairs included for the identity key)."""
    out = []
    verts = slab.vertices
    for i in range(len(verts)):
        for j in range(i, len(verts)):
            if pair_key(verts[i], verts[j]) == key:
                out.append((verts[i], verts[j]))
                if len(out) >= count:
                    return out
    return out


def find_pair_transport(pair_a, pair_b) -> GroupElement | None:
    """An explicit w moving one unordered pair onto another of equal key.

    Searches w with w*a0 = b0 (coset-wise) and checks the other endpoint,
    in both orientations of pair_b.
    """
    a0, a1 = pair_a
    for b0, b1 in (pair_b, (pair_b[1], pair_b[0])):
        if a0.parabolic != b0.parabolic or a1.parabolic != b1.parabolic:
            continue
        for p in parabolic_elements(a0.parabolic):
            w = b0.rep * p * a0.rep.inverse()
            if translate(w, a0) == b0 and translate(w, a1) == b1:
                return w
    return None
