"""Canonical orbit invariants ("edge types") of unordered vertex pairs.

Two modes share one key type:

* complex mode: a pair of parabolic-coset vertices (gP, hQ).  Orbits of
  ordered pairs under the left action biject with double cosets P\\W/Q, so
  the invariant is the canonical word of the minimal double-coset
  representative of g^-1 h; the unordered key is the lexicographically
  smaller of the two oriented serializations.
* cayley mode: a pair of group elements (g, h); the invariant is the
  smaller of the canonical words of g^-1 h and h^-1 g.

Both are read off word walks and orbit points: g^-1 h is h's matrix
left-multiplied by g's ShortLex letters (``GroupElement.inverse_times``),
its inverse is the walk along its reversed word, and the double-coset
representative is peeled off the point of its coset (see
``coxeter.min_double_coset_rep``).  No matrix is inverted.

Keys are exact: equal keys if and only if the pairs lie in one W-orbit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexgraph import GraphSlab, Vertex, key_vertex, translate
from .coxeter import (
    GroupElement,
    PARABOLICS,
    ParabolicId,
    coset_key,
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
    "orbit_sample",
    "find_pair_transport",
]


@dataclass(frozen=True)
class EdgeTypeKey:
    mode: str  # "cayley" or "complex"
    p: str | None
    q: str | None
    word: str

    def serialize(self) -> str:
        if self.mode == "cayley":
            return f"CAY:{self.word}"
        return f"CPLX:{self.p}:{self.q}:{self.word}"

    @property
    def is_degenerate(self) -> bool:
        """The type of a pair (v, v); always treated as contained."""
        return self.word == ""

    def __repr__(self):
        return self.serialize()


def type_key_cayley(g: GroupElement, h: GroupElement) -> EdgeTypeKey:
    d = g.inverse_times(h)  # h^-1 g is its inverse
    w = min(d.canonical_word(), d.inverse().canonical_word())
    return EdgeTypeKey("cayley", None, None, w)


def type_key_complex(u: Vertex, v: Vertex) -> EdgeTypeKey:
    if u.parabolic is None or v.parabolic is None:
        raise ValueError("complex keys need parabolic-coset vertices")
    d1 = min_double_coset_rep(u.rep.inverse_times(v.rep), u.parabolic, v.parabolic)
    d2 = d1.inverse()  # the minimal rep of the reversed pair's double coset
    k1 = (u.parabolic.name, v.parabolic.name, d1.canonical_word())
    k2 = (v.parabolic.name, u.parabolic.name, d2.canonical_word())
    p, q, w = min(k1, k2)
    return EdgeTypeKey("complex", p, q, w)


def pair_key(u: Vertex, v: Vertex) -> EdgeTypeKey:
    """Dispatch on the vertex universe; Cayley vertices have no parabolic."""
    if u.parabolic is None:
        return type_key_cayley(u.rep, v.rep)
    return type_key_complex(u, v)


def partner_keys(v: Vertex, key: EdgeTypeKey) -> list:
    """The keys (see ``complexgraph.vertex_key``) of all vertices u with
    pair_key(v, u) == key, in deterministic order; nothing is peeled.

    In complex mode the partners of a P-side vertex for key (P, Q, w) are
    the cosets v.rep * p * w * Q with p in P; the mirrored orientation uses
    w^-1, the reversed word (generators are involutions).  Both directions
    are generated.  Their coset keys at the anchor vertex (P, e) are built
    once per (P, key) by word walks, in that order and deduplicated (see
    ``_anchor_partners``); v's partner keys are their translates by v.rep,
    one ``translate_key`` each.  M_v is invertible, so two candidates
    coincide at v exactly when they do at the anchor, and the list is the
    one a walk from v.rep would give.

    Cayley partners are the matrices of the two word walks v.rep * w and
    v.rep * w^-1.
    """
    if key.mode == "cayley":
        out = [v.rep.times(key.word).mat]
        back = v.rep.times(key.word[::-1]).mat
        if back != out[0]:
            out.append(back)
        return out
    anchor = _ANCHOR_PARTNERS.get((v.parabolic, key))
    if anchor is None:
        anchor = _anchor_partners(v.parabolic, key)
    g = v.rep
    return [translate_key(g, k) for k in anchor]


def key_partners(v: Vertex, key: EdgeTypeKey) -> list[Vertex]:
    """The vertices of ``partner_keys(v, key)``, peeled, in its order."""
    return [key_vertex(k) for k in partner_keys(v, key)]


# Coset keys of the anchor's partners by (anchor parabolic, key); the memo
# grows for the life of the process, one entry per complex key queried.
_ANCHOR_PARTNERS: dict[tuple[ParabolicId, EdgeTypeKey], tuple] = {}


def _anchor_partners(parabolic: ParabolicId, key: EdgeTypeKey):
    """The coset key of each partner of the vertex (P, e) for ``key``: both
    orientations, p in ``parabolic_elements`` order, first occurrence of
    each coset kept."""
    variants = []
    if parabolic.name == key.p:
        variants.append((key.word, PARABOLICS[key.q]))
    if parabolic.name == key.q:
        variants.append((key.word[::-1], PARABOLICS[key.p]))
    anchor = _ANCHOR_PARTNERS[(parabolic, key)] = tuple(dict.fromkeys(
        coset_key(p.times(step), target)
        for step, target in variants for p in parabolic_elements(parabolic)))
    return anchor


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
