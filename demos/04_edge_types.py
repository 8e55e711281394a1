#!/usr/bin/env python3
"""Edge types: canonical orbit invariants of unordered vertex pairs.

A pair of coset vertices is classified by the minimal double-coset word of
the difference of its representatives; a pair of group elements by the
smaller canonical word of the two quotients.  Keys are complete invariants
of the left action.
"""

from cox245.complexgraph import fix_vertex, make_vertex, translate
from cox245.coxeter import D8, element_of_word, identity
from cox245.edgetypes import key_partners, type_key_cayley, type_key_complex

c8 = fix_vertex(D8)
t8 = make_vertex(D8, element_of_word("t"))
key = type_key_complex(c8, t8)
print("pentagon edge type:", key.serialize())

print("degenerate pair type:", type_key_complex(c8, c8).serialize())

print()
print("invariance under the left action:")
for word in ("r", "st", "tsrst"):
    w = element_of_word(word)
    moved = type_key_complex(translate(w, c8), translate(w, t8))
    print(f"  w = {word:>6}: key unchanged: {moved == key}")

print()
e = identity()
k1 = type_key_cayley(e, element_of_word("tsr"))
k2 = type_key_cayley(element_of_word("tr"), element_of_word("tst"))
print("Cayley pairs (e, tsr) and (tr, tst):", k1.serialize(), "==", k2.serialize(), "->", k1 == k2)

print()
partners = key_partners(c8, key)
print(f"the {len(partners)} pentagon edges of type {key.serialize()} at {c8.label()}:")
for v in partners:
    print("  ", c8.label(), "--", v.label())
