#!/usr/bin/env python3
"""The (2,4,5) triangle group through its reflection representation.

Words multiply as exact 3x3 matrices; the representation is faithful, so
matrix equality solves the word problem.  ShortLex canonical words and
minimal coset representatives are peeled off the element's orbit point
g*u, one least left descent at a time; double-coset representatives come
out of descent stripping.
"""

from cox245.coxeter import (
    D4,
    D8,
    D10,
    element_of_word,
    min_coset_rep,
    min_double_coset_rep,
    parabolic_elements,
    right_descents,
)

print("defining relations collapse to the identity:")
for w in ("rr", "ss", "tt", "rsrsrsrs", "ststststst", "trtr"):
    print(f"  {w:>10} -> identity: {element_of_word(w).is_identity()}")

print()
print("canonical words (ShortLex, r < s < t):")
for w in ("tr", "tstst", "srsr", "rstrstst"):
    g = element_of_word(w)
    print(f"  {w:>10} -> {g.canonical_word():<10} length {g.length()}")

print()
print("right descents of rt:", sorted(right_descents(element_of_word("rt"))))

print()
print("the three dihedral parabolics:")
for p in (D8, D10, D4):
    elems = parabolic_elements(p)
    print(f"  {p.name:>4}: order {len(elems)}, words", [g.canonical_word() or "e" for g in elems])

print()
print("coset canonicalization:")
g = element_of_word("tsr")
print("  min rep of tsr *", D8.name, "=", min_coset_rep(g, D8).canonical_word())
g = element_of_word("rts")
print("  min rep of", D8.name, "* rts *", D8.name, "=",
      min_double_coset_rep(g, D8, D8).canonical_word())
