#!/usr/bin/env python3
"""Coset-graph balls: the pentagon tiling, its dual, and the Cayley graph.

The D8-coset orbit with t-edges is the tiling of the hyperbolic plane by
right-angled pentagons (degree 4); the D10-orbit with r-edges is the dual
square tiling (degree 5).  Balls are BFS-complete, so a vertex's depth in
a ball is its distance from the center.
"""

from cox245.complexgraph import build_ball, cayley_vertex, fix_vertex, graph_distance, make_vertex
from cox245.coxeter import D8, D10, element_of_word, identity

center = fix_vertex(D8)
print("pentagon-subcomplex ball sizes:")
for r in range(7):
    print(f"  radius {r}: {len(build_ball(center, r, 'pentagon-subcomplex')):>5} vertices")

slab = build_ball(center, 5, "pentagon-subcomplex")
degrees = [len(slab.adj[i]) for i in range(len(slab)) if slab.depth[i] < 5]
print("interior degrees (should all be 4):", sorted(set(degrees)))

print()
print("dual square-tiling ball sizes (degree 5):")
c10 = fix_vertex(D10)
for r in range(5):
    print(f"  radius {r}: {len(build_ball(c10, r, 'd10-orbit')):>5} vertices")

print()
print("Cayley ball sizes:")
e = cayley_vertex(identity())
for r in range(11):
    print(f"  radius {r:>2}: {len(build_ball(e, r, 'cayley')):>4} elements")

print()
t_vertex = make_vertex(D8, element_of_word("t"))
print("ball depth of tFix:", slab.depth[slab.index_of(t_vertex)],
      "= graph distance Fix -> tFix:", graph_distance(center, t_vertex, "pentagon-subcomplex"))
print("exact graph distance in full-Y of the straight 5-step endpoints:",
      graph_distance(center, make_vertex(D8, element_of_word("tsrsrtstsrsrt")), "full-Y"))

print()
print("slab dump excerpt (deterministic):")
print("\n".join(build_ball(center, 1, "pentagon-subcomplex").dump().splitlines()[:9]))
