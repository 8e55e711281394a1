#!/usr/bin/env python3
"""Pentagon-tiling strings, the six sequence families, and the chain.

Turtle strings over {L, S, R} traced through the pentagon tiling name edge
types; the six cycle families pump them: starting from the bare pentagon
edge, the chain derives straight segments of any requested length, with
endpoint distances growing in both metrics.
"""

from cox245.certificates import (
    FAMILIES,
    StringSpec,
    family_string,
    string_key,
    trace_path,
    verify_d8_chain,
    verify_family,
)
from cox245.complexgraph import build_ball, fix_vertex
from cox245.coxeter import D8

print("sequence families (0-based as displayed):")
for series in "abcdef":
    row = [str(family_string(series, n)) for n in range(4)]
    print(f"  {series}_n: " + ", ".join(row))

print()
spec = StringSpec.parse("SRS")
trace = trace_path(spec)
print(f"tracing {spec}: {len(trace.vertices)} vertices, type {trace.key.serialize()}")
print("string aliases name one type:  lrlsr == rlrsl:",
      string_key(StringSpec.parse("lrlsr")) == string_key(StringSpec.parse("rlrsl")))

print()
slab = build_ball(fix_vertex(D8), 8, "pentagon-subcomplex")
print(f"searching witnesses in a radius-8 ball ({len(slab)} vertices):")
for family in FAMILIES:
    step = verify_family(family, 1, slab)
    print(f"  {family:>6} n=1: {step['status']}; witness through {step['witness'][0]}")

print()
chain = verify_d8_chain(3, slab)
print("chain to stage 3:", chain["status"])
for row in chain["distances"]:
    print(f"  stage {row['stage']}: d-string {row['d_string']:>6} "
          f"pentagon distance {row['pentagon-subcomplex']}, full-Y distance {row['full-Y']}")
