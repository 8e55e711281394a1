#!/usr/bin/env python3
"""Triangulated discs: curvature audits and the two classification runs.

Interior curvature 6 - angle, boundary 3 - angle; totals always 6.  Under
the local-largeness constraints a hexagon fills only as the coned wheel,
and an octagon only as the two reference diagrams (one interior hub of
angle 8, or two hubs of angle 6 sharing an edge).
"""

from cox245.discs import (
    TriDisc,
    curvature_profile,
    enumerate_discs,
    p8_disc,
    p10_disc,
    wheel_disc,
)

for name, disc in (("triangle", TriDisc((0, 1, 2), ((0, 1, 2),))),
                   ("hexagon wheel", wheel_disc(6)),
                   ("P8", p8_disc()),
                   ("P10", p10_disc())):
    prof = curvature_profile(disc)
    print(f"{name:>14}: boundary curvature {sorted(prof.boundary.values())}, "
          f"interior {sorted(prof.interior.values())}, total {prof.total}")

print()
print("unconstrained enumerations (Gauss-Bonnet asserted on every disc):")
for boundary, cap in ((4, 6), (5, 7), (6, 8)):
    out = enumerate_discs(boundary, cap)
    print(f"  boundary {boundary}, <= {cap} triangles: {len(out)} classes")

print()
wheel_only = enumerate_discs(6, 8, locally_6_large=True, forbid_boundary_chords=True)
print("hexagon, locally 6-large, no chords:", len(wheel_only), "disc;",
      "it is the wheel:", wheel_only[0].canonical == wheel_disc(6).canonical)

octs = enumerate_discs(8, 10, locally_6_large=True, min_boundary_angle=2,
                       forbid_boundary_chords=True)
print("octagon under the same constraints:", len(octs), "discs")
print("  first is P8:", octs[0].canonical == p8_disc().canonical,
      " second is P10:", octs[1].canonical == p10_disc().canonical)
print()
print("canonical serialization of the wheel:")
print(wheel_disc(6).to_text())
