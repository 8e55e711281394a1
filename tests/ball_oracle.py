"""The plain BFS ball, kept as the oracle for ``complexgraph.build_ball``:
every vertex of depth below the radius is expanded, one by one, with no
use of the center's stabiliser.  Levels are sorted as the package sorts
them, so the two walks must give the same slab, byte for byte.
"""

from cox245.complexgraph import GraphSlab, key_vertex, vertex_key
from cox245.complexgraph import _candidates


def plain_ball(center, radius, mode):
    """The BFS-complete ball of the given radius around ``center``, each
    level the new keys met from the level before, peeled and sorted by
    (word, parabolic name)."""
    vertices = [center]
    depth = [0]
    key = vertex_key(center)
    index = {key: 0}
    level = [(center, key)]
    for d in range(1, radius + 1):
        found = dict.fromkeys(k for v, key in level for k in _candidates(v, key, mode)
                              if k not in index)
        level = sorted(zip(map(key_vertex, found), found),
                       key=lambda vk: (vk[0].word(), vk[0].parabolic.name))
        for v, key in level:
            index[key] = len(vertices)
            vertices.append(v)
            depth.append(d)
    return GraphSlab(mode, center, radius, tuple(vertices), tuple(depth), index)
