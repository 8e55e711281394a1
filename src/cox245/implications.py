"""The inference rules of the certificate calculus.

An edge type E is *elementarily implied* from a set of types by a 4- or
5-cycle whose sides all carry known types and whose diagonals all carry the
single type E (two diagonals for a 4-cycle, five for a 5-cycle; no
weakening to "some diagonal").  A *chain implication* applies elementary
steps in sequence, each enlarging the known set.  The state is that known
set and nothing more: a suite's report, which lists every witness cycle
with the type it derived, is the one derivation trail.

Cycle vertices are hypothetical: they need not be adjacent in any graph,
and repeats are permitted (a pair (v, v) counts as contained), though a
witness using them is reported as degenerate (``CycleWitness.degenerate``).

One generator, ``_cycles``, enumerates every such cycle: it places the
points in order, each one a known-type partner of its predecessor and a
target-type partner of every earlier point it shares a diagonal with, and
the last one a known-type partner of the first.  The caller supplies the
two partner oracles, so the same search serves three settings:

* ``find_witness`` runs it over a slab's vertex indices and returns the
  first cycle: 4-cycles before 5-cycles, lexicographic in BFS vertex
  indices.
* Before each slab sweep, an abstract precheck runs it with no radius
  bound from one fixed anchor per vertex type, with the known types taken
  newest first; when no cycle exists there, none exists in the slab.
  The anchor (P, e) is fixed by P and pair types are W-invariant, so the
  cycles through it come in P-orbits.  The precheck therefore tries as
  first side point only the anchor and one representative per P-orbit of
  its partners (``edgetypes.anchor_orbit_reps``), with the same answer.
* ``close_orbit`` and ``dihedral_closure`` run it over the pair table of a
  finite orbit, through ``closure`` until no new type is forced; the
  latter is how the diagonal-implies-clique closures of the 8-gon and
  10-gon are checked.  ``closure`` is the package's one fixpoint loop:
  ``certificates.auto_search_d10`` runs it with ``find_witness``.

Every search on a slab draws its partner sets from the slab's
``_SearchSpace`` (in ``_SPACES``, kept while the slab lives), which holds
two caches of ``partner_keys`` results.  The precheck's maps (vertex key,
edge key) to the partners' vertex keys (see ``complexgraph.vertex_key``),
in and out of the slab, for the points it visits; the sweep's maps (slab
index, edge key) to the sorted slab indices of the in-slab partners only,
since the sweep never reads any other.  A vertex is peeled only when the
precheck expands a point outside the slab; a witness is read off the
slab's own vertices.
"""

from __future__ import annotations

import weakref
from collections import namedtuple
from functools import cached_property
from itertools import chain

from .complexgraph import MODES, GraphSlab, Vertex, key_vertex, vertex_key
from .coxeter import identity
from .edgetypes import EdgeTypeKey, anchor_orbit_reps, pair_key, partner_keys

__all__ = [
    "SideNotKnown",
    "DiagonalsNotUniform",
    "CycleWitness",
    "ImplicationState",
    "check_elementary",
    "find_witness",
    "closure",
    "close_orbit",
    "dihedral_closure",
    "DIHEDRAL_CHORD_LABELS",
]


class SideNotKnown(ValueError):
    def __init__(self, index: int, key: EdgeTypeKey):
        self.index = index
        self.key = key
        super().__init__(f"side {index} has type {key.serialize()} not in the known set")


class DiagonalsNotUniform(ValueError):
    def __init__(self, keys):
        self.keys = tuple(keys)
        super().__init__(
            "diagonals carry distinct types: " + ", ".join(k.serialize() for k in self.keys))


class CycleWitness(namedtuple("CycleWitness", "points")):
    """A 4- or 5-cycle of vertices, the tuple ``points``; its diagonals
    should carry one type."""

    __slots__ = ()

    def __new__(cls, points: tuple[Vertex, ...]):
        if len(points) not in (4, 5):
            raise ValueError("a cycle witness has exactly 4 or 5 vertices")
        return super().__new__(cls, points)

    @property
    def degenerate(self) -> bool:
        return len(set(self.points)) < len(self.points)

    def labels(self) -> tuple[str, ...]:
        return tuple(p.label() for p in self.points)


class ImplicationState(namedtuple("ImplicationState", "known")):
    """Immutable ordered set of known edge types, the tuple ``known``, in
    the order learned.  Instances keep a ``__dict__`` for ``known_set``."""

    @classmethod
    def initial(cls, keys) -> "ImplicationState":
        return cls(tuple(dict.fromkeys(keys)))

    @cached_property
    def known_set(self) -> frozenset[EdgeTypeKey]:
        return frozenset(self.known)

    def has(self, key: EdgeTypeKey) -> bool:
        return key.is_degenerate or key in self.known_set

    def add(self, keys) -> "ImplicationState":
        """The state with the keys it lacks appended, in order, each once."""
        new = (k for k in dict.fromkeys(keys) if not self.has(k))
        return ImplicationState((*self.known, *new))


def _sides(points):
    n = len(points)
    return [(i, (i + 1) % n) for i in range(n)]


_DIAGONALS = {4: ((0, 2), (1, 3)), 5: ((0, 2), (1, 3), (2, 4), (3, 0), (4, 1))}


def check_elementary(state: ImplicationState, cycle: CycleWitness) -> EdgeTypeKey:
    """The implied type of the cycle, or an error naming what failed.

    Sides must carry known (or degenerate) types; all diagonals must carry
    one common type, which is returned.
    """
    pts = cycle.points
    for idx, (i, j) in enumerate(_sides(pts)):
        k = pair_key(pts[i], pts[j])
        if not state.has(k):
            raise SideNotKnown(idx, k)
    diag_keys = [pair_key(pts[i], pts[j]) for i, j in _DIAGONALS[len(pts)]]
    first = diag_keys[0]
    if any(k != first for k in diag_keys[1:]):
        raise DiagonalsNotUniform(diag_keys)
    return first


def apply_elementary(state: ImplicationState,
                     cycle: CycleWitness) -> tuple[ImplicationState, EdgeTypeKey]:
    """The state grown by the cycle's implied type, and that type; the
    input state is never touched (it is immutable)."""
    derived = check_elementary(state, cycle)
    return state.add((derived,)), derived


# --- witness search --------------------------------------------------------

def _cycles(starts, length, known, target, first=None):
    """Every ``length``-cycle whose sides are known and whose diagonals are
    all target pairs, in the order of ``starts`` and of the ``known`` lists.

    ``known(p)`` lists the points that may follow p along a side (p itself
    included where a degenerate side is allowed); ``target(p)`` holds the
    points forming a target pair with p.  Points are placed in order: each
    one follows its predecessor, pairs with every earlier point it shares a
    diagonal with, and the last one closes back onto the first.  When
    ``first`` is given, ``first(p0)`` lists the candidates for the first
    side point in place of ``known(p0)``, which still closes the cycle; a
    caller passes one point per orbit of a group fixing p0 and preserving
    both relations, which leaves whether a cycle exists unchanged.
    """
    tails = [[min(d) for d in _DIAGONALS[length] if max(d) == pos]
             for pos in range(length)]
    for p0 in starts:
        t0 = set(target(p0))
        if t0:
            close = known(p0)
            succ = close if first is None else first(p0)
            yield from _extend([p0], succ, [t0], set(close), tails, known, target)


def _extend(path, succ, tsets, close, tails, known, target):
    """The cycles of ``_cycles`` that begin with ``path``, whose next point
    is drawn from ``succ``.

    ``tsets[j]`` is the target set of ``path[j]``, computed when a later
    diagonal first needs it (positions up to len(path) - 2), so a point
    with no candidate successor never costs a target lookup.
    """
    pos = len(path)
    while len(tsets) < pos - 1:
        tsets.append(set(target(path[len(tsets)])))
    need = [tsets[j] for j in tails[pos]]
    last = pos == len(tails) - 1
    if last:
        need.append(close)
    for p in succ:
        for s in need:
            if p not in s:
                break
        else:
            if last:
                yield (*path, p)
            else:
                yield from _extend(path + [p], known(p), tsets, close, tails, known, target)
                del tsets[pos:]


class _SearchSpace:
    """The partner sets of one slab, kept for the slab's lifetime.

    Two caches of ``partner_keys``.  ``vertex_partners``, which the
    precheck reads, keys its memo by (vertex key, edge key) and keeps every
    partner, with each in-slab one stored as the slab's own key object.
    ``partners``, which the slab sweep reads, keys its cache by (slab
    index, edge key) and keeps only the sorted slab indices of the in-slab
    partners, filled from the precheck's entry when there is one.  The
    sweep never reads an out-of-slab partner, so it keeps none: in one
    memo shared with the precheck, such keys held most of a large run's
    memory.  A space keeps the slab's vertices and key index but not the slab, so its
    ``_SPACES`` entry goes with the slab.
    """

    def __init__(self, slab: GraphSlab):
        self.anchors = {vertex_key(Vertex(p, identity())): p for p in MODES[slab.mode]}
        self.vertices = slab.vertices
        self.index = slab.key_index
        self.keys = tuple(slab.key_index)  # in slab index order
        self._memo: dict[tuple[tuple, EdgeTypeKey], tuple[tuple, ...]] = {}
        self._sweep: dict[tuple[int, EdgeTypeKey], tuple[int, ...]] = {}
        self._outside: dict[tuple, Vertex] = {}  # points expanded outside the slab

    def vertex_partners(self, v: tuple, key: EdgeTypeKey) -> tuple[tuple, ...]:
        got = self._memo.get((v, key))
        if got is None:
            idx, keys = self.index, self.keys
            i = idx.get(v)
            if i is not None:
                vertex = self.vertices[i]
            else:
                vertex = self._outside.get(v)
                if vertex is None:
                    vertex = self._outside[v] = key_vertex(v)
            got = self._memo[(v, key)] = tuple(
                keys[idx[u]] if u in idx else u for u in partner_keys(vertex, key))
        return got

    def partners(self, i: int, keys) -> list[int]:
        """Sorted slab indices of vertex i's in-slab partners for any of ``keys``."""
        sweep, idx = self._sweep, self.index
        got = set()
        for k in keys:
            part = sweep.get((i, k))
            if part is None:
                full = self._memo.get((self.keys[i], k))
                if full is None:
                    full = partner_keys(self.vertices[i], k)
                part = sweep[(i, k)] = tuple(sorted({idx[u] for u in full if u in idx}))
            got.update(part)
        return sorted(got)

    def known_vertices(self, v: tuple, keys) -> dict[tuple, None]:
        """``v`` (a degenerate side) then its partners for the ordered ``keys``."""
        parts = [self.vertex_partners(v, k) for k in keys if not k.is_degenerate]
        return dict.fromkeys(chain((v,), *parts))

    def abstract_cycle_exists(self, keys, target: EdgeTypeKey, length: int) -> bool:
        """Whether ANY cycle with the wanted side/diagonal types exists.

        Cycle existence is invariant under the left action, so every witness
        translates to one through a fixed anchor of its own vertex type; the
        check runs with no radius bound, hence a negative here proves the slab
        sweep would come up empty and can be skipped.  The anchor (P, e) is
        fixed by P, so p in P maps a cycle (a, x, ...) to a cycle (a, p x,
        ...): the first side point is drawn from the anchor itself and one
        representative per P-orbit of its partners (``anchor_orbit_reps``).
        ``keys`` is an ordered sequence, so the work done does not depend on
        hash order.
        """
        def first(a):
            p = self.anchors[a]
            return dict.fromkeys(chain((a,), *(anchor_orbit_reps(p, k)
                                               for k in keys if not k.is_degenerate)))

        cycles = _cycles(self.anchors, length, lambda v: self.known_vertices(v, keys),
                         lambda v: self.vertex_partners(v, target), first)
        return next(cycles, None) is not None


_SPACES: weakref.WeakKeyDictionary[GraphSlab, _SearchSpace] = weakref.WeakKeyDictionary()


def find_witness(state: ImplicationState, target: EdgeTypeKey,
                 slab: GraphSlab) -> CycleWitness | None:
    """First cycle (4-cycles first, then 5-cycles, lexicographic in slab
    indices) with sides in ``state.known`` and all diagonals in ``target``.

    Returns None when no witness lies in the slab; that is an
    "inconclusive", never a refutation.  Deterministic by search order.
    The precheck and the sweep read the slab's two partner caches, which
    live as long as the slab, so every search on a slab shares them.
    """
    space = _SPACES.get(slab) or _SPACES.setdefault(slab, _SearchSpace(slab))
    newest_first = state.known[::-1]
    for length in (4, 5):
        if not space.abstract_cycle_exists(newest_first, target, length):
            continue
        # a repeated vertex is a degenerate side, always allowed
        cycle = next(_cycles(range(len(slab)), length,
                             lambda i: sorted({i, *space.partners(i, state.known)}),
                             lambda i: space.partners(i, (target,))), None)
        if cycle is not None:
            return CycleWitness(tuple(slab.vertices[i] for i in cycle))
    return None


def closure(targets, has, find):
    """Naive fixpoint evaluation of forced implications.

    Makes passes over ``targets`` in order and calls ``find`` on each target
    that ``has`` rejects; yields ``(target, witness)`` for each non-None
    witness found, and stops after a pass that derives nothing.  The caller
    makes each yielded target known (to ``has`` and to ``find``) before it
    asks for the next, so a target may be derived from one yielded earlier
    in the same pass.
    """
    progress = True
    while progress:
        progress = False
        for target in targets:
            if not has(target):
                witness = find(target)
                if witness is not None:
                    progress = True
                    yield target, witness


def _table_finder(table, has, starts):
    """The ``find`` of ``closure`` over a finite pair table.

    ``table[i][j]`` labels the pair (i, j), and a label is known when
    ``has`` accepts it.  ``find(label)`` is the first cycle of indices that
    begins in ``starts`` (4-cycles before 5-cycles) whose sides are known
    and whose diagonals all carry ``label``, or None.
    """
    rows = range(len(table))

    def find(label):
        return next(chain.from_iterable(
            _cycles(starts, length, lambda i: [j for j in rows if has(table[i][j])],
                    lambda i: [j for j in rows if table[i][j] == label])
            for length in (4, 5)), None)
    return find


def close_orbit(state: ImplicationState, points: list[Vertex]) -> ImplicationState:
    """Exhaust elementary implications whose vertices lie in ``points``.

    Used for dihedral orbits (finitely many vertices) where the claim is
    that the whole orbit becomes a clique; the caller checks that.
    """
    n = len(points)
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):  # pair keys are unordered
            table[i][j] = table[j][i] = pair_key(points[i], points[j])

    def has(key):  # the state as it grows
        return state.has(key)

    labels = list(dict.fromkeys(chain.from_iterable(table)))
    for _, cycle in closure(labels, has, _table_finder(table, has, range(n))):
        state, _ = apply_elementary(state, CycleWitness(tuple(points[i] for i in cycle)))
    return state


# --- abstract dihedral model ------------------------------------------------

DIHEDRAL_CHORD_LABELS = {4: ("2", "3", "3'", "4"), 5: ("2", "3", "3'", "4", "5")}


def _dihedral_tables(m: int):
    """Pair-class table of the 2m-gon orbit of the dihedral group of order 2m.

    Points are group elements (k, f) = (ab)^k a^f in cycle order
    e, a, ab, aba, ...; the class of a pair is {d, d^-1} for d = p_i^-1 p_j,
    which is a complete orbit invariant because the action on the orbit is
    simply transitive.
    """
    def mul(x, y):
        k, f = x
        l, e = y
        return ((k + l) % m if f == 0 else (k - l) % m, (f + e) % 2)

    def inv(x):
        k, f = x
        return ((-k) % m, 0) if f == 0 else x

    points = []
    for j in range(m):
        points.append((j, 0))
        points.append((j, 1))

    def cls(i, j):
        d = mul(inv(points[i]), points[j])
        return min(d, inv(d))

    labels = {cls(0, 0): "0", min((0, 1), (0, 1)): "1a",
              min((m - 1, 1), (m - 1, 1)): "1b",
              min((1, 0), inv((1, 0))): "2", (1, 1): "3", (m - 2, 1): "3'",
              min((2, 0), inv((2, 0))): "4"}
    if m == 5:
        labels[(2, 1)] = "5"
    n = 2 * m
    table = [[labels[cls(i, j)] for j in range(n)] for i in range(n)]
    return table


def dihedral_closure(m: int, seed: str) -> set[str]:
    """Chord classes derivable from the orbit sides plus one seeded chord.

    The 2m-gon orbit of the dihedral group of order 2m has chord classes
    2, 3, 3', 4 (and 5 when m = 5); the closure claim is that any single
    seed forces all of them.
    """
    if m not in DIHEDRAL_CHORD_LABELS:
        raise ValueError("m must be 4 or 5")
    if seed not in DIHEDRAL_CHORD_LABELS[m]:
        raise ValueError(f"invalid seed {seed!r}; chord classes are {DIHEDRAL_CHORD_LABELS[m]}")
    known = {"0", "1a", "1b", seed}
    # the group acts transitively on the orbit, so cycles through point 0
    # carry every implication
    find = _table_finder(_dihedral_tables(m), known.__contains__, (0,))
    for label, _ in closure(DIHEDRAL_CHORD_LABELS[m], known.__contains__, find):
        known.add(label)
    return known.intersection(DIHEDRAL_CHORD_LABELS[m])
