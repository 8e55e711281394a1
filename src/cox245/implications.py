"""The inference rules of the certificate calculus.

An edge type E is *elementarily implied* from a set of types by a 4- or
5-cycle whose sides all carry known types and whose diagonals all carry the
single type E (two diagonals for a 4-cycle, five for a 5-cycle; no
weakening to "some diagonal").  A *chain implication* applies elementary
steps in sequence, each enlarging the known set.

Cycle vertices are hypothetical: they need not be adjacent in any graph,
and repeats are permitted (a pair (v, v) counts as contained), though any
witness using them is flagged as degenerate in the log.

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
* ``close_orbit`` and ``dihedral_closure`` run it over the pair table of a
  finite orbit until no new type is forced; the latter is how the
  diagonal-implies-clique closures of the 8-gon and 10-gon are checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .complexgraph import MODES, GraphSlab, Vertex
from .coxeter import identity
from .edgetypes import EdgeTypeKey, key_partners, pair_key

__all__ = [
    "SideNotKnown",
    "DiagonalsNotUniform",
    "ChainStepError",
    "CycleWitness",
    "LogEntry",
    "ImplicationState",
    "check_elementary",
    "close_chain",
    "find_witness",
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


class ChainStepError(ValueError):
    def __init__(self, step: int, cause: Exception):
        self.step = step
        self.cause = cause
        super().__init__(f"chain step {step} failed: {cause}")


@dataclass(frozen=True)
class CycleWitness:
    """A 4- or 5-cycle of vertices with the type its diagonals should carry."""

    points: tuple[Vertex, ...]
    claimed_target: EdgeTypeKey | None = None

    def __post_init__(self):
        if len(self.points) not in (4, 5):
            raise ValueError("a cycle witness has exactly 4 or 5 vertices")

    @property
    def degenerate(self) -> bool:
        return len(set(self.points)) < len(self.points)

    def labels(self) -> tuple[str, ...]:
        return tuple(p.label() for p in self.points)


@dataclass(frozen=True)
class LogEntry:
    cycle: tuple[str, ...]
    derived: str
    degenerate: bool
    note: str = ""


@dataclass(frozen=True)
class ImplicationState:
    """Immutable set of known edge types plus the derivation log."""

    known: tuple[EdgeTypeKey, ...]
    log: tuple[LogEntry, ...] = ()

    @classmethod
    def initial(cls, keys) -> "ImplicationState":
        ordered = []
        for k in keys:
            if k not in ordered:
                ordered.append(k)
        return cls(tuple(ordered))

    @cached_property
    def known_set(self) -> frozenset[EdgeTypeKey]:
        return frozenset(self.known)

    def has(self, key: EdgeTypeKey) -> bool:
        return key.is_degenerate or key in self.known_set

    def add(self, key: EdgeTypeKey, entry: LogEntry) -> "ImplicationState":
        known = self.known if key in self.known_set else self.known + (key,)
        return ImplicationState(known, self.log + (entry,))


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


def apply_elementary(state: ImplicationState, cycle: CycleWitness,
                     note: str = "") -> tuple[ImplicationState, EdgeTypeKey]:
    derived = check_elementary(state, cycle)
    entry = LogEntry(cycle.labels(), derived.serialize(), cycle.degenerate, note)
    return state.add(derived, entry), derived


def close_chain(state: ImplicationState, cycles) -> ImplicationState:
    """Apply the cycles in order, growing the known set; atomic on failure
    (the input state is never touched, errors carry the failing step)."""
    current = state
    for step, cycle in enumerate(cycles):
        try:
            current, _ = apply_elementary(current, cycle)
        except (SideNotKnown, DiagonalsNotUniform) as exc:
            raise ChainStepError(step, exc) from exc
    return current


# --- witness search --------------------------------------------------------

def _cycles(starts, length, known, target):
    """Every ``length``-cycle whose sides are known and whose diagonals are
    all target pairs, in the order of ``starts`` and of the ``known`` lists.

    ``known(p)`` lists the points that may follow p along a side (p itself
    included where a degenerate side is allowed); ``target(p)`` holds the
    points forming a target pair with p.  Points are placed in order: each
    one follows its predecessor, pairs with every earlier point it shares a
    diagonal with, and the last one closes back onto the first.
    """
    tails = [[min(d) for d in _DIAGONALS[length] if max(d) == pos]
             for pos in range(length)]
    for p0 in starts:
        t0 = set(target(p0))
        if t0:
            yield from _extend([p0], [t0], set(known(p0)), tails, known, target)


def _extend(path, tsets, close, tails, known, target):
    """The cycles of ``_cycles`` that begin with ``path``.

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
    for p in known(path[-1]):
        for s in need:
            if p not in s:
                break
        else:
            if last:
                yield (*path, p)
            else:
                yield from _extend(path + [p], tsets, close, tails, known, target)
                del tsets[pos:]


class _SearchSpace:
    """Partner-set machinery over one slab, memoised across queries."""

    def __init__(self, slab: GraphSlab):
        self.slab = slab
        self._partners: dict[tuple[int, EdgeTypeKey], tuple[int, ...]] = {}
        self._known: dict[tuple[int, frozenset], tuple[int, ...]] = {}

    def partners(self, i: int, key: EdgeTypeKey) -> tuple[int, ...]:
        memo_key = (i, key)
        got = self._partners.get(memo_key)
        if got is None:
            idx = self.slab.index
            hits = {idx.get(cand) for cand in key_partners(self.slab.vertices[i], key)}
            hits.discard(None)
            got = tuple(sorted(hits))
            self._partners[memo_key] = got
        return got

    def known_partners(self, i: int, keys: frozenset[EdgeTypeKey]) -> tuple[int, ...]:
        memo_key = (i, keys)
        got = self._known.get(memo_key)
        if got is None:
            hits = {i}  # a repeated vertex is a degenerate side, always allowed
            for k in keys:
                if not k.is_degenerate:
                    hits.update(self.partners(i, k))
            got = tuple(sorted(hits))
            self._known[memo_key] = got
        return got


def _abstract_cycle_exists(keys, target: EdgeTypeKey, mode: str, length: int) -> bool:
    """Whether ANY cycle with the wanted side/diagonal types exists.

    Cycle existence is invariant under the left action, so every witness
    translates to one through a fixed anchor of its own vertex type; the
    check runs with no radius bound, hence a negative here proves the slab
    sweep would come up empty and can be skipped.  ``keys`` is an ordered
    sequence, so the work done does not depend on hash order.
    """
    partners: dict[tuple[Vertex, EdgeTypeKey], list[Vertex]] = {}
    sides: dict[Vertex, list[Vertex]] = {}

    def key_partners_of(v, key):
        got = partners.get((v, key))
        if got is None:
            got = partners[(v, key)] = key_partners(v, key)
        return got

    def known(v):
        got = sides.get(v)
        if got is None:
            got = [v]  # a repeated vertex is a degenerate side, always allowed
            for k in keys:
                if not k.is_degenerate:
                    got.extend(key_partners_of(v, k))
            got = sides[v] = list(dict.fromkeys(got))
        return got

    anchors = [Vertex(p, identity()) for p in MODES[mode]]
    cycles = _cycles(anchors, length, known,
                     lambda v: key_partners_of(v, target))
    return next(cycles, None) is not None


def find_witness(state: ImplicationState, target: EdgeTypeKey, slab: GraphSlab,
                 space: _SearchSpace | None = None) -> CycleWitness | None:
    """First cycle (4-cycles first, then 5-cycles, lexicographic in slab
    indices) with sides in ``state.known`` and all diagonals in ``target``.

    Returns None when no witness lies in the slab; that is an
    "inconclusive", never a refutation.  Deterministic by search order.
    Pass a shared ``space`` of the same slab to reuse partner sets across
    calls.
    """
    if space is None:
        space = _SearchSpace(slab)
    keys = state.known_set
    newest_first = state.known[::-1]
    for length in (4, 5):
        if not _abstract_cycle_exists(newest_first, target, slab.mode, length):
            continue
        cycle = next(_cycles(range(len(slab)), length,
                             lambda i: space.known_partners(i, keys),
                             lambda i: space.partners(i, target)), None)
        if cycle is not None:
            return CycleWitness(tuple(slab.vertices[i] for i in cycle), target)
    return None


def _closure(table, has, starts):
    """Derive labels of a finite pair table to a fixpoint.

    ``table[i][j]`` labels the pair (i, j); a label is known initially when
    ``has`` accepts it.  Yields (cycle, label) for each label forced by a
    cycle of indices that begins in ``starts`` (4-cycles before 5-cycles),
    and treats it as known from then on.
    """
    rows = range(len(table))
    labels = list(dict.fromkeys(x for row in table for x in row))
    known = {x for x in labels if has(x)}
    progress = True
    while progress:
        progress = False
        for label in labels:
            if label in known:
                continue
            for length in (4, 5):
                cycle = next(_cycles(starts, length,
                                     lambda i: [j for j in rows if table[i][j] in known],
                                     lambda i: [j for j in rows if table[i][j] == label]),
                             None)
                if cycle is not None:
                    known.add(label)
                    progress = True
                    yield cycle, label
                    break


def close_orbit(state: ImplicationState, points: list[Vertex],
                note: str = "") -> ImplicationState:
    """Exhaust elementary implications whose vertices lie in ``points``.

    Used for dihedral orbits (finitely many vertices) where the claim is
    that the whole orbit becomes a clique; the caller checks that.
    """
    table = [[pair_key(u, v) for v in points] for u in points]
    for cycle, label in _closure(table, state.has, range(len(points))):
        witness = CycleWitness(tuple(points[i] for i in cycle), label)
        state, _ = apply_elementary(state, witness, note)
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
    seeds = {"0", "1a", "1b", seed}
    # the group acts transitively on the orbit, so cycles through point 0
    # carry every implication
    derived = {label for _, label in _closure(_dihedral_tables(m), seeds.__contains__, (0,))}
    return (seeds | derived) & set(DIHEDRAL_CHORD_LABELS[m])
