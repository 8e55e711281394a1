"""The concrete certificate suites.

Four independent bundles of finite, mechanically checkable claims:

* the pentagon-tiling string notation (turtle strings over L/S/R traced
  through the right-angled pentagon tiling), the six sequence families
  a..f, the six cycle families that imply one from another, and the chain
  that pumps the straight-segment types d_n to arbitrary length;
* the explicit Cayley-graph implication list that connects the three
  dihedral-orbit cliques, including the 10-gon clique-closure step;
* distance growth of the derived types, measured by BFS in both the
  pentagon subcomplex and the full coset-graph metric;
* an exploratory search seeded at the dual tiling edge (FixD10, r FixD10),
  with no completeness claim.

Families and sequences are indexed as displayed (0-based: a_0 is the empty
string); the chain's stages are numbered from 1, so stage n establishes the
display-index n-1 row of all six sequences.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from functools import cache
from itertools import islice

from .complexgraph import (
    GraphSlab,
    Vertex,
    build_ball,
    fix_vertex,
    graph_distance,
    neighbors,
)
from .coxeter import CAY, D8, D10, PARABOLICS, identity, parabolic_elements, word_coset_rep
from .edgetypes import EdgeTypeKey, pair_key, type_key_cayley, type_key_complex
from .implications import (
    DIHEDRAL_CHORD_LABELS,
    CycleWitness,
    DiagonalsNotUniform,
    ImplicationState,
    SideNotKnown,
    apply_elementary,
    close_orbit,
    closure,
    dihedral_closure,
    find_witness,
)

__all__ = [
    "TURN_LETTERS",
    "StringSpec",
    "PathTrace",
    "trace_path",
    "string_key",
    "FAMILIES",
    "family_string",
    "family_implication",
    "verify_family",
    "verify_d8_chain",
    "verify_pentagon_suite",
    "verify_connecting_list",
    "verify_dihedral_suite",
    "auto_search_d10",
    "CONNECTING_SEED_WORDS",
    "CONNECTING_FINAL_WORDS",
    "parse_key",
    "parse_point",
]

TURN_LETTERS = "LSR"
_TURN_DELTA = {"L": 1, "S": 2, "R": 3}


class StringSpec(namedtuple("StringSpec", "letters")):
    """A turtle string over {L, S, R}, the tuple ``letters``: quarter, half
    and three-quarter clockwise turns at successive vertices of the pentagon
    tiling."""

    __slots__ = ()

    @classmethod
    def parse(cls, text: str) -> "StringSpec":
        letters = tuple(text.upper())
        for ch in letters:
            if ch not in TURN_LETTERS:
                raise ValueError(f"bad turn letter {ch!r}; alphabet is L, S, R")
        return cls(letters)

    def __str__(self):
        return "".join(self.letters) or "eps"


class PathTrace(namedtuple("PathTrace", "vertices key")):
    """A traced string: its ``vertices`` from the base edge on, and the
    ``EdgeTypeKey`` ``key`` of (start, end)."""

    __slots__ = ()


def _word_vertex(parabolic, word: str) -> Vertex:
    """The coset g*P of the element g of ``word``, P = ``parabolic``."""
    return Vertex(parabolic, word_coset_rep(word, parabolic))


_BASE_EDGE = (fix_vertex(D8), _word_vertex(D8, "t"))


def _trace_vertices(spec: StringSpec) -> tuple[Vertex, ...]:
    path = [_BASE_EDGE[0], _BASE_EDGE[1]]
    for letter in spec.letters:
        cur, prev = path[-1], path[-2]
        nbrs = neighbors(cur, "pentagon-subcomplex")
        p_in = nbrs.index(prev)
        path.append(nbrs[(p_in + _TURN_DELTA[letter]) % 4])
    return tuple(path)


def trace_path(spec: StringSpec) -> PathTrace:
    """Trace the string from the base edge; its type is the key of
    (start, end)."""
    path = _trace_vertices(spec)
    return PathTrace(path, type_key_complex(path[0], path[-1]))


@cache
def string_key(spec: StringSpec) -> EdgeTypeKey:
    return trace_path(spec).key


# --- the sequence families -------------------------------------------------

def family_string(series: str, n: int) -> StringSpec:
    """The n-th string of sequence a..f, 0-based as displayed; initial terms
    not covered by the closed form are listed verbatim."""
    if series not in "abcdef":
        raise ValueError(f"unknown series {series!r}")
    if n < 0:
        raise IndexError(f"{series}_{n} is undefined (negative index)")
    S, R = "S", "R"
    if series == "a":
        text = "" if n == 0 else S * n + R + S * (n - 1)
    elif series == "b":
        text = R if n == 0 else S * n + "RL" + S * (n - 1)
    elif series == "c":
        text = S * n + R + S * n
    elif series == "d":
        text = S * (2 * n + 1)
    elif series == "e":
        text = ("", R, "RLR")[n] if n <= 2 else S * (n - 2) + "RLR" + S * (n - 2)
    else:  # f
        text = "" if n == 0 else S * (n - 1) + "RL" + S * (n - 1)
    return StringSpec.parse(text)


FAMILIES = ("Pent", "Sq", "Rect", "TrapA", "TrapB", "TrapC")


def family_implication(family: str, n: int):
    """(source strings, target string) of the n-th cycle of the family."""
    if family == "Pent":
        return (family_string("a", n),), family_string("b", n)
    if family == "Sq":
        return (family_string("c", n),), family_string("d", n)
    if family == "Rect":
        return (family_string("d", n), family_string("e", n + 1)), family_string("f", n + 1)
    if family == "TrapA":
        return (family_string("e", n), family_string("a", n), family_string("c", n)), \
            family_string("e", n + 1)
    if family == "TrapB":
        return (family_string("e", n), family_string("f", n + 1), family_string("c", n)), \
            family_string("a", n + 1)
    if family == "TrapC":
        return (family_string("c", n), family_string("b", n + 1), family_string("e", n + 1)), \
            family_string("c", n + 1)
    raise ValueError(f"unknown family {family!r}")


def _family_keys(family: str, n: int):
    """(sources, target, source keys, target key) of the family's n-th cycle."""
    sources, target = family_implication(family, n)
    return sources, target, [string_key(s) for s in sources], string_key(target)


def verify_family(family: str, n: int, slab: GraphSlab) -> dict:
    """Locate a cycle realizing the family's implication at index n >= 1.

    The witness must use sides from the stated source strings only; failure
    to find one inside the slab is reported as inconclusive, never false.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        raise ValueError("family verification starts at n = 1")
    sources, target, source_keys, target_key = _family_keys(family, n)
    witness = find_witness(ImplicationState.initial(source_keys), target_key, slab)
    step = {
        "family": family,
        "n": n,
        "sources": [str(s) for s in sources],
        "source_keys": [k.serialize() for k in source_keys],
        "target": str(target),
        "target_key": target_key.serialize(),
        "status": "verified" if witness is not None else "inconclusive",
    }
    if witness is not None:
        step["witness"] = list(witness.labels())
        step["witness_degenerate"] = witness.degenerate
    else:
        step["note"] = f"no witness within radius {slab.radius}; not a refutation"
    return step


def _chain_schedule(max_n: int):
    """Stage schedule of the pumping chain, as (stage, family, display index)."""
    out = [(1, "Pent", 0), (1, "Sq", 0)]
    for stage in range(2, max_n + 1):
        k = stage - 2
        out.extend([
            (stage, "TrapA", k),
            (stage, "Rect", k),
            (stage, "TrapB", k),
            (stage, "Pent", k + 1),
            (stage, "TrapC", k),
            (stage, "Sq", k + 1),
        ])
    return out


_METRICS = ("pentagon-subcomplex", "full-Y")


def verify_d8_chain(max_n: int, slab: GraphSlab) -> dict:
    """Replay the chain from the bare pentagon edge type up to stage max_n.

    After stage n the keys of a..f at display index n-1 must all be known;
    the straight-segment type of stage n is d at display index n-1, whose
    endpoint distances in both ``_METRICS`` are exact BFS integers; the
    audit asks them to strictly increase with the stage.
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    state = ImplicationState.initial([string_key(StringSpec(()))])
    steps = []
    status = "verified"
    for stage, family, k in _chain_schedule(max_n):
        _, _, source_keys, target_key = _family_keys(family, k)
        missing = [key.serialize() for key in source_keys if not state.has(key)]
        if missing:
            status = "failed"
            steps.append({"stage": stage, "family": family, "k": k,
                          "status": "failed",
                          "note": f"bookkeeping violated; sources not yet derived: {missing}"})
            break
        witness = find_witness(ImplicationState.initial(source_keys), target_key, slab)
        if witness is None:
            status = "inconclusive"
            steps.append({"stage": stage, "family": family, "k": k,
                          "status": "inconclusive",
                          "note": f"no witness within radius {slab.radius}"})
            break
        state, derived = apply_elementary(state, witness)
        steps.append({"stage": stage, "family": family, "k": k,
                      "status": "verified",
                      "derived": derived.serialize(),
                      "witness": list(witness.labels())})
    stage_rows = []
    if status == "verified":
        for stage in range(1, max_n + 1):
            row = {s: str(family_string(s, stage - 1)) for s in "abcdef"}
            present = all(state.has(string_key(family_string(s, stage - 1))) for s in "abcdef")
            if not present:
                status = "failed"
            stage_rows.append({"stage": stage, "strings": row, "all_present": present})
    distances = []
    for stage in range(1, max_n + 1):
        spec = family_string("d", stage - 1)
        path = _trace_vertices(spec)
        distances.append({"stage": stage, "d_string": str(spec),
                          **{m: graph_distance(path[0], path[-1], m) for m in _METRICS}})
    increasing = {m: all(a[m] < b[m] for a, b in zip(distances, distances[1:]))
                  for m in _METRICS}
    return {
        "suite": "d8-chain",
        "status": status,
        "max_n": max_n,
        "steps": steps,
        "stages": stage_rows,
        "distances": distances,
        "distances_strictly_increasing": increasing,
        "known_count": len(state.known),
    }


def verify_pentagon_suite(max_n: int, radius: int) -> dict:
    """Families at 1..max_n plus the chain plus the distance audit, all
    searched in one ball whose two partner caches every search shares.  A
    failed step fails the suite; else an inconclusive one leaves it
    inconclusive; else the audit decides."""
    slab = build_ball(fix_vertex(D8), radius, "pentagon-subcomplex")
    family_steps = [verify_family(family, n, slab)
                    for family in FAMILIES for n in range(1, max_n + 1)]
    chain = verify_d8_chain(max_n, slab)
    states = [s["status"] for s in family_steps] + [chain["status"]]
    if "failed" in states:
        status = "failed"
    elif "inconclusive" in states:
        status = "inconclusive"
    else:
        status = "verified" if all(chain["distances_strictly_increasing"].values()) else "failed"
    return {
        "suite": "pentagon",
        "status": status,
        "max_n": max_n,
        "radius": radius,
        "slab_size": len(slab),
        "steps": family_steps,
        "chain": chain,
    }


# --- the connecting-cliques Cayley certificate -----------------------------

CONNECTING_SEED_WORDS = (
    # within-orbit edge types of the three dihedral-orbit cliques, exactly
    # the side types the listed cycles consume (see the mechanical scan in
    # the report); "stst" is the one subgroup element the shorter folklore
    # list misses, used by the rtsts step
    "tr", "tst", "rsr", "ts", "r", "rs", "tstst", "stst", "t", "srs", "sts", "srsr", "s",
)

CONNECTING_FINAL_WORDS = (
    "tsr", "trs", "trsr", "trst", "trsrst", "rtstsr", "tsrst", "trsrs", "tsrs",
    "rtsts", "rtststr", "rtstst", "rsts", "rstst", "strs", "srsts", "strst",
    "srstst", "strsts", "srststs", "rsrsts", "rstrs", "rstrst", "rsrstst",
    "rstsr", "rstrsts", "rstrstst",
)


def _cayley_key(word: str) -> EdgeTypeKey:
    return type_key_cayley(identity(), word_coset_rep(word, CAY))


def parse_key(text: str) -> EdgeTypeKey:
    """Parse a serialized key, canonicalizing the word through the engine
    (so hand-written labels remain usable even when not ShortLex-least)."""
    parts = text.split(":")
    if parts[0] == "CAY" and len(parts) == 2:
        return _cayley_key(parts[1])
    if parts[0] == "CPLX" and len(parts) == 4 and {parts[1], parts[2]} <= PARABOLICS.keys():
        p, q, w = parts[1], parts[2], parts[3]
        return type_key_complex(fix_vertex(PARABOLICS[p]), _word_vertex(PARABOLICS[q], w))
    raise ValueError(f"bad key serialization {text!r}")


_BUILTIN_LIST = os.path.join(os.path.dirname(__file__), "data", "cayley_certificates.jsonl")


def _numbered_lines(path: str | None) -> list[tuple[int, dict]]:
    """(file line number, object) for each nonblank line; lines count from
    1, blank ones included."""
    with open(_BUILTIN_LIST if path is None else path, "r", encoding="utf-8") as fh:
        text = fh.read()
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        try:
            line = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: bad JSON: {exc.msg} at column {exc.colno}") from None
        if not isinstance(line, dict):
            raise ValueError(f"line {lineno}: expected a JSON object, got {type(line).__name__}")
        out.append((lineno, line))
    return out


def _checked_mode(mode: str) -> str:
    if mode not in ("cayley", "complex"):
        raise ValueError(f"bad mode {mode!r}; write cayley or complex")
    return mode


def parse_point(text: str, mode: str) -> Vertex:
    """A cycle vertex from certificate text: a plain word in cayley mode,
    "P:word" (P one of D8/D10/D4, 'e' or empty for the identity) in complex
    mode."""
    if _checked_mode(mode) == "cayley":
        return _word_vertex(CAY, "" if text == "e" else text)
    parab, _, word = text.partition(":")
    if parab not in PARABOLICS:
        raise ValueError(f"bad point {text!r}; write P:word with P one of D8, D10, D4")
    return _word_vertex(PARABOLICS[parab], "" if word == "e" else word)


def _field(name: str, value, kind: type):
    """The value of a line's field ``name``, which must be a string (``kind``
    str) or an array of strings (``kind`` list)."""
    if not (isinstance(value, kind) and (kind is str or all(isinstance(x, str) for x in value))):
        what = "a string" if kind is str else "an array of strings"
        raise ValueError(f"field {name!r} must be {what}, not {json.dumps(value)}")
    return value


def _orbit_points(line) -> list[Vertex]:
    """The Cayley orbit named by an orbit-clique line: its base point under
    the dihedral parabolic spanned by its two generators."""
    gens = _field("orbit_generators", line["orbit_generators"], list)
    parab = next((p for p in PARABOLICS.values() if set(p.gens) == set(gens)), None)
    if parab is None:
        raise ValueError(f"orbit generators {gens} span no dihedral parabolic subgroup")
    base = _field("orbit_base", line["orbit_base"], str)
    return [_word_vertex(CAY, d.canonical_word() + base) for d in parabolic_elements(parab)]


def _parse_line(lineno: int, line: dict):
    """(rule, points, pair keys, types) of one certificate line; any error
    is re-raised as a ValueError that names the line.

    Every rule reads ``mode``, which must be cayley or complex, and cayley
    on an orbit-clique line.  ``target`` and ``orbit_base`` are strings, and
    the other fields read are arrays of strings (``_field``).  The pair keys
    are the cycle's sides in order, or the orbit's pairs i < j (none for
    ``assume``); the types are the target then the listed sources, the
    ``expect`` keys, or the assumed keys.
    """
    try:
        rule = line.get("rule", "implication")
        mode = _checked_mode(line.get("mode", "cayley"))
        if rule == "implication":
            cycle = _field("cycle", line["cycle"], list)
            pts = CycleWitness(tuple(parse_point(w, mode) for w in cycle)).points
            pairs = [pair_key(u, v) for u, v in zip(pts, pts[1:] + pts[:1])]
            types = [parse_key(t) for t in (_field("target", line["target"], str),
                                            *_field("sources", line["sources"], list))]
        elif rule == "orbit-clique":
            if mode != "cayley":
                raise ValueError(f"mode {mode!r} on an orbit-clique line, whose points are "
                                 "Cayley elements; write cayley")
            pts = _orbit_points(line)
            pairs = [pair_key(u, v) for i, u in enumerate(pts) for v in pts[i + 1:]]
            types = [parse_key(t) for t in _field("expect", line.get("expect", []), list)]
        elif rule == "assume":
            pts, pairs = (), []
            types = [parse_key(t) for t in _field("keys", line["keys"], list)]
        else:
            raise ValueError(f"unknown certificate rule {rule!r}")
    except KeyError as exc:
        raise ValueError(f"line {lineno}: missing field {exc}") from None
    except (ArithmeticError, AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    return rule, pts, pairs, types


def verify_connecting_list(path: str | None = None) -> dict:
    """Replay the whole connecting-cliques implication list in order.

    The state starts from the within-orbit edge types of the three dihedral
    orbits (the clique hypotheses); every step must check against the state
    as built so far, so a wrong order fails loudly.  The 10-gon
    clique-closure step runs the orbit closure and requires the whole orbit
    to become pairwise contained.  An ``assume`` line that adds a type
    caps the status at "inconclusive": it is never "verified".

    Each line is parsed once, by ``_parse_line``, also past a failed step,
    where the replay has stopped recording but the minimal-seed scan reads
    on.  The verdict keys its cycles itself (``apply_elementary`` the sides
    and diagonals, ``close_orbit`` the orbit); the parse's keys feed the
    scan, the sides outside a step's listed sources and the clique check.
    """
    state = ImplicationState.initial(_cayley_key(w) for w in CONNECTING_SEED_WORDS)
    seed = [k.serialize() for k in state.known]
    steps = []
    status = "verified"
    last_derived = None
    # the minimal-seed scan: side types the cycles consume before deriving
    # them, the mechanical version of the ambient-clique hypothesis
    scanned: set[EdgeTypeKey] = set()
    needed: dict[EdgeTypeKey, None] = {}
    for idx, (lineno, line) in enumerate(_numbered_lines(path)):
        rule, points, pairs, types = _parse_line(lineno, line)
        if rule == "implication":
            for k in pairs:
                if not (k.is_degenerate or k in scanned):
                    needed[k] = None
            scanned.add(types[0])
        else:
            scanned.update(pairs)
        if status == "failed":
            continue
        error = None
        if rule == "implication":
            expected, *listed = types
            record = {"index": idx, "rule": rule, "cycle": line["cycle"],
                      "target": line["target"], "expected": expected.serialize()}
            try:
                state, derived = apply_elementary(state, CycleWitness(points))
            except (SideNotKnown, DiagonalsNotUniform) as exc:
                error = str(exc)
            else:
                record["derived"] = derived.serialize()
                if derived != expected:
                    error = "derived type differs from the listed target"
                else:
                    stray = sorted({k.serialize() for k in pairs
                                    if not k.is_degenerate and k not in listed})
                    if stray:
                        record["sides_not_in_listed_sources"] = stray
                    last_derived = derived
        elif rule == "orbit-clique":
            record = {"index": idx, "rule": rule, "orbit": [p.label() for p in points]}
            before = len(state.known)
            state = close_orbit(state, points)
            missing = sorted({k.serialize() for k in pairs if not state.has(k)})
            expect_missing = [t for t, k in zip(line.get("expect", ()), types)
                              if not state.has(k)]
            if missing or expect_missing:
                error = f"orbit not closed to a clique; missing {missing or expect_missing}"
            else:
                record["derived"] = sorted(k.serialize() for k in state.known[before:])
        else:
            # external files may declare their own hypothesis types
            before = len(state.known)
            state = state.add(types)
            record = {"index": idx, "rule": rule,
                      "keys": [k.serialize() for k in state.known[before:]]}
        if error is None:
            record["status"] = "verified"
        else:
            record["status"] = "failed"
            record["error"] = error
            status = "failed"
        steps.append(record)
    final_missing = []
    if status == "verified":
        final_missing = [w for w in CONNECTING_FINAL_WORDS if not state.has(_cayley_key(w))]
        if final_missing:
            status = "failed"
        # the list must terminate by deriving the type of (e, rstrstst);
        # its canonical serialization is CAY:rsrststs
        if last_derived is None or last_derived != _cayley_key("rstrstst"):
            status = "failed"
    # a list that assumed any type proves nothing beyond its assumptions
    if status == "verified" and any(s["rule"] == "assume" and s["keys"] for s in steps):
        status = "inconclusive"
    return {
        "suite": "cayley-certs",
        "status": status,
        "steps": steps,
        "seed": seed,
        "minimal_seed_scan": [k.serialize() for k in needed],
        "final_missing": final_missing,
        "last_derived": last_derived.serialize() if last_derived else None,
        "known_count": len(state.known),
    }


def verify_dihedral_suite(order: int) -> dict:
    """Closure from every single chord seed must reach all chord classes;
    ``order`` is the rotation order, 4 or 5."""
    if order not in DIHEDRAL_CHORD_LABELS:
        raise ValueError("order must be 4 or 5")
    labels = DIHEDRAL_CHORD_LABELS[order]
    steps = []
    ok = True
    for seed in labels:
        got = dihedral_closure(order, seed)
        complete = got == set(labels)
        ok = ok and complete
        steps.append({"seed": seed, "closure": sorted(got), "complete": complete})
    return {
        "suite": f"dihedral-{order}",
        "status": "verified" if ok else "failed",
        "chord_classes": list(labels),
        "steps": steps,
    }


# --- exploratory search from the dual-tiling seed ---------------------------

def auto_search_d10(max_depth: int, radius: int) -> dict:
    """Implication closure from the edge (FixD10, r FixD10).

    The candidates are the types of the center's pairs with endpoints at
    depth at most max(2, radius - 2) in the ball, ordered by depth then by
    serialized key.  ``closure`` makes passes over them in that order, each
    derived type known before the next search, and the search ends after
    ``max_depth`` derivations or after a pass that derives nothing.
    Exploratory only: the report carries what was derived and the largest
    endpoint distance reached.  No completeness claim is made and the
    status is always "inconclusive".

    An endpoint's distance is its candidate's depth in the ball, with no
    BFS of its own: the ball is BFS-complete up to ``radius``, beyond every
    candidate, and the distance of a pair depends only on its type.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be nonnegative")
    center = fix_vertex(D10)
    slab = build_ball(center, radius, "d10-orbit")
    seed = type_key_complex(center, _word_vertex(D10, "r"))
    state = ImplicationState.initial([seed])
    cap = max(2, radius - 2)
    candidates: list[tuple[int, EdgeTypeKey]] = []
    seen = {seed}
    for i, v in enumerate(slab.vertices):
        if slab.depth[i] == 0 or slab.depth[i] > cap:
            continue
        k = type_key_complex(center, v)
        if k not in seen:
            seen.add(k)
            candidates.append((slab.depth[i], k))
    candidates.sort(key=lambda t: (t[0], t[1].serialize()))
    derived = []
    steps = closure(candidates, lambda c: state.has(c[1]),
                    lambda c: find_witness(state, c[1], slab))
    for (depth, _), witness in islice(steps, max_depth):
        state, got = apply_elementary(state, witness)
        derived.append({"key": got.serialize(), "endpoint_distance": depth,
                        "witness": list(witness.labels())})
    return {
        "suite": "d10-search",
        "status": "inconclusive",
        "note": "exploratory search; the omitted dual-seed result is not desk-checkable here",
        "seed": seed.serialize(),
        "max_depth": max_depth,
        "radius": radius,
        "candidate_distance_cap": cap,
        "steps": derived,
        "derived": derived,
        "max_endpoint_distance": max((d["endpoint_distance"] for d in derived), default=1),
    }
