"""The implication calculus: elementary steps, chains, witness search,
dihedral clique closures."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cox245
from cox245.certificates import StringSpec, string_key
from cox245.complexgraph import build_ball, cayley_vertex, fix_vertex
from cox245.coxeter import D8, D10, element_of_word, identity
from cox245.edgetypes import type_key_cayley, type_key_complex
from cox245.implications import (
    ChainStepError,
    CycleWitness,
    DIHEDRAL_CHORD_LABELS,
    DiagonalsNotUniform,
    ImplicationState,
    SideNotKnown,
    _SearchSpace,
    _abstract_cycle_exists,
    _closure,
    _cycles,
    _dihedral_tables,
    check_elementary,
    close_chain,
    dihedral_closure,
    find_witness,
)


def cv(word):
    return cayley_vertex(element_of_word(word))


def ckey(word):
    return type_key_cayley(identity(), element_of_word(word))


def cycle(*words):
    return CycleWitness(tuple(cv(w) for w in words))


def test_check_elementary_first_listed_step():
    state = ImplicationState.initial([ckey(w) for w in ("tr", "tst", "rsr")])
    derived = check_elementary(state, cycle("", "tr", "tsr", "tst"))
    assert derived == ckey("tsr")


def test_check_elementary_five_cycle_step():
    state = ImplicationState.initial([ckey("trst")])
    derived = check_elementary(state, cycle("", "trst", "trsrst", "tsrt"))
    assert derived == ckey("trsrst")


def test_side_not_known_error():
    state = ImplicationState.initial([ckey("tr")])
    with pytest.raises(SideNotKnown) as err:
        check_elementary(state, cycle("", "tr", "tsr", "tst"))
    assert err.value.index == 1
    assert err.value.key == ckey("rsr")


def test_diagonals_not_uniform_error():
    state = ImplicationState.initial([ckey(w) for w in ("r", "s", "t", "rs", "st", "tr", "rst")])
    with pytest.raises(DiagonalsNotUniform):
        # diagonals carry the distinct types rs and st
        check_elementary(state, cycle("", "r", "rs", "rst"))
    # a 5-cycle whose first four diagonals carry rs; the fifth joins
    # srsr = rsrs to itself, so only a check of every diagonal rejects it
    state = ImplicationState.initial([ckey("rs"), ckey("rsrs")])
    with pytest.raises(DiagonalsNotUniform):
        check_elementary(state, cycle("", "srsr", "rs", "sr", "rsrs"))


def test_degenerate_sides_allowed_and_flagged():
    # a pair (v, v) counts as contained, so this degenerate square passes
    state = ImplicationState.initial([ckey("rs")])
    w = cycle("", "", "rs", "rs")
    assert w.degenerate
    derived = check_elementary(state, w)
    assert derived == ckey("rs")


def test_close_chain_empty_and_monotone():
    state = ImplicationState.initial([ckey("tr"), ckey("tst"), ckey("rsr")])
    assert close_chain(state, []) is not state or state.known == close_chain(state, []).known
    out = close_chain(state, [cycle("", "tr", "tsr", "tst")])
    assert set(state.known) <= set(out.known)
    assert ckey("tsr") in out.known_set
    assert len(out.log) == 1 and not out.log[0].degenerate


def test_close_chain_atomic_failure():
    state = ImplicationState.initial([ckey("tr"), ckey("tst"), ckey("rsr")])
    schedule = [
        cycle("", "tr", "tsr", "tst"),       # fine
        cycle("", "ts", "trs", "r"),         # needs CAY:st and CAY:srs -> fails
    ]
    with pytest.raises(ChainStepError) as err:
        close_chain(state, schedule)
    assert err.value.step == 1
    assert ckey("tsr") not in state.known_set  # input state untouched


def test_log_replays_soundly():
    state = ImplicationState.initial([ckey(w) for w in ("tr", "tst", "rsr", "ts", "srs", "r")])
    out = close_chain(state, [cycle("", "tr", "tsr", "tst"), cycle("", "ts", "trs", "r")])
    # every logged derivation re-verifies against the prefix state
    replay = ImplicationState.initial(state.known)
    for entry in out.log:
        words = [label.split(":", 1)[1] for label in entry.cycle]
        words = ["" if w == "e" else w for w in words]
        derived = check_elementary(replay, cycle(*words))
        assert derived.serialize() == entry.derived
        replay = replay.add(derived, entry)


def test_dihedral_closure_all_seeds():
    for m in (4, 5):
        for seed in DIHEDRAL_CHORD_LABELS[m]:
            assert dihedral_closure(m, seed) == set(DIHEDRAL_CHORD_LABELS[m])


def test_dihedral_closure_rejects_bad_input():
    with pytest.raises(ValueError):
        dihedral_closure(6, "2")
    with pytest.raises(ValueError):
        dihedral_closure(4, "5")
    with pytest.raises(ValueError):
        dihedral_closure(5, "1a")


def test_find_witness_pentagon_face():
    # sides = the bare pentagon edge type; the implied diagonal type is the
    # one-quarter-turn string R, realized by an actual pentagon of the tiling
    slab = build_ball(fix_vertex(D8), 3, "pentagon-subcomplex")
    state = ImplicationState.initial([string_key(StringSpec(()))])
    target = string_key(StringSpec.parse("R"))
    w = find_witness(state, target, slab)
    assert w is not None
    assert len(w.points) == 5 and not w.degenerate
    assert check_elementary(state, w) == target


def test_concrete_orbit_closure_matches_abstract_model():
    # dual route: the abstract 10-gon closure and the calculus run on the
    # concrete Cayley orbit of r under the order-10 dihedral subgroup must
    # tell the same story, chord class by chord class
    from cox245.complexgraph import cayley_vertex
    from cox245.coxeter import D10, parabolic_elements
    from cox245.edgetypes import pair_key
    from cox245.implications import close_orbit

    base = element_of_word("r")
    points = [cayley_vertex(d * base) for d in parabolic_elements(D10)]
    # the 10-cycle neighbors of the orbit point r are s*r and t*r, so the
    # two alternating side types are the pair types of those edges
    side_keys = {pair_key(points[0], cayley_vertex(element_of_word("sr"))),
                 pair_key(points[0], cayley_vertex(element_of_word("tr")))}
    all_keys = {pair_key(u, v) for i, u in enumerate(points) for v in points[i + 1:]}
    chord_keys = all_keys - side_keys
    assert len(chord_keys) == len(DIHEDRAL_CHORD_LABELS[5])  # 2, 3, 3', 4, 5
    for seed in sorted(chord_keys, key=lambda k: k.serialize()):
        state = ImplicationState.initial(sorted(side_keys | {seed},
                                                key=lambda k: k.serialize()))
        closed = close_orbit(state, points)
        assert chord_keys <= closed.known_set  # every chord forced, any seed


def test_find_witness_deterministic_and_bounded():
    slab = build_ball(fix_vertex(D8), 3, "pentagon-subcomplex")
    state = ImplicationState.initial([string_key(StringSpec(()))])
    target = string_key(StringSpec.parse("R"))
    w1 = find_witness(state, target, slab)
    w2 = find_witness(state, target, slab)
    assert w1 == w2
    # a far-away target cannot be witnessed in a tiny ball
    far = string_key(StringSpec.parse("SSSSSS"))
    assert find_witness(state, far, slab) is None


def test_find_witness_matches_naive_lexicographic_scan():
    # oracle: enumerate tuples in plain lexicographic index order over a
    # small ball and take the first valid cycle; the pruned search must
    # return exactly that witness
    slab = build_ball(fix_vertex(D8), 2, "pentagon-subcomplex")
    n = len(slab.vertices)
    from cox245.edgetypes import pair_key

    table = [[pair_key(slab.vertices[i], slab.vertices[j]) for j in range(n)]
             for i in range(n)]

    def brute(state, target):
        known = state.known_set

        def side_ok(i, j):
            k = table[i][j]
            return k.is_degenerate or k in known

        for i0 in range(n):
            for i1 in range(n):
                if not side_ok(i0, i1):
                    continue
                for i2 in range(n):
                    if not side_ok(i1, i2) or table[i0][i2] != target:
                        continue
                    for i3 in range(n):
                        if side_ok(i2, i3) and side_ok(i3, i0) and table[i1][i3] == target:
                            return (i0, i1, i2, i3)
        for i0 in range(n):
            for i1 in range(n):
                if not side_ok(i0, i1):
                    continue
                for i2 in range(n):
                    if not side_ok(i1, i2) or table[i0][i2] != target:
                        continue
                    for i3 in range(n):
                        if not side_ok(i2, i3) or table[i1][i3] != target \
                                or table[i3][i0] != target:
                            continue
                        for i4 in range(n):
                            if side_ok(i3, i4) and side_ok(i4, i0) \
                                    and table[i2][i4] == target and table[i4][i1] == target:
                                return (i0, i1, i2, i3, i4)
        return None

    base = string_key(StringSpec(()))
    for seed_strings, target_string in ((("",), "R"), (("", "R"), "S"), (("R",), "SS")):
        state = ImplicationState.initial(
            [string_key(StringSpec.parse(s)) if s else base for s in seed_strings])
        target = string_key(StringSpec.parse(target_string))
        expect = brute(state, target)
        got = find_witness(state, target, slab)
        if expect is None:
            assert got is None
        else:
            assert got is not None
            assert tuple(slab.index_of(p) for p in got.points) == expect


def _signature_closure(m, known):
    """Reference closure: collect every (sides, diagonal) label signature of
    4- and 5-tuples through point 0 of the dihedral table, then apply them
    until nothing changes."""
    table = _dihedral_tables(m)
    rng = range(2 * m)
    sigs = set()
    for x, y, z in itertools.product(rng, repeat=3):
        d1, d2 = table[0][y], table[x][z]
        if d1 != d2:
            continue
        sigs.add((frozenset((table[0][x], table[x][y], table[y][z], table[z][0])), d1))
        for u in rng:
            if table[y][u] == d1 and table[z][0] == d1 and table[u][x] == d1:
                sides = frozenset((table[0][x], table[x][y], table[y][z], table[z][u], table[u][0]))
                sigs.add((sides, d1))
    known = set(known)
    changed = True
    while changed:
        changed = False
        for sides, diag in sigs:
            if diag not in known and sides <= known:
                known.add(diag)
                changed = True
    return known


def test_closure_matches_signature_oracle_on_every_label_subset():
    for m in (4, 5):
        table = _dihedral_tables(m)
        labels = sorted({x for row in table for x in row})
        assert len(labels) == m + 3
        for size in range(len(labels) + 1):
            for subset in itertools.combinations(labels, size):
                start = set(subset)
                derived = {label for _, label in _closure(table, start.__contains__, (0,))}
                assert start | derived == _signature_closure(m, start), (m, subset)
    # the orbit sides alone force nothing
    for m in (4, 5):
        assert list(_closure(_dihedral_tables(m), {"0", "1a", "1b"}.__contains__, (0,))) == []


def test_abstract_precheck_never_rules_out_a_slab_cycle():
    pent = build_ball(fix_vertex(D8), 3, "pentagon-subcomplex")
    base = string_key(StringSpec(()))
    pent_cases = [([base], string_key(StringSpec.parse(t)))
                  for t in ("R", "S", "SS", "RR", "LR", "SSSSSS")]
    pent_cases.append(([base, string_key(StringSpec.parse("R"))], string_key(StringSpec.parse("S"))))
    pent_cases.append(([base], base))  # only degenerate cycles (v, v, u, u) exist
    center = fix_vertex(D10)
    d10 = build_ball(center, 4, "d10-orbit")
    seed = type_key_complex(center, d10.vertices[d10.depth.index(1)])
    far = list(dict.fromkeys(type_key_complex(center, v)
                             for i, v in enumerate(d10.vertices) if 1 < d10.depth[i] <= 3))
    d10_cases = [([seed], key) for key in far[:6]]
    ruled_out = 0
    for slab, cases in ((pent, pent_cases), (d10, d10_cases)):
        space = _SearchSpace(slab)
        for known, target in cases:
            keys = frozenset(known)
            for length in (4, 5):
                if _abstract_cycle_exists(known[::-1], target, slab.mode, length):
                    continue
                ruled_out += 1
                found = _cycles(range(len(slab)), length,
                                lambda i: space.known_partners(i, keys),
                                lambda i: space.partners(i, target))
                assert next(found, None) is None, (slab.mode, target, length)
    assert ruled_out >= 4


def test_search_work_does_not_depend_on_hash_seed():
    # the abstract precheck stops at its first cycle, so its work depends on
    # the order it explores partners in; that order must not come from sets
    src = str(Path(cox245.__file__).resolve().parents[1])
    code = (
        "import cox245.implications as imp\n"
        "from cox245.certificates import auto_search_d10\n"
        "calls = [0]\n"
        "inner = imp.key_partners\n"
        "def counted(v, key):\n"
        "    calls[0] += 1\n"
        "    return inner(v, key)\n"
        "imp.key_partners = counted\n"
        "auto_search_d10(10, 4)\n"
        "print(calls[0])\n"
    )
    counts = []
    for seed in (1, 2, 3, 4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        counts.append(int(out.stdout.strip()))
    assert counts[0] > 0
    assert len(set(counts)) == 1, counts
