"""The implication calculus: elementary steps, chains, witness search,
dihedral clique closures."""

import gc
import itertools
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import cox245
from cox245.certificates import (
    FAMILIES,
    StringSpec,
    auto_search_d10,
    family_implication,
    parse_key,
    parse_point,
    string_key,
    verify_d8_chain,
    verify_family,
)
from cox245.complexgraph import (
    Vertex,
    build_ball,
    cayley_vertex,
    fix_vertex,
    make_vertex,
    vertex_key,
)
from cox245.coxeter import D4, D8, D10, element_of_word, identity
from cox245.edgetypes import partner_keys, type_key_cayley, type_key_complex
from cox245.implications import (
    CycleWitness,
    DIHEDRAL_CHORD_LABELS,
    DiagonalsNotUniform,
    ImplicationState,
    SideNotKnown,
    _SPACES,
    _SearchSpace,
    _cycles,
    _dihedral_tables,
    _table_finder,
    apply_elementary,
    check_elementary,
    closure,
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


def test_apply_elementary_grows_the_state_and_leaves_its_input_untouched():
    state = ImplicationState.initial([ckey("tr"), ckey("tst"), ckey("rsr"), ckey("tr")])
    assert state.known == (ckey("tr"), ckey("tst"), ckey("rsr"))  # deduplicated
    out, derived = apply_elementary(state, cycle("", "tr", "tsr", "tst"))
    assert derived == ckey("tsr")
    assert out.known == state.known + (derived,)
    again, _ = apply_elementary(out, cycle("", "tr", "tsr", "tst"))
    assert again.known == out.known  # a known type is not appended twice
    with pytest.raises(SideNotKnown):
        apply_elementary(out, cycle("", "ts", "trs", "r"))  # needs CAY:st and CAY:srs
    assert state.known == (ckey("tr"), ckey("tst"), ckey("rsr"))
    assert out.known == state.known + (ckey("tsr"),)


def _replay(state, steps, key_field):
    """Re-derive each report step's type from its witness, in order."""
    for step in steps:
        points = tuple(parse_point(label, "complex") for label in step["witness"])
        state, derived = apply_elementary(state, CycleWitness(points))
        assert derived.serialize() == step[key_field]
    return state


def test_d8_chain_report_replays_from_the_bare_edge_type():
    rep = verify_d8_chain(2, build_ball(fix_vertex(D8), 6, "pentagon-subcomplex"))
    assert rep["status"] == "verified" and len(rep["steps"]) == 8
    state = _replay(ImplicationState.initial([string_key(StringSpec(()))]),
                    rep["steps"], "derived")
    assert len(state.known) == rep["known_count"]


def test_d10_search_report_replays_from_its_seed():
    rep = auto_search_d10(3, 5)
    assert len(rep["derived"]) == 3
    state = _replay(ImplicationState.initial([parse_key(rep["seed"])]), rep["derived"], "key")
    assert len(state.known) == 1 + len(rep["derived"])


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


def test_witness_search_leaves_the_slab_adjacency_unbuilt():
    """The search reads vertices, depths and the key index only: a found and
    an exhausted search both leave ``slab.adj`` unwalked."""
    slab = build_ball(fix_vertex(D8), 3, "pentagon-subcomplex")
    state = ImplicationState.initial([string_key(StringSpec(()))])
    assert find_witness(state, string_key(StringSpec.parse("R")), slab) is not None
    assert find_witness(state, string_key(StringSpec.parse("SSSSSS")), slab) is None
    assert "adj" not in vars(slab)


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


def table_closure(table, known):
    """The (label, cycle) pairs ``closure`` derives over the pair table with
    the table finder through point 0, adding each label to ``known``."""
    labels = list(dict.fromkeys(itertools.chain.from_iterable(table)))
    steps = []
    for label, cycle in closure(labels, known.__contains__,
                                _table_finder(table, known.__contains__, (0,))):
        known.add(label)
        steps.append((label, cycle))
    return steps


def test_closure_matches_signature_oracle_on_every_label_subset():
    for m in (4, 5):
        table = _dihedral_tables(m)
        labels = sorted({x for row in table for x in row})
        assert len(labels) == m + 3
        for size in range(len(labels) + 1):
            for subset in itertools.combinations(labels, size):
                known = set(subset)
                table_closure(table, known)
                assert known == _signature_closure(m, subset), (m, subset)
    # the orbit sides alone force nothing
    for m in (4, 5):
        assert table_closure(_dihedral_tables(m), {"0", "1a", "1b"}) == []


def test_closure_passes_in_target_order_until_a_pass_derives_nothing():
    """b is derivable only once c is known: the first pass derives a and c,
    the second b, and the third, with nothing left to search, ends it."""
    known, calls = set(), []

    def find(target):
        calls.append(target)
        return None if target == "b" and "c" not in known else target.upper()

    got = []
    for target, witness in closure(("a", "b", "c"), known.__contains__, find):
        known.add(target)
        got.append((target, witness))
    assert got == [("a", "A"), ("c", "C"), ("b", "B")]
    assert calls == ["a", "b", "c", "b"]
    # lazy: the first pair costs one search
    calls.clear()
    assert next(closure(("a", "b", "c"), set().__contains__, find)) == ("a", "A")
    assert calls == ["a"]


def pentagon_precheck_cases():
    """The radius-3 pentagon slab and (known keys, target) cases on it."""
    pent = build_ball(fix_vertex(D8), 3, "pentagon-subcomplex")
    base = string_key(StringSpec(()))
    pent_cases = [([base], string_key(StringSpec.parse(t)))
                  for t in ("R", "S", "SS", "RR", "LR", "SSSSSS")]
    pent_cases.append(([base, string_key(StringSpec.parse("R"))], string_key(StringSpec.parse("S"))))
    pent_cases.append(([base], base))  # only degenerate cycles (v, v, u, u) exist
    return pent, pent_cases


def d10_search_cases():
    """The radius-6 d10 slab of ``auto_search_d10`` and cases on it: its
    seed plus its first k candidates known, each of the next five
    candidates the target."""
    center = fix_vertex(D10)
    slab = build_ball(center, 6, "d10-orbit")
    seed = type_key_complex(center, make_vertex(D10, element_of_word("r")))
    depth = {}  # each key's first depth, as the search ranks it
    for v, d in zip(slab.vertices, slab.depth):
        if 0 < d <= 4:
            depth.setdefault(type_key_complex(center, v), d)
    candidates = sorted(depth.keys() - {seed}, key=lambda k: (depth[k], k.serialize()))
    return slab, [([seed, *candidates[:k]], target)
                  for k in (0, 2, 4, 6) for target in candidates[k:k + 5]]


def test_abstract_precheck_never_rules_out_a_slab_cycle():
    pent, pent_cases = pentagon_precheck_cases()
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
            for length in (4, 5):
                if space.abstract_cycle_exists(known[::-1], target, length):
                    continue
                ruled_out += 1
                found = _cycles(range(len(slab)), length,
                                lambda i: sorted({i, *space.partners(i, known)}),
                                lambda i: space.partners(i, (target,)))
                assert next(found, None) is None, (slab.mode, target, length)
    assert ruled_out >= 4


def anchored_cycle_exists(space, keys, target, length):
    """The precheck with every partner of the anchor as a first side point."""
    cycles = _cycles(space.anchors, length, lambda v: space.known_vertices(v, keys),
                     lambda v: space.vertex_partners(v, target))
    return next(cycles, None) is not None


def test_precheck_up_to_the_stabiliser_matches_the_full_anchored_search(monkeypatch):
    """One first side point per orbit of the anchor's stabiliser gives the
    same answer as every anchor partner, for at most half the partner sets."""
    import cox245.implications as implications

    calls = [0]
    inner = implications.partner_keys

    def counted(v, key):
        calls[0] += 1
        return inner(v, key)

    monkeypatch.setattr(implications, "partner_keys", counted)
    outcomes = []
    for slab, cases in (pentagon_precheck_cases(), d10_search_cases()):
        answers, work = [], []
        for precheck in (_SearchSpace.abstract_cycle_exists, anchored_cycle_exists):
            space = _SearchSpace(slab)  # fresh caches for each precheck
            calls[0] = 0
            answers.append([precheck(space, known[::-1], target, length)
                            for known, target in cases for length in (4, 5)])
            work.append(calls[0])
        restricted, full = answers
        assert restricted == full, slab.mode
        assert 0 < 2 * work[0] <= work[1], (slab.mode, work)
        outcomes += full
    assert outcomes.count(True) >= 4 and outcomes.count(False) >= 4, outcomes


def test_second_search_on_a_slab_makes_no_partner_calls(monkeypatch):
    # the precheck and the sweep keep their caches on the slab across calls
    import cox245.implications as implications

    calls = []
    inner = implications.partner_keys

    def counted(v, key):
        calls.append((v, key))
        return inner(v, key)

    monkeypatch.setattr(implications, "partner_keys", counted)
    slab = build_ball(fix_vertex(D8), 3, "pentagon-subcomplex")
    state = ImplicationState.initial([string_key(StringSpec(()))])
    target = string_key(StringSpec.parse("R"))
    first = find_witness(state, target, slab)
    assert first is not None
    assert len(calls) > 0
    calls.clear()
    assert find_witness(state, target, slab) == first
    assert calls == []


def test_memo_partners_are_the_slab_vertices():
    slab = build_ball(fix_vertex(D8), 3, "pentagon-subcomplex")
    base = string_key(StringSpec(()))
    for t in ("R", "S", "SS", "LR"):
        find_witness(ImplicationState.initial([base]), string_key(StringSpec.parse(t)), slab)
    space = _SPACES[slab]
    memo, sweep = space._memo, space._sweep
    keys = tuple(slab.key_index)
    partners = [u for got in memo.values() for u in got]
    inside = [u for u in partners if u in slab.key_index]
    # the precheck's memo holds full partner lists; the sweep keeps slab indices
    assert len(inside) == 65
    assert (len(sweep), sum(map(len, sweep.values()))) == (7, 37)
    assert all(u is keys[slab.key_index[u]] for u in inside)
    # vertices and partners are held as keys, never as peeled vertices
    assert not any(isinstance(x, Vertex) for entry in memo.items() for x in itertools.chain(*entry))
    # the precheck runs with no radius bound, so it also meets outside points
    assert any(u not in slab.key_index for u in partners)
    # neither cache keeps its slab alive
    ref = weakref.ref(slab)
    del slab, space, memo, sweep, keys, partners, inside
    gc.collect()
    assert ref() is None


def test_sweep_cache_is_the_in_slab_partners():
    """Each sweep entry, filled from the precheck's memo or from
    ``partner_keys``, is the sorted slab indices of the in-slab partners."""
    slab = build_ball(fix_vertex(D8), 5, "pentagon-subcomplex")
    searched = {}  # every source and target key, in order
    for family in FAMILIES:
        for n in (1, 2):
            assert verify_family(family, n, slab)["status"] == "verified"
            sources, target = family_implication(family, n)
            searched.update(dict.fromkeys(string_key(s) for s in (*sources, target)))
    space = _SPACES[slab]
    idx = slab.key_index
    assert {k for _, k in space._sweep} == set(searched)
    filled = list(space._sweep)
    for i in range(len(slab)):
        for key in searched:
            want = sorted({idx[u] for u in partner_keys(slab.vertices[i], key) if u in idx})
            assert space.partners(i, (key,)) == want
            assert space._sweep[(i, key)] == tuple(want)
    # both ways of filling an entry ran
    from_memo = [i for i, key in filled if (space.keys[i], key) in space._memo]
    assert 0 < len(from_memo) < len(filled)


def test_sweep_cache_holds_only_slab_indices():
    slab = build_ball(fix_vertex(D8), 3, "pentagon-subcomplex")
    for family in FAMILIES:
        for n in (1, 2):
            verify_family(family, n, slab)
    sweep = _SPACES[slab]._sweep
    assert len(sweep) > 0
    for part in sweep.values():
        assert type(part) is tuple
        assert all(type(j) is int and 0 <= j < len(slab) for j in part)
        assert list(part) == sorted(set(part))


def test_search_work_does_not_depend_on_hash_seed():
    # the abstract precheck stops at its first cycle, so its work depends on
    # the order it explores partners in; that order must not come from sets
    src = str(Path(cox245.__file__).resolve().parents[1])
    code = (
        "import cox245.implications as imp\n"
        "from cox245.certificates import auto_search_d10, verify_pentagon_suite\n"
        "calls = [0]\n"
        "inner = imp.partner_keys\n"
        "def counted(v, key):\n"
        "    calls[0] += 1\n"
        "    return inner(v, key)\n"
        "imp.partner_keys = counted\n"
        "auto_search_d10(10, 4)\n"
        "print(calls[0])\n"
        "verify_pentagon_suite(3, 6)\n"
        "print(calls[0])\n"
    )
    counts = []
    for seed in (1, 2, 3, 4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        counts.append(tuple(map(int, out.stdout.split())))
    assert 0 < counts[0][0] < counts[0][1]
    assert len(set(counts)) == 1, counts


@pytest.mark.parametrize("suite, args, outside", [("verify_pentagon_suite", (3, 6), 13),
                                                  ("auto_search_d10", (10, 4), 0)])
def test_search_peels_only_what_it_expands(monkeypatch, suite, args, outside):
    """The search works on vertex keys: it peels a point (one ``coset_rep``)
    only to ask for its partners, and only when the point lies outside the
    slab, so a partner that is never expanded is never peeled.  The r6
    pentagon precheck expands 13 points outside its slab; the d10 search
    none."""
    import cox245.certificates as certificates
    import cox245.complexgraph as complexgraph
    import cox245.coxeter as coxeter
    import cox245.implications as implications

    slabs = []  # the slab of the search under way
    peeled = []
    expanded = set()  # out-of-slab points whose partners were asked for
    search, peel, partners = certificates.find_witness, coxeter.coset_rep, implications.partner_keys

    def searching(state, target, slab):
        slabs.append(slab)
        try:
            return search(state, target, slab)
        finally:
            slabs.pop()

    def counted(key):
        if slabs:
            peeled.append(key)
        return peel(key)

    def recording(v, key):
        if v not in slabs[-1]:
            expanded.add(vertex_key(v))
        return partners(v, key)
    for p in (D8, D10, D4):  # their words are peeled once per process
        coxeter.parabolic_elements(p)
    monkeypatch.setattr(certificates, "find_witness", searching)
    for module in (coxeter, complexgraph):
        monkeypatch.setattr(module, "coset_rep", counted)
    monkeypatch.setattr(implications, "partner_keys", recording)
    getattr(certificates, suite)(*args)
    assert len(peeled) == len(expanded) == outside
