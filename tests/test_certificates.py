"""Certificate suites: string families, the chain, the Cayley list."""

import hashlib
import json

import pytest

import cox245.certificates as certificates
import cox245.implications as implications
from cox245.certificates import (
    CONNECTING_FINAL_WORDS,
    CONNECTING_SEED_WORDS,
    FAMILIES,
    StringSpec,
    auto_search_d10,
    family_implication,
    family_string,
    parse_key,
    string_key,
    trace_path,
    verify_connecting_list,
    verify_d8_chain,
    verify_dihedral_suite,
    verify_family,
    verify_pentagon_suite,
)
from cox245.complexgraph import build_ball, fix_vertex, graph_distance, make_vertex
from cox245.coxeter import D8, D10, element_of_word, identity
from cox245.edgetypes import type_key_cayley
from certificate_lines import builtin_lines


def ckey(word):
    return type_key_cayley(identity(), element_of_word(word))


def test_family_string_displays():
    assert str(family_string("d", 1)) == "SSS"
    assert str(family_string("a", 0)) == "eps"
    assert str(family_string("c", 1)) == "SRS"
    assert str(family_string("a", 1)) == "SR"
    assert str(family_string("b", 0)) == "R"
    assert str(family_string("b", 2)) == "SSRLS"
    assert str(family_string("c", 0)) == "R"
    assert str(family_string("d", 0)) == "S"
    assert str(family_string("e", 0)) == "eps"
    assert str(family_string("e", 1)) == "R"
    assert str(family_string("e", 2)) == "RLR"
    assert str(family_string("e", 3)) == "SRLRS"
    assert str(family_string("f", 1)) == "RL"
    assert str(family_string("f", 2)) == "SRLS"


def test_family_string_bad_index():
    with pytest.raises(IndexError):
        family_string("a", -1)
    with pytest.raises(ValueError):
        family_string("g", 1)


def test_string_parse_rejects_bad_letters():
    with pytest.raises(ValueError):
        StringSpec.parse("SRX")


def test_empty_string_is_the_base_edge():
    trace = trace_path(StringSpec(()))
    assert trace.key.serialize() == "CPLX:D8:D8:t"
    assert len(trace.vertices) == 2


def test_known_string_aliases():
    assert string_key(StringSpec.parse("lrlsr")) == string_key(StringSpec.parse("rlrsl"))
    assert string_key(StringSpec.parse("rllss")) == string_key(StringSpec.parse("ssllr"))


def test_string_alias_properties_sampled():
    import random

    rng = random.Random(1)
    for _ in range(25):
        text = "".join(rng.choice("LSR") for _ in range(rng.randint(0, 6)))
        spec = StringSpec.parse(text)
        key = string_key(spec)
        assert string_key(spec.mirrored()) == key
        assert string_key(spec.reversed()) == key


def test_family_implication_shapes():
    sources, target = family_implication("Pent", 2)
    assert [str(s) for s in sources] == ["SSRS"] and str(target) == "SSRLS"
    sources, target = family_implication("Rect", 1)
    assert [str(s) for s in sources] == ["SSS", "RLR"] and str(target) == "SRLS"
    sources, target = family_implication("TrapB", 1)
    assert str(target) == "SSRS"


SLAB8 = build_ball(fix_vertex(D8), 8, "pentagon-subcomplex")


def test_verify_family_small():
    for family in FAMILIES:
        step = verify_family(family, 1, SLAB8)
        assert step["status"] == "verified", step
        assert step["witness"]


def test_verify_family_requires_positive_index():
    with pytest.raises(ValueError):
        verify_family("Pent", 0, SLAB8)


def test_verify_family_inconclusive_in_tiny_radius():
    tiny = build_ball(fix_vertex(D8), 2, "pentagon-subcomplex")
    step = verify_family("Sq", 2, tiny)
    assert step["status"] == "inconclusive"


def test_chain_stage_one():
    rep = verify_d8_chain(1, SLAB8)
    assert rep["status"] == "verified"
    # base case derives the quarter-turn and straight types (b_0 = c_0, d_0)
    derived = {s["derived"] for s in rep["steps"]}
    assert string_key(family_string("b", 0)).serialize() in derived
    assert string_key(family_string("d", 0)).serialize() in derived
    assert rep["stages"][0]["all_present"]


def test_chain_distances_increase():
    rep = verify_d8_chain(2, SLAB8)
    assert rep["status"] == "verified"
    assert rep["distances_strictly_increasing"] == {
        "pentagon-subcomplex": True, "full-Y": True}
    d = rep["distances"]
    assert d[0]["pentagon-subcomplex"] < d[1]["pentagon-subcomplex"]


def test_chain_inconclusive_when_radius_too_small():
    tiny = build_ball(fix_vertex(D8), 1, "pentagon-subcomplex")
    rep = verify_d8_chain(1, tiny)
    assert rep["status"] == "inconclusive"  # never a false verdict


def test_connecting_list_replays_independently():
    # re-derive the whole list with the calculus primitives directly, not
    # through the suite machinery, and land on the same final state
    from cox245.certificates import parse_point
    from cox245.complexgraph import cayley_vertex
    from cox245.coxeter import D10, parabolic_elements
    from cox245.implications import (
        CycleWitness,
        ImplicationState,
        apply_elementary,
        close_orbit,
    )

    seed = []
    for w in CONNECTING_SEED_WORDS:
        k = ckey(w)
        if k not in seed:
            seed.append(k)
    state = ImplicationState.initial(seed)
    for line in builtin_lines():
        if line.get("rule", "implication") == "implication":
            pts = tuple(parse_point(w, "cayley") for w in line["cycle"])
            state, derived = apply_elementary(state, CycleWitness(pts))
            assert derived == parse_key(line["target"])
        else:
            base = element_of_word(line["orbit_base"])
            pts = [cayley_vertex(d * base) for d in parabolic_elements(D10)]
            state = close_orbit(state, pts)
    assert state.has(ckey("rstrstst"))
    assert all(state.has(ckey(w)) for w in CONNECTING_FINAL_WORDS)


def test_connecting_list_replays_in_full():
    rep = verify_connecting_list()
    assert rep["status"] == "verified"
    assert rep["final_missing"] == []
    assert len(rep["steps"]) == 27
    assert rep["last_derived"] == ckey("rstrstst").serialize()
    # the dihedral expansion step derives the mid-chord type the later
    # steps consume
    orbit_steps = [s for s in rep["steps"] if s["rule"] == "orbit-clique"]
    assert len(orbit_steps) == 1
    assert ckey("rstsr").serialize() in orbit_steps[0]["derived"]


def test_connecting_list_keys_each_pair_once(monkeypatch):
    """Each side of a listed cycle (105) and each pair of the 10-gon orbit
    (45) is keyed once by the line parse, which feeds both the replay and
    the minimal-seed scan; the verdict keys its cycles again in
    implications (the orbit table is filled for j >= i and mirrored: 55 of
    its 100 cells)."""
    calls = {"certificates": 0, "implications": 0}
    for module in (certificates, implications):
        def counted(u, v, _name=module.__name__.rsplit(".", 1)[1], _fn=module.pair_key):
            calls[_name] += 1
            return _fn(u, v)
        monkeypatch.setattr(module, "pair_key", counted)
    assert verify_connecting_list()["status"] == "verified"
    assert calls == {"certificates": 150, "implications": 227}


def test_connecting_list_seed_covers_mechanical_scan():
    rep = verify_connecting_list()
    seed = set(rep["seed"])
    assert set(rep["minimal_seed_scan"]) <= seed
    # every seed word is an element of one of the three dihedral subgroups
    from cox245.coxeter import D4, D10, parabolic_elements

    members = set()
    for p in (D8, D10, D4):
        members.update(parabolic_elements(p))
    for w in CONNECTING_SEED_WORDS:
        assert element_of_word(w) in members


def test_connecting_list_order_matters():
    lines = builtin_lines()
    # move the first implication to the end: its target is consumed by
    # step 3 (trsr needs tsr), so the replay must fail loudly
    shuffled = lines[1:] + lines[:1]
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False) as fh:
        for line in shuffled:
            fh.write(json.dumps(line) + "\n")
        path = fh.name
    rep = verify_connecting_list(path)
    assert rep["status"] == "failed"
    assert len(rep["steps"]) == 2
    # the whole report, minimal-seed scan included, which reads every line
    # past the failed step
    text = json.dumps(rep, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "61998010e277278ed3283da7c6699a07a1dc01125d78dad1ac84046ed0e12750"


def test_orbit_clique_checks_its_expected_types(tmp_path):
    lines = builtin_lines()[:25]
    assert lines[-1]["rule"] == "orbit-clique"
    path = tmp_path / "expect.jsonl"
    for expect, status in ((["CAY:rstsr"], "verified"), (["CAY:rstsr", "CAY:rstrstst"], "failed")):
        lines[-1] = {**lines[-1], "expect": expect}
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        step = verify_connecting_list(str(path))["steps"][-1]
        assert (step["rule"], step["status"]) == ("orbit-clique", status)
    assert step["error"] == "orbit not closed to a clique; missing ['CAY:rstrstst']"


def test_connecting_final_words_all_present():
    rep = verify_connecting_list()
    assert rep["status"] == "verified"
    assert len(CONNECTING_FINAL_WORDS) == 27


def test_parse_key_roundtrip():
    k = parse_key("CAY:tsr")
    assert k == ckey("tsr")
    k2 = parse_key("CPLX:D8:D8:t")
    assert k2.serialize() == "CPLX:D8:D8:t"
    with pytest.raises(ValueError):
        parse_key("WAT:x")


def test_complex_mode_certificate_line(tmp_path):
    # the base pentagon: sides are the bare edge type, diagonals the
    # quarter-turn string; declared explicitly in the file's own assume line
    target = string_key(StringSpec.parse("R"))
    lines = [
        {"rule": "assume", "keys": ["CPLX:D8:D8:t"]},
        {"mode": "complex", "sources": ["CPLX:D8:D8:t"],
         "cycle": ["D8:e", "D8:t", "D8:tst", "D8:stst", "D8:st"],
         "target": target.serialize()},
    ]
    path = tmp_path / "pentagon.jsonl"
    path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
    rep = verify_connecting_list(str(path))
    impl = [s for s in rep["steps"] if s["rule"] == "implication"]
    assert impl and impl[0]["status"] == "verified"
    assert impl[0]["derived"] == target.serialize()


def test_assumed_types_never_verify(tmp_path):
    # assume every final type but the last plus the last step's sources,
    # then replay only the built-in list's last line: every check passes,
    # yet the result rests on the assumption
    last = builtin_lines()[-1]
    assumed = [f"CAY:{w}" for w in CONNECTING_FINAL_WORDS if w != "rstrstst"]
    lines = [{"rule": "assume", "keys": assumed + last["sources"]}, last]
    path = tmp_path / "assumed.jsonl"
    path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
    rep = verify_connecting_list(str(path))
    assert rep["steps"][0]["keys"]
    assert all(s["status"] == "verified" for s in rep["steps"])
    assert rep["final_missing"] == []
    assert rep["last_derived"] == "CAY:rsrststs"
    assert rep["status"] == "inconclusive"


def test_a_key_repeated_in_one_assume_line_is_added_once(tmp_path):
    path = tmp_path / "twice.jsonl"
    path.write_text(json.dumps({"rule": "assume", "keys": ["CAY:rstsrstr"] * 2}) + "\n")
    rep = verify_connecting_list(str(path))
    assert rep["steps"][0]["keys"] == [parse_key("CAY:rstsrstr").serialize()]
    assert len(rep["seed"]) == len(CONNECTING_SEED_WORDS) == 13
    assert rep["known_count"] == 14


def test_dihedral_suites():
    for order in (4, 5):
        rep = verify_dihedral_suite(order)
        assert rep["status"] == "verified"
        assert all(s["complete"] for s in rep["steps"])


@pytest.mark.parametrize("order", [8, 10])
def test_dihedral_suite_takes_only_rotation_orders(order):
    with pytest.raises(ValueError, match="order must be 4 or 5"):
        verify_dihedral_suite(order)


def test_d10_search_smoke():
    rep = auto_search_d10(max_depth=1, radius=4)
    assert rep["status"] == "inconclusive"
    assert rep["seed"] == "CPLX:D10:D10:r"
    assert rep["max_endpoint_distance"] >= 1
    none_found = auto_search_d10(max_depth=0, radius=3)
    assert none_found["derived"] == []
    assert none_found["max_endpoint_distance"] == 1


def test_d10_endpoint_distances_are_bfs_distances():
    """Each step's endpoint distance, read off the ball, equals the BFS
    distance to the endpoint of the derived key."""
    rep = auto_search_d10(30, 7)
    assert len(rep["steps"]) == 23
    center = fix_vertex(D10)
    for step in rep["steps"]:
        end = make_vertex(D10, element_of_word(parse_key(step["key"]).word))
        assert step["endpoint_distance"] == graph_distance(center, end, "d10-orbit"), step["key"]
    assert rep["max_endpoint_distance"] == max(s["endpoint_distance"] for s in rep["steps"]) == 5


def test_pentagon_suite_small():
    rep = verify_pentagon_suite(1, 6)
    assert rep["status"] == "verified"
    assert len(rep["steps"]) == len(FAMILIES)


def test_pentagon_suite_shared_memo_matches_fresh_spaces():
    # the suite runs every family and the chain through its slab's partner
    # caches; each search on a fresh, identical slab (so with fresh caches)
    # must find the same witnesses
    rep = verify_pentagon_suite(2, 6)

    def fresh_slab():
        return build_ball(fix_vertex(D8), 6, "pentagon-subcomplex")

    fresh = [verify_family(family, n, fresh_slab()) for family in FAMILIES for n in (1, 2)]
    assert fresh == rep["steps"]
    assert verify_d8_chain(2, fresh_slab())["steps"] == rep["chain"]["steps"]


def test_pentagon_suite_distance_audit_verdicts(monkeypatch):
    """Distances that do not increase fail the audit."""
    import cox245.certificates as certificates

    monkeypatch.setattr(certificates, "graph_distance", lambda u, v, mode: 3)
    assert verify_pentagon_suite(2, 6)["status"] == "failed"


@pytest.mark.parametrize("chain_status, family_status, increasing, expected", [
    ("failed", "inconclusive", True, "failed"),
    ("verified", "inconclusive", False, "inconclusive"),
    ("verified", "verified", False, "failed"),
    ("verified", "verified", True, "verified"),
])
def test_pentagon_suite_verdict_order(monkeypatch, chain_status, family_status, increasing,
                                      expected):
    """A failed step fails the suite; else an inconclusive step leaves it
    inconclusive; else the distance audit decides."""
    second = 4 if increasing else 2
    chain = {"status": chain_status,
             "distances": [{"stage": 1, "pentagon-subcomplex": 2, "full-Y": 2},
                           {"stage": 2, "pentagon-subcomplex": second, "full-Y": 4}],
             "distances_strictly_increasing": {"pentagon-subcomplex": increasing,
                                               "full-Y": True}}
    monkeypatch.setattr(certificates, "verify_family",
                        lambda family, n, slab: {"family": family, "n": n,
                                                 "status": family_status if family == "Sq"
                                                 else "verified"})
    monkeypatch.setattr(certificates, "verify_d8_chain", lambda max_n, slab: chain)
    assert verify_pentagon_suite(2, 1)["status"] == expected
