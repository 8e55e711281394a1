"""Acceptance gate: one test per criterion, each printing a PASS line.

Everything is exact integer/field arithmetic, so tolerances are exact
equality; the only numeric bounds are the stated runtime caps.  Criterion 4
runs the extended n <= 5 setting when COX245_EXTENDED=1 is set.
"""

import json
import os
import random
import time

import pytest

from cox245.certificates import (
    FAMILIES,
    auto_search_d10,
    family_string,
    string_key,
    verify_connecting_list,
    verify_pentagon_suite,
)
from cox245.cli import main
from cox245.complexgraph import build_ball, cayley_vertex, fix_vertex, translate
from cox245.coxeter import (
    D4,
    D8,
    D10,
    element_of_word,
    identity,
    parabolic_elements,
)
from cox245.discs import (
    curvature_profile,
    enumerate_discs,
    p8_disc,
    p10_disc,
    wheel_disc,
)
from cox245.edgetypes import pair_key, type_key_cayley
from cox245.implications import DIHEDRAL_CHORD_LABELS, dihedral_closure
from cox245.reports import Report

EXTENDED = os.environ.get("COX245_EXTENDED", "") == "1"
MAX_N = 5 if EXTENDED else 3


def _ok(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


@pytest.fixture(scope="module")
def pentagon_report():
    start = time.monotonic()
    rep = verify_pentagon_suite(MAX_N, 10)
    rep["_elapsed"] = time.monotonic() - start
    return rep


def test_criterion_1_kernel_soundness():
    start = time.monotonic()
    ball = build_ball(cayley_vertex(identity()), 10, "cayley")
    words = [v.rep.canonical_word() for v in ball.vertices]
    build_time = time.monotonic() - start
    assert build_time < 60.0
    # canonical words pairwise distinct exactly when matrices are distinct
    assert len(set(words)) == len({v.rep.mat for v in ball.vertices}) == len(ball)
    for v, w in zip(ball.vertices, words):
        assert len(w) == ball.depth[ball.index_of(v)]
    sizes = (len(parabolic_elements(D8)), len(parabolic_elements(D10)),
             len(parabolic_elements(D4)))
    assert sizes == (8, 10, 4)
    _ok(1, f"radius-10 Cayley ball of {len(ball)} elements in {build_time:.1f}s; "
           f"zero collisions; det parity exact; closures {sizes}")


def test_criterion_2_connecting_cliques():
    start = time.monotonic()
    rep = verify_connecting_list()
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    assert rep["status"] == "verified"
    assert len(rep["steps"]) == 27
    orbit = [s for s in rep["steps"] if s["rule"] == "orbit-clique"]
    rstsr = type_key_cayley(identity(), element_of_word("rstsr")).serialize()
    assert rstsr in orbit[0]["derived"]
    final = type_key_cayley(identity(), element_of_word("rstrstst"))
    assert rep["last_derived"] == final.serialize() == "CAY:rsrststs"
    assert main(["verify", "cayley-certs"]) == 0
    _ok(2, f"all 27 listed implications replay in {elapsed:.2f}s; the 10-gon "
           f"clique step yields {rstsr}; final derived key {rep['last_derived']} "
           f"(the type of the pair (e, rstrstst))")


def test_criterion_3_dihedral_closures():
    start = time.monotonic()
    for m in (4, 5):
        full = set(DIHEDRAL_CHORD_LABELS[m])
        for seed in full:
            assert dihedral_closure(m, seed) == full
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _ok(3, f"all 9 single-seed closures reach the full chord sets in {elapsed:.2f}s")


def test_criterion_4_pentagon_families(pentagon_report):
    rep = pentagon_report
    assert rep["_elapsed"] < 300.0
    fams = rep["steps"]
    assert len(fams) == len(FAMILIES) * MAX_N
    for step in fams:
        assert step["status"] == "verified", step
        assert step["target_key"] == string_key(
            family_string({"Pent": "b", "Sq": "d", "Rect": "f", "TrapA": "e",
                           "TrapB": "a", "TrapC": "c"}[step["family"]],
                          step["n"] if step["family"] in ("Pent", "Sq") else step["n"] + 1)
        ).serialize()
    setting = f"n <= {MAX_N}" + ("" if EXTENDED else " (set COX245_EXTENDED=1 for n <= 5)")
    _ok(4, f"all {len(fams)} family witnesses found within radius 10, {setting}, "
           f"in {rep['_elapsed']:.0f}s")


def test_criterion_5_chain_certificate(pentagon_report):
    chain = pentagon_report["chain"]
    assert chain["status"] == "verified"
    assert all(row["all_present"] for row in chain["stages"])
    assert chain["max_n"] >= 3
    # d_3 of the chain (stage 3) is the display string S^5
    assert chain["distances"][2]["d_string"] == "SSSSS"
    dist = chain["distances"][:3]
    for metric in ("pentagon-subcomplex", "full-Y"):
        values = [row[metric] for row in dist]
        assert values == sorted(values) and len(set(values)) == 3
    assert chain["distances_strictly_increasing"] == {
        "pentagon-subcomplex": True, "full-Y": True}
    pents = [row["pentagon-subcomplex"] for row in dist]
    fulls = [row["full-Y"] for row in dist]
    _ok(5, f"stage rows a..f all derived through stage {chain['max_n']}; "
           f"d-type endpoint distances pentagon={pents} full-Y={fulls}, strictly increasing")


def test_criterion_6_disc_classifications():
    start = time.monotonic()
    checked = 0
    for boundary, cap in ((3, 5), (4, 6), (5, 7), (6, 8)):
        for d in enumerate_discs(boundary, cap):
            assert curvature_profile(d).total == 6
            checked += 1
    wheel = enumerate_discs(6, 8, locally_6_large=True, forbid_boundary_chords=True)
    assert len(wheel) == 1 and wheel[0].canonical == wheel_disc(6).canonical
    octs = enumerate_discs(8, 10, locally_6_large=True, min_boundary_angle=2,
                           forbid_boundary_chords=True)
    assert len(octs) == 2
    assert [d.canonical for d in octs] == [p8_disc().canonical, p10_disc().canonical]
    for d in octs + wheel:
        assert curvature_profile(d).total == 6
    elapsed = time.monotonic() - start
    assert elapsed < 180.0
    _ok(6, f"Gauss-Bonnet exact on {checked} discs; hexagon -> wheel only; "
           f"octagon -> exactly P8 and P10; {elapsed:.1f}s")


def test_criterion_7_orbit_invariance():
    rng = random.Random(245)
    slabs = [build_ball(fix_vertex(D8), 4, "pentagon-subcomplex"),
             build_ball(fix_vertex(D8), 4, "full-Y")]
    shifts = [element_of_word("".join(rng.choice("rst") for _ in range(rng.randint(0, 4))))
              for _ in range(40)]
    samples = 0
    for slab in slabs:
        verts = list(slab.vertices)
        for _ in range(500):
            u, v = rng.choice(verts), rng.choice(verts)
            key = pair_key(u, v)
            assert pair_key(v, u) == key
            w = rng.choice(shifts)
            assert pair_key(translate(w, u), translate(w, v)) == key
            samples += 1
    assert samples >= 1000
    _ok(7, f"{samples} sampled pairs: keys invariant under the left action and endpoint swap")


def test_criterion_8_d10_search_runs():
    rep = auto_search_d10(max_depth=3, radius=5)
    assert rep["status"] == "inconclusive"  # explicitly not an acceptance gate
    assert rep["seed"] == "CPLX:D10:D10:r"
    assert isinstance(rep["max_endpoint_distance"], int)
    for row in rep["derived"]:
        assert set(row) >= {"key", "endpoint_distance", "witness"}
    # the CLI emits a well-formed report for it
    import io
    from contextlib import redirect_stderr, redirect_stdout

    buf_out, buf_err = io.StringIO(), io.StringIO()
    with redirect_stdout(buf_out), redirect_stderr(buf_err):
        code = main(["search", "d10", "--depth", "2", "--radius", "4", "--json"])
    assert code == 1  # inconclusive exits nonzero by the CLI contract
    parsed = Report.from_json(buf_out.getvalue().strip())
    assert parsed.status == "inconclusive"
    assert json.loads(parsed.to_json()) == parsed.to_dict()
    _ok(8, f"exploratory run derived {len(rep['derived'])} types, max endpoint "
           f"distance {rep['max_endpoint_distance']}; report well-formed; inconclusive as allowed")
