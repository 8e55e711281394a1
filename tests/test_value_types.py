"""Value types: every field is read-only, equal fields mean equal and
hash-equal values, and construction checks and normalises its input."""

import pytest

from cox245.certificates import PathTrace, StringSpec
from cox245.complexgraph import make_vertex
from cox245.coxeter import CAY, D8, ParabolicId, element_of_word
from cox245.discs import TriDisc, curvature_profile
from cox245.edgetypes import EdgeTypeKey
from cox245.implications import CycleWitness, ImplicationState
from cox245.reports import Report


def _vertex(word):
    return make_vertex(CAY, element_of_word(word))


_DISC = TriDisc((0, 1, 2), ((0, 1, 2),))
_KEY = EdgeTypeKey("D8", "D8", "tsrst")
# one instance of each of the ten value types, with its field names
SAMPLES = [
    (D8, "name gens"),
    (_vertex("t"), "parabolic rep"),
    (_KEY, "p q word"),
    (CycleWitness(tuple(_vertex(w) for w in ("", "t", "ts", "tst"))), "points"),
    (ImplicationState.initial([_KEY]), "known"),
    (StringSpec(("L", "S")), "letters"),
    (PathTrace((_vertex(""), _vertex("t")), _KEY), "vertices key"),
    (_DISC, "boundary triangles"),
    (curvature_profile(_DISC), "interior boundary"),
    (Report("x", "verified", [], 0, "0", {}), "suite status steps elapsed_ms version config detail"),
]


@pytest.mark.parametrize("value, names", SAMPLES, ids=[type(v).__name__ for v, _ in SAMPLES])
def test_fields_are_read_only(value, names):
    for name in names.split():
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        assert getattr(value, name) is before


def test_parabolics_compare_by_identity():
    twin = ParabolicId("D8", ("r", "s"))
    assert twin != D8 and D8 == D8 and hash(D8) != hash(twin)


@pytest.mark.parametrize("make", [
    lambda: _vertex("rst"),
    lambda: EdgeTypeKey("D8", "D10", "srt"),
    lambda: ImplicationState.initial([EdgeTypeKey("CAY", "CAY", "rt"),
                                      EdgeTypeKey("D8", "D10", "t")]),
], ids=["Vertex", "EdgeTypeKey", "ImplicationState"])
def test_equal_fields_mean_equal_values(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_cycle_witness_takes_four_or_five_points():
    with pytest.raises(ValueError):
        CycleWitness(tuple(_vertex(w) for w in ("", "t", "ts")))


def test_tri_disc_sorts_its_triangles():
    d = TriDisc((0, 1, 2, 3), ((3, 2, 0), (2, 1, 0)))
    assert d.triangles == ((0, 1, 2), (0, 2, 3))


def test_report_round_trips_and_defaults_detail():
    a = Report("x", "verified", ({"k": (1, 2)},), 3, "0", {"n": 1})
    b = Report("x", "verified", (), 3, "0", {"n": 1})
    assert a.detail == {} and a.detail is not b.detail
    assert a.steps == [{"k": [1, 2]}]
    assert Report.from_dict(a.to_dict()) == a
