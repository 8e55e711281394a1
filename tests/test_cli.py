"""CLI contract: subcommands, exit codes, JSON stream."""

import gc
import json

import pytest

from cox245 import reports
from cox245.certificates import (
    auto_search_d10,
    verify_connecting_list,
    verify_dihedral_suite,
    verify_pentagon_suite,
)
from cox245.cli import main
from cox245.complexgraph import make_vertex
from cox245.coxeter import CAY, D8, element_of_word
from cox245.discs import discs_suite
from cox245.edgetypes import EdgeTypeKey
from cox245.reports import Report, timed_suite


def test_dihedral_exit_zero(capsys):
    assert main(["verify", "dihedral", "--order", "4"]) == 0
    out = capsys.readouterr().out
    assert "verified" in out and "dihedral-4" in out


def test_json_stream_round_trips(capsys):
    assert main(["verify", "dihedral", "--order", "5", "--json"]) == 0
    captured = capsys.readouterr()
    lines = [l for l in captured.out.splitlines() if l.strip()]
    assert len(lines) == 1
    rep = Report.from_json(lines[0])
    assert rep.suite == "dihedral-5"
    assert rep.status == "verified"
    assert Report.from_dict(json.loads(rep.to_json())) == rep
    assert "dihedral-5" in captured.err  # human summary moves to stderr


def test_json_flag_before_subcommand(capsys):
    assert main(["--json", "verify", "dihedral", "--order", "4"]) == 0
    out = capsys.readouterr().out
    Report.from_json(out.strip())


def test_discs_subcommand(capsys):
    code = main(["discs", "enumerate", "--boundary", "6", "--locally-6-large",
                 "--no-chords", "--max-triangles", "8", "--json"])
    assert code == 0
    rep = Report.from_json(capsys.readouterr().out.strip())
    assert rep.detail["count"] == 1
    assert rep.detail["red_flags"] == []


def test_octagon_discs_cli(capsys):
    code = main(["discs", "enumerate", "--boundary", "8", "--locally-6-large",
                 "--min-angle", "2", "--no-chords", "--max-triangles", "10", "--json"])
    assert code == 0
    rep = Report.from_json(capsys.readouterr().out.strip())
    assert rep.detail["count"] == 2


def test_search_d10_exit_nonzero(capsys):
    # inconclusive by design, so the exit-code contract says nonzero
    code = main(["search", "d10", "--depth", "1", "--radius", "4", "--json"])
    assert code == 1
    rep = Report.from_json(capsys.readouterr().out.strip())
    assert rep.status == "inconclusive"
    assert rep.config["depth"] == 1


def test_cayley_certs_cli(capsys):
    assert main(["verify", "cayley-certs", "--json"]) == 0
    rep = Report.from_json(capsys.readouterr().out.strip())
    assert rep.status == "verified"
    assert len(rep.steps) == 27
    assert rep.detail["last_derived"] == "CAY:rsrststs"


def test_config_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "dihedral", "--order", "7"])
    assert err.value.code == 2
    # cap violations surface as clean errors, not tracebacks
    assert main(["discs", "enumerate", "--boundary", "6", "--max-triangles", "99"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [[], ["discs", "enumerate"]])
def test_help_exits_zero(capsys, argv):
    """Help prints and exits 0 from the top parser and from a subparser,
    both wrapped at the formatter's fixed 78 columns."""
    with pytest.raises(SystemExit) as err:
        main([*argv, "--help"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: {' '.join(['cox245', *argv])}")
    assert max(map(len, out.splitlines())) <= 78


@pytest.mark.parametrize("limits, name", [
    (["--max-triangles", "-1"], "max_triangles"),
    (["--max-triangles", "8", "--min-angle", "-1"], "min_boundary_angle"),
])
def test_negative_disc_constraint_exit_code(capsys, limits, name):
    assert main(["discs", "enumerate", "--boundary", "6", *limits]) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [
    (["search", "d10", "--depth", "-2", "--radius", "3"], "max_depth"),
    (["search", "d10", "--depth", "1", "--radius", "-1"], "radius"),
    (["verify", "pentagon", "--max-n", "0"], "max_n"),
])
def test_negative_search_and_suite_limits_exit_code(capsys, argv, name):
    assert main(argv) == 2
    assert name in capsys.readouterr().err


def test_report_rejects_bad_status():
    with pytest.raises(ValueError):
        Report(suite="x", status="maybe", steps=(), elapsed_ms=0,
               version="0", config={})


@pytest.mark.parametrize("name", ["", "missing.jsonl"], ids=["empty", "missing"])
def test_unreadable_certificate_path_exit_code(tmp_path, capsys, name):
    """An empty ``--certs`` is a path like any other, not the built-in list."""
    certs = str(tmp_path / name) if name else ""
    assert main(["verify", "cayley-certs", "--certs", certs]) == 2
    assert "cox245: error:" in capsys.readouterr().err


def test_external_certificate_file(tmp_path, capsys):
    path = tmp_path / "certs.jsonl"
    path.write_text(json.dumps({
        "mode": "cayley",
        "sources": ["CAY:tr", "CAY:tst", "CAY:rsr"],
        "cycle": ["", "tr", "tsr", "tst"],
        "target": "CAY:tsr",
    }) + "\n")
    # a truncated list replays its steps but fails the final-state audit
    code = main(["verify", "cayley-certs", "--certs", str(path), "--json"])
    assert code == 1
    rep = Report.from_json(capsys.readouterr().out.strip())
    assert rep.steps[0]["status"] == "verified"
    assert rep.status == "failed"


def test_orbit_clique_with_unknown_generators_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "certs.jsonl"
    path.write_text(json.dumps({"rule": "orbit-clique", "orbit_generators": ["r", "x"],
                                "orbit_base": "r"}) + "\n")
    assert main(["verify", "cayley-certs", "--certs", str(path)]) == 2
    err = capsys.readouterr().err
    assert "['r', 'x']" in err


_GOOD_LINE = {"mode": "cayley", "sources": ["CAY:tr", "CAY:tst", "CAY:rsr"],
              "cycle": ["", "tr", "tsr", "tst"], "target": "CAY:tsr"}
# the built-in list's third line alone fails its step (side tsr is not
# known yet), so a line after it is read only past a failed step
_FAILED_STEP = json.dumps({"mode": "cayley", "sources": ["CAY:tsr", "CAY:srs", "CAY:r"],
                           "cycle": ["", "tsr", "trsr", "r"], "target": "CAY:trsr"})
_ORBIT_LINE = {"rule": "orbit-clique", "orbit_generators": ["s", "t"], "orbit_base": "r"}


@pytest.mark.parametrize("lines, message", [
    ([json.dumps({k: v for k, v in _GOOD_LINE.items() if k != "target"})],
     "line 1: missing field 'target'"),
    ([json.dumps(_GOOD_LINE), "{not json"], "line 2: bad JSON"),
    ([json.dumps(_GOOD_LINE), "", json.dumps({**_GOOD_LINE, "cycle": ["", "tq", "tsr", "tst"]})],
     "line 3: bad generator 'q'"),
    (["", "[1, 2]"], "line 2: expected a JSON object, got list"),
    ([json.dumps({**_GOOD_LINE, "mode": "bogus", "cycle": ["D8:e", "D8:t", "D8:tst", "D8:st"]})],
     "line 1: bad mode 'bogus'"),
    ([_FAILED_STEP, json.dumps({**_GOOD_LINE, "rule": "bogus"})],
     "line 2: unknown certificate rule 'bogus'"),
    ([_FAILED_STEP, json.dumps({"rule": "orbit-clique", "orbit_generators": ["s", "t"],
                                "orbit_base": "r", "expect": ["CAY:rstsr", "WAT:x"]})],
     "line 2: bad key serialization 'WAT:x'"),
    ([_FAILED_STEP, json.dumps({**_GOOD_LINE, "sources": ["CAY:tr", "WAT:x"]})],
     "line 2: bad key serialization 'WAT:x'"),
    ([_FAILED_STEP, json.dumps({**_GOOD_LINE, "cycle": ["", "tr", "tsr", "tst", "t", "s"]})],
     "line 2: a cycle witness has exactly 4 or 5 vertices"),
    # every rule checks its mode, and an orbit's points are Cayley elements
    ([json.dumps({"rule": "assume", "mode": "bogus", "keys": ["CAY:r"]})],
     "line 1: bad mode 'bogus'"),
    ([json.dumps(_GOOD_LINE), json.dumps({"rule": "orbit-clique", "mode": "bogus",
                                          "orbit_generators": ["s", "t"], "orbit_base": "r"})],
     "line 2: bad mode 'bogus'"),
    ([_FAILED_STEP, json.dumps({"rule": "orbit-clique", "mode": "complex",
                                "orbit_generators": ["s", "t"], "orbit_base": "r"})],
     "line 2: mode 'complex' on an orbit-clique line"),
    ([json.dumps({**_GOOD_LINE, "mode": "bogus", "cycle": []})], "line 1: bad mode 'bogus'"),
    # a string is not read as its letters, nor an array as a word
    ([json.dumps({**_GOOD_LINE, "cycle": "rstr"})],
     "line 1: field 'cycle' must be an array of strings"),
    ([_FAILED_STEP, json.dumps({**_GOOD_LINE, "cycle": ["", "tr", 3, "tst"]})],
     "line 2: field 'cycle' must be an array of strings"),
    ([json.dumps({**_GOOD_LINE, "sources": "CAY:rs"})],
     "line 1: field 'sources' must be an array of strings"),
    ([json.dumps({**_GOOD_LINE, "target": ["CAY:tsr"]})],
     "line 1: field 'target' must be a string"),
    ([json.dumps({"rule": "assume", "keys": "CAY:r"})],
     "line 1: field 'keys' must be an array of strings"),
    ([_FAILED_STEP, json.dumps({**_ORBIT_LINE, "expect": "CAY:rstsr"})],
     "line 2: field 'expect' must be an array of strings"),
    ([json.dumps({**_ORBIT_LINE, "orbit_generators": "st"})],
     "line 1: field 'orbit_generators' must be an array of strings"),
    ([json.dumps(_GOOD_LINE), json.dumps({**_ORBIT_LINE, "orbit_base": ["r"]})],
     "line 2: field 'orbit_base' must be a string"),
    # a valid element past the peel bound of 10,000 letters
    ([json.dumps({**_GOOD_LINE, "cycle": ["", "tr", "tsr", "rst" * 3500]})],
     "line 1: key off the orbit, or of an element longer than 10,000 letters"),
    ([json.dumps(_GOOD_LINE),
      json.dumps({**_GOOD_LINE, "sources": ["CAY:tr", "CAY:" + "rst" * 3500]})],
     "line 2: key off the orbit, or of an element longer than 10,000 letters"),
])
def test_malformed_certificate_line_is_named(tmp_path, capsys, lines, message):
    path = tmp_path / "certs.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "cayley-certs", "--certs", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_reports_normalise_each_value_once(monkeypatch):
    calls = []
    plain = reports._plain

    def counted(value):
        calls.append(1)
        return plain(value)

    monkeypatch.setattr(reports, "_plain", counted)
    steps = [{"a": 1, "b": [2, 3]}] * 4
    rep = timed_suite({"k": 1}, lambda: {"suite": "x", "status": "verified",
                                         "steps": steps, "n": 5})
    # steps: the list and 4 * (dict, 1, [2, 3], 2, 3); config and detail: 2 each
    assert len(calls) == 1 + 4 * 5 + 2 + 2
    assert rep.steps == steps and rep.config == {"k": 1} and rep.detail == {"n": 5}


def test_reports_print_value_objects_as_strings():
    """Only plain lists and tuples become lists: an edge-type key or a
    vertex in a report is its string form, though both are named tuples."""
    value = {"k": [EdgeTypeKey("CAY", "CAY", "rs"), (make_vertex(CAY, element_of_word("rt")),)]}
    assert reports._plain(EdgeTypeKey("D8", "D8", "tsrst")) == "CPLX:D8:D8:tsrst"
    assert (reports._plain(make_vertex(D8, element_of_word("t")))
            == "Vertex(parabolic=D8, rep=GroupElement('t'))")
    assert reports._plain(value) == {
        "k": ["CAY:rs", ["Vertex(parabolic=CAY, rep=GroupElement('rt'))"]]}


def test_to_dict_serialises_like_asdict():
    """``to_dict`` maps the seven fields by name, in order, to their values;
    ``to_json`` is that dict with sorted keys."""
    rep = timed_suite({"boundary": 6}, discs_suite, 6, 8, False, 0, False)
    expected = {"suite": rep.suite, "status": rep.status, "steps": rep.steps,
                "elapsed_ms": rep.elapsed_ms, "version": rep.version,
                "config": rep.config, "detail": rep.detail}
    assert rep.to_dict() == expected and list(rep.to_dict()) == list(expected)
    assert rep.to_json() == json.dumps(expected, sort_keys=True)
    assert Report.from_dict(rep.to_dict()) == rep
    assert Report.from_json(rep.to_json()) == rep


@pytest.fixture
def collector():
    """Puts the cyclic collector back as it was before the test."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("on_entry", [True, False], ids=["enabled", "disabled"])
def test_suite_runs_with_the_collector_paused(collector, on_entry, raises):
    """The collector is off inside the suite, and afterwards, whether the
    suite returned or raised, in the state the caller left it."""
    seen = []

    def suite():
        seen.append(gc.isenabled())
        if raises:
            raise ValueError("suite failed")
        return {"suite": "x", "status": "verified"}

    if on_entry:
        gc.enable()
    else:
        gc.disable()
    if raises:
        with pytest.raises(ValueError, match="suite failed"):
            timed_suite({}, suite)
    else:
        assert timed_suite({}, suite).status == "verified"
    assert seen == [False]
    assert gc.isenabled() == on_entry


def test_suite_survivors_skip_the_young_generations(collector):
    """Once the collector is back on, what the suite kept sits in the oldest
    generation and nothing is left frozen: the next young collection does
    not scan the suite's survivors."""
    kept = []

    def suite():
        kept.extend([i] for i in range(10_000))  # tracked containers
        return {"suite": "x", "status": "verified"}

    gc.enable()
    timed_suite({}, suite)
    young = len(gc.get_objects(0))
    assert gc.get_freeze_count() == 0
    assert young < 100


def test_suite_leaves_the_callers_frozen_objects_frozen(collector):
    """A caller's own ``gc.freeze`` survives a suite: the freeze and
    unfreeze are skipped, since the unfreeze would thaw the caller's
    objects too."""
    gc.enable()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        timed_suite({}, lambda: {"suite": "x", "status": "verified"})
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("fn, args", [
    (verify_connecting_list, (None,)),
    (verify_dihedral_suite, (4,)),
    (verify_dihedral_suite, (5,)),
    (verify_pentagon_suite, (2, 6)),
    (auto_search_d10, (3, 4)),
    (discs_suite, (8, 10, False, 0, False)),
    (discs_suite, (6, 8, True, 0, True)),
], ids=["cayley-certs", "dihedral-4", "dihedral-5", "pentagon", "d10", "discs-8", "discs-6"])
def test_no_suite_leaves_cyclic_garbage(collector, fn, args):
    """Suites run with the collector paused, which is safe while they make
    no reference cycles: everything a run allocates is freed by reference
    counting, so a collection right after it finds nothing."""
    gc.disable()  # so that no automatic collection runs before the check
    gc.collect()
    timed_suite({}, fn, *args)
    assert gc.collect() == 0
