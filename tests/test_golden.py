"""The benchmark's recorded report digests, reproduced in-process.

Every full-size operation of the ``implication-search`` and ``pentagon-r10``
workloads of ``perfbench/run.py`` runs through ``cli.main`` once, and its
reports must hash to the digest recorded in ``perfbench/golden.json``, with
the serialisation of ``perfbench/child.py``: ``elapsed_ms`` dropped, keys
sorted, compact separators.  A report that drifts (a partner set that
loses a coset changes a pentagon witness) then fails here without running
the benchmark; partner order, which no report shows, is pinned by the
oracle tests of test_edgetypes.py.  The files are only read.
"""

import ast
import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

import cox245.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def benchmark_workloads() -> dict:
    """The ``WORKLOADS`` literal of perfbench/run.py, parsed, not imported."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["WORKLOADS"]:
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/run.py defines no WORKLOADS")


def report_digest(stdout_text: str) -> tuple[list[str], str]:
    reports = [json.loads(line) for line in stdout_text.splitlines() if line.strip()]
    for rep in reports:
        rep.pop("elapsed_ms", None)
    text = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    return [rep["status"] for rep in reports], hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("workload", ["implication-search", "pentagon-r10"])
def test_full_size_reports_match_recorded_digests(workload):
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    for argv in benchmark_workloads()[workload]["full"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cox245.cli.main([*argv, "--json"])
        assert code in (0, 1), argv
        want = golden[" ".join(argv)]
        assert report_digest(out.getvalue()) == (want["statuses"], want["digest"]), argv
