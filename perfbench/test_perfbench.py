"""The benchmark's own test, on the small instances of ``run.py --quick``.

It checks that every metric named in BENCHMARK.json prints with its unit,
that a planted wrong digest raises the fail rate, and that two traced runs
give identical counts.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--quick", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def assert_metrics(result, lines, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert any(line.startswith(f"metric {m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    result, lines = bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result, lines, SPEC["end_to_end"])
    assert any(line.startswith("metric fail_rate 0 ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_counts(workload):
    first, lines = bench(workload, 1)
    second, _ = bench(workload, 1)
    assert first["correct"] and second["correct"]
    assert_metrics(first, lines, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert counts
    assert {n: first["metrics"][n]["value"] for n in counts} == \
        {n: second["metrics"][n]["value"] for n in counts}


def test_planted_wrong_digest_raises_fail_rate(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text())
    golden["verify cayley-certs"]["digest"] = "0" * 64
    planted = tmp_path / "golden.json"
    planted.write_text(json.dumps(golden))
    result, lines = bench("implication-search", 0, "--golden", str(planted))
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 4
    assert any(line.startswith("metric fail_rate 0.25 ") for line in lines)
