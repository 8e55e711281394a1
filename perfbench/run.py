"""cox245 benchmark: time to an exact verdict, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload is a fixed list of CLI invocations (operations).
The loop is closed with one client: one fresh ``python`` child at a time
runs one operation.  Passes over the whole list repeat while the next one,
taking as long as the last, is expected to end within ``--seconds``; there
is always at least one pass, and no pass is cut.  Every operation's
verdicts and report digest are checked against golden.json.

``--trace 0`` prints the end-to-end metrics: ``verdict_s`` (median over
passes of the summed time of the CLI calls, each from the call into
``cox245.cli.main`` to its return, in nominal seconds), ``setup_s`` (median
over import-only children, three before each pass, of the nominal time
from spawn through ``import cox245.cli``) and ``peak_rss_mb`` (median over
passes of the largest child ``ru_maxrss``).

Nominal seconds: a shared host's CPU throughput can swing by 1.5x within
a minute, so each child rescales its wall times by the speed of a fixed
reference loop sampled every 50 ms in the same thread (see layers.py).
Raw wall times and speed factors go to stderr.

``--trace 1`` alternates an untraced and a traced pass, so the tracing
overhead is measured in the same run, and prints the per-layer metrics of
layers.py plus micro-case per-call costs on words drawn with the seed.

The seed is each child's PYTHONHASHSEED and the micro-case word seed; no
CLI input depends on it, so every seed must give the recorded digests (the
amount of witness-search work does depend on it, through set order).
Children run with ``python -S``: no site-packages and no ``.pth`` hooks,
which on some installs cost more start-up time than the package's own
import.  ``COX245_*`` variables are removed from the child environment,
because ``COX245_THREADS`` changes the code path and the report.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric with its unit, the fail rate and the environment.  ``--quick`` runs small
instances of the same workloads (for the benchmark's own test);
``--record`` rewrites golden.json from one traced run of every operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import WORD_LENGTHS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"

# The run must end within 180 s; no child may run past this budget.
RUN_BUDGET_S = 170.0
# Import-only children started before each pass to measure set-up time.
SETUP_PROBES = 3

WORKLOADS = {
    # The paper's headline certificate at the CLI defaults: one pentagon
    # ball of 16,737 vertices dominates (coxeter, numberfield, complexgraph).
    "pentagon-r10": {
        "full": [["verify", "pentagon", "--max-n", "3", "--radius", "10"]],
        "quick": [["verify", "pentagon", "--max-n", "2", "--radius", "6"]],
    },
    # Witness search: key_partners and coset reps dominate; the d10 search
    # is inconclusive by design.
    "implication-search": {
        "full": [["verify", "cayley-certs"],
                 ["verify", "dihedral", "--order", "4"],
                 ["verify", "dihedral", "--order", "5"],
                 ["search", "d10", "--depth", "10", "--radius", "6"]],
        "quick": [["verify", "cayley-certs"],
                  ["verify", "dihedral", "--order", "4"],
                  ["verify", "dihedral", "--order", "5"],
                  ["search", "d10", "--depth", "3", "--radius", "4"]],
    },
    # No group arithmetic: the first call is heavy on canonical-form
    # de-duplication, the second on pruning.
    "disc-enum": {
        "full": [["discs", "enumerate", "--boundary", "8", "--max-triangles", "10"],
                 ["discs", "enumerate", "--boundary", "10", "--max-triangles", "12",
                  "--locally-6-large"]],
        "quick": [["discs", "enumerate", "--boundary", "6", "--max-triangles", "8"],
                  ["discs", "enumerate", "--boundary", "8", "--max-triangles", "8",
                   "--locally-6-large"]],
    },
}

END_TO_END = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_LAYER_METRICS = (
    "complexgraph.build_ball.calls", "complexgraph.build_ball.s",
    "complexgraph.build_ball.self_s", "complexgraph.build_ball.vertices",
    "complexgraph.neighbors.calls",
    "complexgraph.graph_distance.calls", "complexgraph.graph_distance.s",
    "coxeter.canonical_word.calls", "coxeter.canonical_word.computed",
    "coxeter.canonical_word.s",
    "coxeter.min_coset_rep.calls", "coxeter.min_coset_rep.s",
    "coxeter.min_double_coset_rep.calls", "coxeter.min_double_coset_rep.s",
    "numberfield.iq_mul.calls", "numberfield.iq_sign.calls",
    "edgetypes.key_partners.calls", "edgetypes.key_partners.s",
    "edgetypes.type_key_complex.calls", "edgetypes.type_key_complex.s",
    "edgetypes.type_key_cayley.calls", "edgetypes.type_key_cayley.s",
    "implications.find_witness.calls", "implications.find_witness.found",
    "implications.find_witness.s", "implications.find_witness.self_s",
    "implications.close_orbit.calls", "implications.close_orbit.s",
    "certificates.string_key.calls", "certificates.string_key.s",
    "certificates.verify_family.s", "certificates.verify_d8_chain.s",
    "certificates.verify_connecting_list.s", "certificates.auto_search_d10.s",
    "discs.enumerate_discs.s", "discs.enumerate_discs.classes",
    "discs.canonical_form.calls", "discs.canonical_form.s",
    "discs.curvature_profile.s",
)
_MICRO_UNITS = {"iq_mul": "ns", "iq_sign": "ns", "element_of_word": "us", "canonical_word": "us"}
PER_LAYER = {
    **{name: "s" if name.rsplit(".", 1)[1] in ("s", "self_s")
       else "count" for name in _LAYER_METRICS},
    "trace.verdict_s": "s",
    "trace.overhead_s": "s",
    **{f"micro.{fn}.len{n}": unit for fn, unit in _MICRO_UNITS.items()
       for n in WORD_LENGTHS},
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def op_key(argv: list[str]) -> str:
    return " ".join(argv)


def child_env(seed: int) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("COX245_")}
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(job: dict, env: dict, deadline: float) -> dict:
    """Run one child job; its result, with the parent's clock at spawn.

    A child that fails or overruns gives a result with ``crashed`` set, so
    an operation's failure counts in the fail rate.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("run budget exhausted before a child could start")
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, "-S", str(CHILD), json.dumps(job)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        return {"crashed": f"child overran the {RUN_BUDGET_S:.0f} s run budget"}
    if proc.returncode != 0:
        return {"crashed": proc.stderr[-2000:] or f"exit code {proc.returncode}"}
    result = json.loads(proc.stdout.splitlines()[-1])
    if Path(result["cox245_file"]).resolve().parents[1] != SRC:
        raise BenchError(f"cox245 imported from {result['cox245_file']}, not from {SRC}")
    result["spawned"] = t0
    return result


def check_op(argv, result, golden, traced) -> str | None:
    """None when the operation reproduced its recorded fingerprint, else why not."""
    if "crashed" in result:
        return "child crashed: " + result["crashed"]
    want = golden.get(op_key(argv))
    if want is None:
        return "no golden fingerprint recorded"
    if result["statuses"] != want["statuses"]:
        return f"verdicts {result['statuses']} != recorded {want['statuses']} {result['stderr']}"
    if result["digest"] != want["digest"]:
        return f"report digest {result['digest'][:12]} != recorded {want['digest'][:12]}"
    if traced and result["slabs"] != want["slabs"]:
        return "slab fingerprints differ from the recorded ones"
    return None


def add_layers(total: dict, stats: dict):
    for prefix, fields in stats.items():
        acc = total.setdefault(prefix, {})
        for name, value in fields.items():
            acc[name] = acc.get(name, 0) + value


def run_pass(ops, trace, env, golden, deadline, log) -> dict:
    """One closed-loop pass over the workload's operations."""
    out = {"verdict_s": 0.0, "wall_s": 0.0, "rss_mb": 0.0, "attempted": 0, "failed": 0,
           "layers": {}}
    for argv in ops:
        result = run_child({"mode": "op", "argv": argv, "trace": trace}, env, deadline)
        out["attempted"] += 1
        problem = check_op(argv, result, golden, trace)
        if problem is not None:
            out["failed"] += 1
            log(f"FAILED {op_key(argv)}: {problem}")
        if "crashed" in result:
            out["verdict_s"] = out["wall_s"] = None
            continue
        log(f"{'traced' if trace else 'plain'} {op_key(argv)}: {result['statuses']} "
            f"in {result['verdict_s']:.3f} nominal s ({result['wall_s']:.3f} s wall, "
            f"speed {result['speed']:.3f}), {result['maxrss_mb']:.1f} MB")
        if out["verdict_s"] is not None:
            out["verdict_s"] += result["verdict_s"]
            out["wall_s"] += result["wall_s"]
        out["rss_mb"] = max(out["rss_mb"], result["maxrss_mb"])
        if trace:
            add_layers(out["layers"], result["layers"])
    return out


def flat_layers(stats: dict) -> dict[str, float]:
    flat = {}
    for name in _LAYER_METRICS:
        prefix, field = name.rsplit(".", 1)
        flat[name] = stats.get(prefix, {}).get(field, 0)
    return flat


def median_of(passes, key) -> float:
    values = [p[key] for p in passes if p[key] is not None]
    if not values:
        raise BenchError(f"no pass measured {key}")
    return statistics.median(values)


def closed_loop(seconds: float, one_round) -> None:
    """Call ``one_round`` at least once, then again while the next round,
    taking as long as the last, is expected to end within ``seconds``."""
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        one_round()
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            return


def setup_probe(env, deadline) -> float:
    """Nominal seconds from spawning a child through its ``import cox245.cli``."""
    result = run_child({"mode": "setup"}, env, deadline)
    if "crashed" in result:
        raise BenchError("import-only child crashed: " + result["crashed"])
    return (result["imported"] - result["spawned"]) * result["speed"]


def measure(args, ops, golden, log) -> tuple[dict, int, int]:
    """Run the workload; (metrics, attempted, failed).  Logs wall times."""
    env = child_env(args.seed)
    deadline = time.monotonic() + RUN_BUDGET_S
    plain, traced, setups = [], [], []
    if args.trace:
        def one_round():
            plain.append(run_pass(ops, False, env, golden, deadline, log))
            traced.append(run_pass(ops, True, env, golden, deadline, log))
        closed_loop(args.seconds, one_round)
        micro_options = {"words_per_length": 6, "repeats": 3} if args.quick else {}
        micro = run_child({"mode": "micro", "seed": args.seed, "options": micro_options},
                          env, deadline)
        if "crashed" in micro:
            raise BenchError("micro-case child crashed: " + micro["crashed"])
        per_pass = [flat_layers(p["layers"]) for p in traced]
        metrics = {}
        for name in _LAYER_METRICS:
            values = [layer[name] for layer in per_pass]
            if PER_LAYER[name] == "count":
                if len(set(values)) != 1:
                    log(f"FAILED counts of {name} differ between traced passes: {values}")
                    traced[0]["failed"] += 1
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        metrics["trace.verdict_s"] = median_of(traced, "verdict_s")
        metrics["trace.overhead_s"] = metrics["trace.verdict_s"] - median_of(plain, "verdict_s")
        metrics.update(micro["micro"])
        units = PER_LAYER
    else:
        def one_round():
            # set-up probes are spread over the run, like the passes
            setups.extend(setup_probe(env, deadline) for _ in range(SETUP_PROBES))
            plain.append(run_pass(ops, False, env, golden, deadline, log))
        closed_loop(args.seconds, one_round)
        metrics = {"verdict_s": median_of(plain, "verdict_s"),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": median_of(plain, "rss_mb")}
        units = END_TO_END
    log(f"{len(plain)} untraced passes, median wall time {median_of(plain, 'wall_s'):.4f} s"
        + (f"; {len(traced)} traced, {median_of(traced, 'wall_s'):.4f} s" if traced else ""))
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}, \
        attempted, failed


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cox245").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
    }


def record(golden_path: Path, log):
    """Fingerprint every operation of every workload, full and quick."""
    env = child_env(0)
    golden = {}
    for spec in WORKLOADS.values():
        for ops in spec.values():
            for argv in ops:
                result = run_child({"mode": "op", "argv": argv, "trace": True},
                                   env, time.monotonic() + 600)
                if "crashed" in result:
                    raise BenchError(f"{op_key(argv)} crashed: {result['crashed']}")
                golden[op_key(argv)] = {"statuses": result["statuses"],
                                        "digest": result["digest"],
                                        "slabs": result["slabs"]}
                log(f"recorded {op_key(argv)}: {result['statuses']}")
    golden_path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small instances of the workload (self-test)")
    parser.add_argument("--golden", type=Path, default=GOLDEN,
                        help="fingerprint file (default: golden.json beside this file)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the fingerprint file and exit")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running child before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    def log(message):
        print(message, file=sys.stderr, flush=True)

    try:
        if not (SRC / "cox245" / "cli.py").is_file():
            raise BenchError(f"no cox245 sources under {SRC}; run from a source checkout")
        if args.record:
            record(args.golden, log)
            return 0
        golden = json.loads(args.golden.read_text())
        ops = WORKLOADS[args.workload]["quick" if args.quick else "full"]
        metrics, attempted, failed = measure(args, ops, golden, log)
    except (BenchError, OSError, ValueError) as exc:
        log(f"perfbench: error: {exc}")
        return 2
    print("env " + json.dumps(environment(args), sort_keys=True))
    for name, m in metrics.items():
        value = m["value"] if m["unit"] == "count" else f"{m['value']:.6g}"
        print(f"metric {name} {value} {m['unit']}")
    print(f"metric fail_rate {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
