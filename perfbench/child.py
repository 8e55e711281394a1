"""One benchmark job in a fresh interpreter; started by run.py.

    python3 -S perfbench/child.py '<job as JSON>'

Jobs:

``{"mode": "setup"}``
    import ``cox245.cli`` and report when the import finished, with the
    host speed factor measured right after.
``{"mode": "op", "argv": [...], "trace": false}``
    call ``cox245.cli.main(argv + ["--json"])`` once and report the
    verdicts, the sha256 of the JSON reports without ``elapsed_ms``, the
    wall time of the call, that time rescaled to the nominal host of
    layers.py (``verdict_s``) and the peak RSS.  With ``"trace": true`` the
    layer wrappers of layers.py are installed around the call, and the
    report adds per-layer stats and a fingerprint of every slab built.
``{"mode": "micro", "seed": n}``
    per-call costs of the group kernel on words drawn with the seed.

The result is one JSON object on the last line of stdout.  Times use
``time.monotonic``, which is CLOCK_MONOTONIC on Linux and so comparable
with the parent's clock.
"""

import time

import cox245.cli

IMPORTED = time.monotonic()  # setup time runs from spawn to here; import nothing above

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import layers  # noqa: E402


def report_digest(stdout_text: str) -> tuple[list[str], str]:
    """Statuses of the --json reports and the sha256 of the reports with
    their timing field removed, in a canonical serialization."""
    reports = [json.loads(line) for line in stdout_text.splitlines() if line.strip()]
    for rep in reports:
        rep.pop("elapsed_ms", None)
    text = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    return [rep["status"] for rep in reports], hashlib.sha256(text.encode()).hexdigest()


def run_op(argv: list[str], trace: bool) -> dict:
    tracer = layers.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    probe = layers.SpeedProbe()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), probe:
            t0 = time.monotonic()
            code = cox245.cli.main(list(argv) + ["--json"])
            wall_s = time.monotonic() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    work_s = wall_s - sum(probe.samples)  # the reference samples ran inside the call
    speed = probe.factor()
    statuses, digest = report_digest(out.getvalue())
    result = {
        "statuses": statuses,
        "digest": digest,
        "wall_s": wall_s,
        "speed": speed,
        "verdict_s": work_s * speed,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stderr": err.getvalue()[-2000:] if code == 2 else "",
    }
    if tracer is not None:
        for stats in tracer.stats.values():
            for key in ("s", "self_s"):
                if key in stats:
                    stats[key] *= speed
        result["layers"] = tracer.stats
        result["slabs"] = [
            {"mode": slab.mode, "radius": slab.radius, "vertices": len(slab),
             "dump_sha256": hashlib.sha256(slab.dump().encode()).hexdigest()}
            for slab in tracer.slabs
        ]
    return result


def main() -> int:
    job = json.loads(sys.argv[1])
    result = {"imported": IMPORTED, "cox245_file": cox245.cli.__file__}
    if job["mode"] == "op":
        result.update(run_op(job["argv"], job["trace"]))
    elif job["mode"] == "micro":
        result["micro"] = layers.micro(job["seed"], **job.get("options", {}))
    elif job["mode"] == "setup":
        result["speed"] = layers.measured_speed()
    else:
        raise ValueError(f"unknown job mode {job['mode']!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
