"""Machine-readable run reports.

A report wraps one suite's outcome: status, per-step records, elapsed
time, tool version and the configuration it ran under.  Reports are plain
JSON data end to end, so ``from_dict(to_dict(r)) == r`` exactly.

Every suite the CLI runs goes through ``timed_suite``, which pauses the
cyclic garbage collector while the suite runs and its report is built.
The suites make no reference cycles, so a collection there frees nothing,
yet in ``verify pentagon`` the collections took 10-13% of the wall time
(about 20 ms of 190 ms at ``--max-n 3 --radius 10``, 1.0 s of 8.1 s at
``--max-n 10 --radius 12``).  The pause stays safe only while no suite
leaves cyclic garbage, which ``tests/test_cli.py`` checks for every
built-in suite; reference counting frees everything as it goes.
"""

from __future__ import annotations

import gc
import json
import time
from collections import namedtuple

from . import __version__

__all__ = ["Report", "timed_suite"]

_STATUSES = ("verified", "failed", "inconclusive")


class Report(namedtuple("Report", "suite status steps elapsed_ms version config detail")):
    """One suite's outcome.  ``steps``, ``config`` and ``detail`` (default
    a fresh ``{}``) are normalized to plain JSON data on construction."""

    __slots__ = ()

    def __new__(cls, suite: str, status: str, steps, elapsed_ms: int, version: str,
                config: dict, detail: dict | None = None):
        if status not in _STATUSES:
            raise ValueError(f"bad status {status!r}")
        return super().__new__(cls, suite, status, _plain(steps), elapsed_ms, version,
                               _plain(config), _plain({} if detail is None else detail))

    def to_dict(self) -> dict:
        return self._asdict()

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "Report":
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        return cls.from_dict(json.loads(text))

    def summary(self) -> str:
        return f"[{self.status:>12}] {self.suite}  ({self.elapsed_ms} ms, {len(self.steps)} steps)"


def _plain(value):
    """Normalize to JSON-stable types so round-trips compare equal."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if type(value) in (list, tuple):  # not a named tuple: value types print as str
        return [_plain(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def timed_suite(config: dict, fn, *args, **kwargs) -> Report:
    """Run a suite function returning a result dict; wrap it as a Report.
    The cyclic collector is off meanwhile, and on again afterwards only if
    it was on before."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.monotonic()
        data = fn(*args, **kwargs)
        elapsed_ms = int((time.monotonic() - start) * 1000)
        data = dict(data)
        suite = data.pop("suite")
        status = data.pop("status")
        steps = data.pop("steps", [])
        return Report(suite=suite, status=status, steps=steps,
                      elapsed_ms=elapsed_ms, version=__version__,
                      config=config, detail=data)
    finally:
        if enabled:
            gc.enable()
