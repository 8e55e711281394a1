"""Machine-readable run reports.

A report wraps one suite's outcome: status, per-step records, elapsed
time, tool version and the configuration it ran under.  Reports are plain
JSON data end to end, so ``from_dict(to_dict(r)) == r`` exactly.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields

from . import __version__

__all__ = ["Report", "timed_suite"]

_STATUSES = ("verified", "failed", "inconclusive")


@dataclass(frozen=True)
class Report:
    suite: str
    status: str
    steps: tuple
    elapsed_ms: int
    version: str
    config: dict
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"bad status {self.status!r}")
        object.__setattr__(self, "steps", _plain(self.steps))
        object.__setattr__(self, "config", _plain(self.config))
        object.__setattr__(self, "detail", _plain(self.detail))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

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
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def timed_suite(config: dict, fn, *args, **kwargs) -> Report:
    """Run a suite function returning a result dict; wrap it as a Report."""
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
