"""The built-in certificate list as plain objects, read apart from the
package's own reader (``certificates._numbered_lines``)."""

import json
from pathlib import Path

import cox245.certificates

BUILTIN_LIST = Path(cox245.certificates.__file__).parent / "data" / "cayley_certificates.jsonl"


def builtin_lines() -> list[dict]:
    """``json.loads`` of each nonblank line of the built-in list."""
    return [json.loads(raw) for raw in BUILTIN_LIST.read_text(encoding="utf-8").splitlines()
            if raw.strip()]
