"""Module layering: private names stay inside the module that defines them
(dunders such as ``__version__`` are public), and every exported name
exists."""

import ast
import importlib
from pathlib import Path

import cox245

PACKAGE = Path(cox245.__file__).parent


def test_no_module_imports_a_private_name_from_another():
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "cox245":
                continue
            offences.extend(f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                            if alias.name.startswith("_") and not alias.name.endswith("__"))
    assert offences == []


def test_every_exported_name_resolves():
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "cox245" if path.stem == "__init__" else f"cox245.{path.stem}"
        mod = importlib.import_module(name)
        stale.extend(f"{path.name} {attr}" for attr in getattr(mod, "__all__", ())
                     if not hasattr(mod, attr))
    assert stale == []
