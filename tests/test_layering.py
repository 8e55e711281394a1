"""Module layering: private names stay inside the module that defines them
(dunders such as ``__version__`` are public), a group element's lazy fields
stay inside ``coxeter``, code is generated at one site, and every exported
name exists."""

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


def test_lazy_matrix_fields_stay_in_coxeter():
    """Only ``coxeter`` touches a group element's ``_mat`` and ``_up``; every
    other module reads ``mat``, which builds a lazy matrix first."""
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "coxeter.py":
            continue
        offences.extend(f"{path.name}:{node.lineno} {node.attr}"
                        for node in ast.walk(ast.parse(path.read_text(), str(path)))
                        if isinstance(node, ast.Attribute) and node.attr in ("_mat", "_up"))
    assert offences == []


def test_every_exported_name_resolves():
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "cox245" if path.stem == "__init__" else f"cox245.{path.stem}"
        mod = importlib.import_module(name)
        stale.extend(f"{path.name} {attr}" for attr in getattr(mod, "__all__", ())
                     if not hasattr(mod, attr))
    assert stale == []


def test_code_is_generated_at_one_site():
    """The package calls the ``exec`` and ``compile`` builtins once each,
    inside ``coxeter._compile``, which every generated kernel goes through,
    and ``eval`` nowhere."""
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        enclosing = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                enclosing[child] = (node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                                    else enclosing.get(node, "<module>"))
        calls.extend(f"{path.name}:{enclosing[node]} {node.func.id}" for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                     and node.func.id in ("exec", "compile", "eval"))
    assert sorted(calls) == ["coxeter.py:_compile compile", "coxeter.py:_compile exec"]
