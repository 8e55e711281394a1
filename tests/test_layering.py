"""Module layering: the package namespace holds only ``__version__`` and
the submodules, private names stay inside the module that defines them
(dunders such as ``__version__`` are public), a group element's lazy fields
stay inside ``coxeter``, code is generated at one site, every exported
name exists and is used outside the tests, the CLI imports everything it runs up front and no
introspection module or rational arithmetic, the exact field stands
apart from the kernel, and only ``reports`` touches the garbage collector."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import cox245

PACKAGE = Path(cox245.__file__).parent


def test_package_namespace_is_version_and_submodules():
    """Every name is imported from the submodule that defines it; the
    package itself binds ``__version__`` and, once imported, submodules."""
    assert isinstance(cox245.__version__, str)
    extra = [name for name, value in vars(cox245).items() if not name.startswith("__")
             and not (isinstance(value, ModuleType) and value.__name__ == f"cox245.{name}")]
    assert extra == []


def test_cli_run_imports_no_module():
    """``import cox245.cli`` loads what a run needs, and no resource loader:
    a run of the built-in certificate list adds no module (site is off, so
    nothing but the package and its imports is loaded)."""
    code = (
        "import sys\n"
        "import cox245.cli\n"
        "loaded = set(sys.modules)\n"
        "code = cox245.cli.main(['verify', 'cayley-certs', '--json'])\n"
        "print(code, 'importlib.resources' in loaded, sorted(set(sys.modules) - loaded))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.splitlines()[-1] == "0 False []"


def test_cli_import_loads_no_introspection_module():
    """Start-up stays lean: ``import cox245.cli`` loads neither
    ``dataclasses`` nor what it pulls in (``inspect``), nor ``typing``, nor
    the rational arithmetic of ``cox245.exact`` (``fractions`` and what it
    pulls in, ``decimal`` and ``numbers``), nor the terminal-width lookup of
    argparse's default help formatter (``shutil``, which pulls in ``bz2``
    and ``lzma``)."""
    forbidden = ("dataclasses", "inspect", "typing", "fractions", "decimal", "numbers",
                 "shutil", "bz2", "lzma")
    code = (
        "import sys\n"
        "import cox245.cli\n"
        f"print([m for m in {forbidden!r} if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


def package_imports(path):
    """The package submodules that the module at ``path`` imports, by name
    (with ``from . import``, any name it imports from the package)."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("cox245."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "cox245":
                    continue
                module = module[len("cox245"):].lstrip(".")
            if module:
                out.add(module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_exact_field_stands_apart():
    """``exact`` imports only ``numberfield`` from the package, and no other
    module imports ``exact``: the check shares nothing with the kernel but
    the integral layer, and nothing the suites run depends on it."""
    assert package_imports(PACKAGE / "exact.py") == {"numberfield"}
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "exact.py" and "exact" in package_imports(path)] == []


def test_gc_is_imported_by_reports_alone():
    """The collector pause has one home: ``reports`` is the one module of
    the package that imports ``gc``."""
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if "gc" in names:
                importers.append(path.name)
    assert importers == ["reports.py"]


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


def used_names(path, strings=False):
    """The names the code at ``path`` uses: names it loads, attributes it
    reads and names it imports, and with ``strings`` its string constants
    (``perfbench/layers.py`` names what it traces by strings)."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


# Test-only until the replay checker of ROADMAP item 4 takes it over.
TEST_ONLY_EXPORTS = {"edgetypes.py find_pair_transport"}


def test_every_exported_name_is_used_outside_the_tests():
    """Each ``__all__`` name of a module other than ``exact`` (the kernel's
    test-only check, by design) is used by package code, its own module's
    included, or by a demo or ``perfbench/``: no name lives on for the
    tests alone."""
    root = PACKAGE.parents[1]
    used = set().union(*(used_names(path) for path in PACKAGE.glob("*.py")),
                       *(used_names(path) for path in (root / "demos").glob("*.py")),
                       *(used_names(path, strings=True) for path in (root / "perfbench").glob("*.py")))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ("__init__", "exact"):
            continue
        mod = importlib.import_module(f"cox245.{path.stem}")
        unused.extend(f"{path.name} {name}" for name in getattr(mod, "__all__", ())
                      if name not in used)
    assert sorted(unused) == sorted(TEST_ONLY_EXPORTS)


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
