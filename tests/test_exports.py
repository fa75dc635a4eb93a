import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mfckill

MODULES = sorted(m.name for m in pkgutil.iter_modules(mfckill.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name left in __all__ after its definition is gone breaks
    # `from mfckill.<module> import *`
    mod = importlib.import_module(f"mfckill.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


SRC = Path(mfckill.__file__).resolve().parent
PERFBENCH = SRC.parents[1] / "perfbench"


# Public names that only the tests call, each an entry point of the
# library, with the reason it stays public.
ENTRY_POINTS = {
    "mfc.solve_mfc_2d": "the joint-feedback control loop: acceptance criterion 10 "
                        "solves with it, and no CLI experiment runs it yet",
}


def _references(path):
    """The names a file's code refers to: names, attributes, imported
    names and string constants, none of them inside its `__all__`.
    Docstrings and comments name things only in prose and do not count."""
    found = set()

    def visit(node):
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            return
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text()))
    return found


def test_every_public_name_is_reached():
    # a public name that no code in the library or the benchmark reaches is
    # code only tests run; it belongs in the tests, not in the package,
    # unless it is a listed entry point
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    files += sorted(PERFBENCH.glob("*.py"))
    reached = set().union(*map(_references, files))
    unreached = {f"{name}.{public}"
                 for name in MODULES
                 for public in getattr(importlib.import_module(f"mfckill.{name}"), "__all__", ())
                 if public not in reached}
    assert unreached == set(ENTRY_POINTS)


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    # the repository runs no linter: a name a module imports and never reads
    # is left over from a change; `__init__.py` only re-exports, so it is
    # not scanned, and a name in a module's `__all__` counts as read
    tree = ast.parse((SRC / f"{name}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read.update(getattr(importlib.import_module(f"mfckill.{name}"), "__all__", ()))
    assert sorted(imported - read) == []


def _fresh(code):
    """What `code` prints in a fresh interpreter that imports this mfckill:
    the test process has imported scipy.linalg itself."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def test_import_skips_scipy_linalg_init():
    # steps loads scipy's compiled LAPACK module from its file; the package
    # init of scipy.linalg, and the numpy.f2py and numpy.testing it pulls
    # in, cost every process ~0.2 s and 25 MB
    code = ("import sys, mfckill\n"
            "print([m for m in ('scipy.linalg', 'numpy.f2py', 'numpy.testing') "
            "if m in sys.modules])")
    assert _fresh(code) == "[]"


@pytest.mark.parametrize("first", ["mfckill", "scipy.linalg"])
def test_diffusion_solves_call_scipys_lapack(first):
    # whichever package a process imports first, the diffusion solves call
    # the routines scipy.linalg.lapack exports and raise its LinAlgError
    code = (f"import {first}\n"
            "import scipy.linalg, scipy.linalg.lapack as lapack\n"
            "from mfckill import steps\n"
            "print([getattr(steps, n) is getattr(lapack, n) for n in ('dgtsv', 'dpttrf', 'dpttrs')]"
            " + [steps.LinAlgError is scipy.linalg.LinAlgError])")
    assert _fresh(code) == "[True, True, True, True]"
