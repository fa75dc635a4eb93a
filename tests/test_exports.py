import ast
import importlib
import pkgutil
import re
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


def _reference_lines(path):
    """(lines, in_all, defined): the file's lines, the line numbers of its
    `__all__`, and the def/class line of each name it defines; neither
    counts as a reference."""
    source = path.read_text()
    in_all, defined = set(), {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            in_all.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
    return source.splitlines(), in_all, defined


def test_every_public_name_is_reached():
    # a public name that nothing in the library or the benchmark reaches is
    # code only tests run; it belongs in the tests, not in the package
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    files += sorted(PERFBENCH.glob("*.py"))
    scanned = {p: _reference_lines(p) for p in files}
    unreached = []
    for name in MODULES:
        own = SRC / f"{name}.py"
        for public in getattr(importlib.import_module(f"mfckill.{name}"), "__all__", ()):
            word = re.compile(rf"\b{re.escape(public)}\b")
            reached = any(
                word.search(line)
                for path, (lines, in_all, defined) in scanned.items()
                for i, line in enumerate(lines, 1)
                if i not in in_all and not (path == own and defined.get(public) == i))
            if not reached:
                unreached.append(f"{name}.{public}")
    assert unreached == []


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
