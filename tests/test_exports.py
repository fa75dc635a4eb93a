import importlib
import pkgutil

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
