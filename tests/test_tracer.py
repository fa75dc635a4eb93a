"""The benchmark tracer (perfbench/tracer.py) wraps functions it looks up
by (module, name); a module move that drops one of those names breaks only
a traced benchmark run, so the lookup is checked here."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"mfckill.{mod}.{fn}" for mod, fn in tracer.TRACED
               if not callable(getattr(importlib.import_module(f"mfckill.{mod}"), fn, None))]
    assert tracer.TRACED and not missing
