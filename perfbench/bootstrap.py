"""Load `mfckill` from the `src/` tree next to this directory.

Caps the BLAS thread pools at the number of usable CPUs before numpy is
imported, and refuses to fall back to any installed copy of the package:
the benchmark measures the source it sits beside, or nothing.
"""

import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SourceMissing(RuntimeError):
    pass


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """Cap the BLAS thread pools; takes effect only before numpy is imported."""
    cap = str(usable_cpus())
    for var in BLAS_THREAD_VARS:
        os.environ[var] = cap


def load_mfckill():
    """Return the `mfckill` package imported from `<root>/src`."""
    if not (SRC / "mfckill" / "__init__.py").is_file():
        raise SourceMissing(f"no mfckill sources under {SRC}")
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    mk = importlib.import_module("mfckill")
    if Path(mk.__file__).resolve().parent != SRC / "mfckill":
        raise SourceMissing(f"mfckill imported from {mk.__file__}, not {SRC}")
    return mk
