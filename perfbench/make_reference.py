"""Recompute the reference outputs that `run.py` checks the default seed against.

    python3 perfbench/make_reference.py

Runs every workload once with `workloads.DEFAULT_SEED` and rewrites
`reference.json` (scalars, exact decimal round-trip) and
`reference_arrays.npz` (the converged controls).  Rerun it only in a
change that is meant to alter the solvers' outputs, and say so there.
"""

import json
import sys
import time

import bootstrap

from run import HERE


def main() -> int:
    mk = bootstrap.load_mfckill()
    import numpy as np

    import workloads

    scalars, arrays = {}, {}
    for name, wl in workloads.WORKLOADS.items():
        inputs = wl.setup(mk, workloads.DEFAULT_SEED)
        t0 = time.perf_counter()
        out = wl.solve(mk, **inputs)
        values, fields = wl.reference(out)
        scalars[name] = values
        arrays.update({f"{name}.{k}": v for k, v in fields.items()})
        print(f"{name}: {values} ({time.perf_counter() - t0:.1f} s)", flush=True)
    with open(HERE / "reference.json", "w") as f:
        json.dump(scalars, f, indent=1)
        f.write("\n")
    np.savez_compressed(HERE / "reference_arrays.npz", **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())
