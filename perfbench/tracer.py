"""Spans around the calls into each `mfckill` module's public functions.

`Tracer.installed()` replaces each traced function by a wrapper at every
name the package's modules bind it to (for example both
`mfckill.forward.diffuse` and `mfckill.backward.diffuse`), and puts the
originals back on exit.  Spans are kept in memory as
(name, start, end, parent) and written out once, at the end; counts are
read from the returned objects at the same boundaries.
"""

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, function); the span is named "<module>.<function>"
TRACED = (
    ("mfc", "solve_mfc"),
    ("mfc", "evaluate_cost"),
    ("mfc", "smp_residual"),
    ("mfc", "gateaux_derivative"),
    ("forward", "solve_forward_1d"),
    ("forward", "solve_forward_2d"),
    ("forward", "diffuse"),
    ("forward", "shift_density"),
    ("backward", "solve_backward_1d"),
    ("backward", "solve_backward_2d"),
    ("backward", "energy_report"),
    ("hamiltonians", "minimize_hamiltonian"),
    ("hamiltonians", "minimize_k_tilde"),
    ("hamiltonians", "f_nu"),
    ("measures", "s_map"),
    ("particles", "simulate_particles"),
    ("particles", "estimate_cost_mc"),
)


def _backward_2d_mode(args, kwargs) -> str:
    u_1d = kwargs.get("u_1d", args[4] if len(args) > 4 else None)
    return "semilinear" if u_1d is not None else "linear"


def span_names() -> list:
    names = []
    for mod, fn in TRACED:
        if fn == "solve_backward_2d":
            names += [f"{mod}.{fn}.semilinear", f"{mod}.{fn}.linear"]
        else:
            names.append(f"{mod}.{fn}")
    return names


class Tracer:
    def __init__(self):
        self.spans = []                       # (name, start, end, parent index)
        self.inner_iterations = defaultdict(list)   # span name -> per-step counts
        self.counts = defaultdict(int)
        self._stack = []

    def _wrap(self, name, fn):
        by_mode = fn.__name__ == "solve_backward_2d"

        def traced(*args, **kwargs):
            span = f"{name}.{_backward_2d_mode(args, kwargs)}" if by_mode else name
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (span, t0, t1, parent)
            self._count(span, out)
            return out

        return traced

    def _count(self, span, out):
        if span == "mfc.solve_mfc":
            self.counts["mfc.picard_sweeps"] += out.diagnostics["picard_iterations"]
        elif span in ("backward.solve_backward_1d", "backward.solve_backward_2d.semilinear"):
            self.inner_iterations[span].extend(out.fixed_point.iterations)
        if span.startswith("backward.solve_backward_2d"):
            self.counts["backward.solve_backward_2d.computed_bytes"] += (
                out.u.size * out.u.itemsize + out.q.size * out.q.itemsize)
        elif span == "particles.simulate_particles":
            self.counts["particles.particle_steps"] += out.n * out.grid.nt

    @contextmanager
    def installed(self):
        """Bind the wrappers at every `mfckill` name of each traced function."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mfckill" or n.startswith("mfckill."))]
        saved = []
        try:
            for mod, fn in TRACED:
                original = getattr(sys.modules[f"mfckill.{mod}"], fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            saved.append((m, attr, original))
                            setattr(m, attr, wrapper)
            yield self
        finally:
            for m, attr, original in reversed(saved):
                setattr(m, attr, original)

    def arrays(self):
        """Spans as arrays: name ids, starts, ends, parent indices, names."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        name_id = np.array([ids[s[0]] for s in self.spans], dtype=np.int32)
        start = np.array([s[1] for s in self.spans])
        end = np.array([s[2] for s in self.spans])
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        return name_id, start, end, parent, names

    def layer_times(self) -> dict:
        """calls, total_s and self_s per span name (self excludes child spans)."""
        out = {}
        if not self.spans:
            return out
        name_id, start, end, parent, names = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        for i, n in enumerate(names):
            sel = name_id == i
            out[n] = (int(sel.sum()), float(dur[sel].sum()), float(own[sel].sum()))
        return out

    def save(self, path) -> None:
        name_id, start, end, parent, names = self.arrays()
        np.savez_compressed(path, name_id=name_id, start=start, end=end,
                            parent=parent, names=np.array(names))
