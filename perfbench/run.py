"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload quickstart --seed 7 --seconds 25 --trace 0

With `--trace 0` the workload's library calls run back to back, one solve
at a time in this single process, until `--seconds` is used up; each
solve's outputs are checked.  The host's speed is sampled during every
timed solve and set-up (`hostprobe.py`), and each time is reported at a
quiet host's speed.  The end-to-end metrics are `solve_s` (the median
solve of the run), `setup_s` (the median of several fresh-process
set-ups), and `peak_rss_mb`.  With `--trace 1` the workload runs once
untraced and once with a span around every call into the traced `mfckill` functions;
the two runs must give bit-identical outputs, and the per-layer metrics
come from the traced one.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A fuller record, with the
environment and every sample, goes to `.perfbench_out/`, and the spans of
a traced run to `.perfbench_out/spans-<workload>-seed<seed>.npz`.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
OUT_DIR = bootstrap.ROOT / ".perfbench_out"
SETUP_PROBES = 3
MIN_SOLVES = 3     # a median of at least three, even when one solve fills a third of the budget


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def l3_bytes():
    """Size of the L3 cache of CPU 0 from sysfs, or None."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            if (idx / "level").read_text().strip() != "3":
                continue
            size = (idx / "size").read_text().strip()
        except OSError:
            return None
        scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
        return int(size.rstrip("KM")) * scale
    return None


def environment(np, scipy, workloads) -> dict:
    return {
        "nproc": bootstrap.usable_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_thread_cap": int(os.environ[bootstrap.BLAS_THREAD_VARS[0]]),
        "l3_bytes": l3_bytes(),
        "halfplane_field_bytes": workloads.halfplane_field_bytes(),
    }


def time_setups(workload: str, seed: int, n: int):
    """Seconds from process start to "ready" for `n` fresh set-ups, as
    (adjusted to a quiet host, wall) lists."""
    import hostprobe  # imports numpy, so only after bootstrap capped BLAS threads

    samples, walls = [], []
    cmd = [sys.executable, str(HERE / "probe_setup.py"), workload, str(seed)]
    for _ in range(n):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            walls.append(time.perf_counter() - t0)
            proc.stdout.read()
        fields = line.split()
        if proc.returncode != 0 or len(fields) != 3 or fields[0] != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        samples.append(hostprobe.adjusted(walls[-1], float(fields[1]), int(fields[2])))
    return samples, walls


def load_reference(np, workload: str):
    with open(HERE / "reference.json") as f:
        scalars = json.load(f)[workload]
    with np.load(HERE / "reference_arrays.npz") as z:
        arrays = {k.split(".", 1)[1]: z[k] for k in z.files
                  if k.startswith(workload + ".")}
    return scalars, arrays


def digests(np, out: dict) -> dict:
    """Bit-level fingerprints of every output."""
    d = {}
    for key, value in out.items():
        if isinstance(value, np.ndarray):
            h = hashlib.blake2b(np.ascontiguousarray(value).tobytes(), digest_size=16)
            d[key] = f"{value.dtype}{value.shape}:{h.hexdigest()}"
        else:
            d[key] = repr(value)
    return d


def attempt(wl, mk, inputs, seed, ref, ref_arrays, sampler=None):
    """One timed solve and its checks: (seconds, failures, outputs or None).
    A `sampler` samples the host's speed during the solve."""
    sampling = sampler.running() if sampler else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with sampling:
            out = wl.solve(mk, **inputs)
    except Exception as exc:  # a solve that raises is a counted failure
        return time.perf_counter() - t0, [f"raised {type(exc).__name__}: {exc}"], None
    elapsed = time.perf_counter() - t0
    return elapsed, wl.check(out, seed, ref, ref_arrays), out


def run_timed(wl, mk, inputs, args, ref, ref_arrays):
    """Solve back to back: at least `MIN_SOLVES`, then more while a median
    solve still fits in `args.seconds`.  Returns the solve times adjusted
    to a quiet host, their wall times, the host's slowdown during each, and
    the failures of each."""
    import hostprobe  # imports numpy, so only after bootstrap capped BLAS threads

    samples, walls, slowdowns, failures = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        sampler = hostprobe.HostSampler()
        elapsed, fails, out = attempt(wl, mk, inputs, args.seed, ref, ref_arrays, sampler)
        del out  # free the outputs before the next solve allocates its own
        samples.append(hostprobe.adjusted(elapsed, sampler.probe_s, sampler.units))
        walls.append(elapsed)
        slowdowns.append(sampler.slowdown())
        failures.append(fails)
        if (len(samples) >= MIN_SOLVES
                and time.perf_counter() + statistics.median(walls) > deadline):
            return samples, walls, slowdowns, failures


def layer_metrics(np, tracing, tr, traced_s: float, untraced_s: float) -> dict:
    times = tr.layer_times()
    m = {}
    for name in tracing.span_names():
        calls, total, own = times.get(name, (0, 0.0, 0.0))
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.total_s"] = (total, "s")
        m[f"{name}.self_s"] = (own, "s")

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    iters = [i for v in tr.inner_iterations.values() for i in v]
    m["mfc.picard_sweeps"] = (tr.counts["mfc.picard_sweeps"], "count")
    m["backward.inner_iterations_total"] = (int(sum(iters)), "count")
    for label, q in (("p50", 50), ("p90", 90), ("max", 100)):
        value = float(np.percentile(iters, q)) if iters else 0.0
        m[f"backward.inner_iterations_{label}"] = (value, "count")
    for span in ("backward.solve_backward_1d", "backward.solve_backward_2d.semilinear"):
        m[f"{span}.us_per_inner_iteration"] = (
            per(m[f"{span}.total_s"][0], sum(tr.inner_iterations[span]), 1e6), "us")
    m["forward.diffuse.us_per_call"] = (
        per(m["forward.diffuse.total_s"][0], m["forward.diffuse.calls"][0], 1e6), "us")
    m["particles.particle_steps_per_s"] = (
        per(tr.counts["particles.particle_steps"],
            m["particles.simulate_particles.total_s"][0]), "1/s")
    m["backward.solve_backward_2d.computed_bytes"] = (
        tr.counts["backward.solve_backward_2d.computed_bytes"], "bytes")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return m


def run_traced(wl, mk, inputs, args, ref, ref_arrays, np, tracing):
    """An untraced and a traced solve of the same inputs, compared bit for bit."""
    untraced_s, fails_plain, out = attempt(wl, mk, inputs, args.seed, ref, ref_arrays)
    plain = digests(np, out) if out is not None else None
    del out
    tr = tracing.Tracer()
    with tr.installed():
        traced_s, fails_traced, out = attempt(wl, mk, inputs, args.seed, ref, ref_arrays)
    traced = digests(np, out) if out is not None else None
    del out
    if plain is not None and traced is not None and plain != traced:
        differ = sorted(k for k in plain if plain[k] != traced[k])
        fails_traced.append(f"traced outputs differ from untraced: {differ}")
    OUT_DIR.mkdir(exist_ok=True)
    tr.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
    metrics = layer_metrics(np, tracing, tr, traced_s, untraced_s)
    return [untraced_s, traced_s], [fails_plain, fails_traced], metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        mk = bootstrap.load_mfckill()
    except bootstrap.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import numpy as np
    import scipy

    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    ref, ref_arrays = load_reference(np, args.workload)
    env = environment(np, scipy, workloads)

    setups, setup_walls = ([], []) if args.trace else time_setups(
        args.workload, args.seed, SETUP_PROBES)
    inputs = wl.setup(mk, args.seed)
    walls, slowdowns = [], []
    if args.trace:
        samples, failures, metrics = run_traced(
            wl, mk, inputs, args, ref, ref_arrays, np, tracing)
    else:
        samples, walls, slowdowns, failures = run_timed(
            wl, mk, inputs, args, ref, ref_arrays)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # the median, not the fastest solve: the slowdown estimate of one
        # solve can be off, and the median does not follow the odd one
        metrics = {
            "solve_s": (statistics.median(samples), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        }
    failed = sum(1 for f in failures if f)
    fail_frac = failed / len(failures)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"env {json.dumps(env)}")
    print(f"solve samples (s): {', '.join(f'{s:.4f}' for s in samples)}"
          f"  (median {statistics.median(samples):.4f})")
    if walls:
        print(f"solve wall times (s): {', '.join(f'{s:.4f}' for s in walls)}")
        print(f"host slowdown during each solve: {', '.join(f'{s:.3f}' for s in slowdowns)}")
    if setups:
        print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
        print(f"setup wall times (s): {', '.join(f'{s:.4f}' for s in setup_walls)}")
    for i, fails in enumerate(failures):
        for msg in fails:
            print(f"CHECK FAILED (solve {i}): {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{name:60s} {value:>16.6g} {unit}")
    print(f"{'fail_frac':60s} {fail_frac:>16.6g} ratio ({failed}/{len(failures)})")

    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, solve_samples=samples,
                  solve_wall_samples=walls, solve_slowdowns=slowdowns,
                  setup_samples=setups, setup_wall_samples=setup_walls,
                  failures=failures, fail_frac=fail_frac,
                  metrics=reported)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)

    print(json.dumps({"correct": failed == 0, "attempted": len(failures),
                      "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
