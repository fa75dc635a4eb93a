"""Set up one workload in a fresh interpreter, print "ready", and exit.

`run.py` starts this script several times and times each start until the
"ready" line, which is the workload's set-up time from process start:
interpreter start, importing mfckill, building the model and grid, and
drawing the seeded inputs.  The host's speed is sampled from the import of
numpy on, and the line carries the samples' seconds and count:
"ready <seconds> <count>".

    python3 perfbench/probe_setup.py <workload> <seed>
"""

import sys

import bootstrap


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    bootstrap.cap_blas_threads()
    import hostprobe

    sampler = hostprobe.HostSampler()
    with sampler.running():
        mk = bootstrap.load_mfckill()
        import workloads

        workloads.WORKLOADS[name].setup(mk, seed)
    print(f"ready {sampler.probe_s!r} {sampler.units}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
