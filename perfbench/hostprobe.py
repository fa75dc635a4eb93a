"""Sample how fast the host runs while a timed call runs, and correct for it.

On a shared host the CPU that runs the benchmark is slowed by other
tenants, by a factor that wanders between about 1 and 2.3 from one
hundredth of a second to the next and drifts over minutes (on the 2-CPU
box the baseline was taken on, with no steal time and the second CPU
idle).  A wall time carries that factor, and so does every statistic taken
inside one run, so two runs of the same code minutes apart can differ by
half.

`HostSampler.running()` therefore runs a fixed unit of work (`unit()`,
about a millisecond on a quiet host) from a SIGALRM handler every
`INTERVAL_S` while the timed call runs.  The handler runs in the
benchmark's own thread, between the call's bytecodes, so it meets the same
slowdown as the call around it.  `adjusted()` takes the units' own time
out of the wall time and divides the rest by the units' slowdown against
`UNIT_REF_S`, which gives seconds at a quiet host's speed as the unit
sees it.  On that box, over a few minutes, the log of a solve's wall time
had a standard deviation of 0.07-0.12 and the log of its adjusted time
0.02-0.03, on every workload; the slope of log wall time on log unit time
was 0.95-1.03.

`unit()` uses numpy only, never `mfckill`, so a change to the solvers
cannot change it.  It mixes the two kinds of work the workloads do:
interpreter-bound calls on small arrays, like the 1d marchers, and
streaming passes over larger arrays, like the 2d fields.
"""

import signal
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.025        # one unit per 25 ms: about 4-8% of the wall time
SMALL_CALLS = 300         # small-array expressions per unit (three numpy calls each)
STREAM_PASSES = 4         # multiply-add passes over the 512 KiB arrays per unit
_SMALL = np.linspace(0.0, 1.0, 101)
_A = np.linspace(0.0, 1.0, 1 << 16)
_B = _A[::-1].copy()
_C = np.empty_like(_A)

# Seconds one unit takes on a quiet host of the 2-CPU box the baseline was
# taken on (the 5th percentile of 22 000 units).  It only sets the scale.
UNIT_REF_S = 0.00095


def unit() -> float:
    """Run one fixed unit of work and return its wall seconds."""
    t0 = time.perf_counter()
    a = _SMALL
    for _ in range(SMALL_CALLS):
        a = np.minimum(a * 1.0001 + 0.5, 2.0)
    for _ in range(STREAM_PASSES):
        np.multiply(_A, _B, out=_C)
        np.add(_C, _A, out=_C)
    return time.perf_counter() - t0


unit()  # touch the arrays and warm the calls, so that the first sample is not a cold one


def adjusted(wall_s: float, probe_s: float, units: int) -> float:
    """`wall_s` less the units' own time, at a quiet host's speed."""
    if units == 0:   # a call shorter than INTERVAL_S: use one unit run just after it
        return wall_s * UNIT_REF_S / unit()
    slowdown = probe_s / units / UNIT_REF_S
    return (wall_s - probe_s) / slowdown


class HostSampler:
    """Units run, and their seconds, while `running()` was active."""

    def __init__(self):
        self.units = 0
        self.probe_s = 0.0

    def _tick(self, signum, frame):
        self.probe_s += unit()
        self.units += 1

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self) -> float:
        return self.probe_s / self.units / UNIT_REF_S if self.units else float("nan")
