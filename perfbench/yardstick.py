"""A fixed reference kernel, timed every PERIOD seconds while the workload
runs, so that pass times can be read in units of what the machine
delivered at that moment.

On a 2-vCPU Xeon virtual machine of a shared host, pass times drift by a
third over minutes, and quiet runs a minute apart differed by 40%.
Sampling the kernel from a SIGALRM handler spreads its timings evenly over
the passes, long ones included, and the ratio of the median pass to the
median kernel timing cancels most of that drift. The handler's time is
taken out of the pass it interrupted.

The kernel imports numpy and scipy only, never dohazard, so no change to
the program moves it; a numpy or scipy upgrade can, so compare only records
whose machine entries name the same versions. It does the kinds of work a pass does, at a size
that finishes in a few milliseconds: Philox draws mapped to uniforms,
``ndtri``, ``log1p`` and ``exp``, a stable argsort, a reversed cumulative
sum, and an interpreter loop.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

PERIOD = 0.25
SIZE = 20_000
LOOP = 40_000


def kernel() -> float:
    """One fixed piece of work; returns a checksum so none of it is skipped."""
    import numpy as np
    from scipy.special import ndtri

    bits = np.random.Philox(key=np.array([20211004, 1], dtype=np.uint64))
    u = ((bits.random_raw(SIZE) >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    hazard = np.exp(0.3 * ndtri(u) + 0.1)
    times = -np.log1p(-u) / hazard
    order = np.argsort(times, kind="stable")
    at_risk = np.cumsum(hazard[order][::-1])[::-1]
    loop = 0
    for i in range(LOOP):
        loop += i * i % 7
    return float(at_risk[0]) + loop


class Yardstick:
    """Kernel timings taken while `sampling` is active, and the seconds the
    handler has taken in all."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that lands inside the handler is dropped
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took
        self._busy = False

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            if not self.samples:  # a run shorter than PERIOD still gets one
                self._sample(signal.SIGALRM, None)
