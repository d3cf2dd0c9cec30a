"""Host-speed calibration for the end-to-end metrics.

On a shared host the same process runs up to a third slower for seconds
to minutes at a time, and user + system CPU time slows with it: the cores
themselves run slower while co-tenants compete for them, their caches and
memory.  The benchmark therefore runs a fixed calibration kernel in the
harness (this module, which imports nothing from convlab) before the first
measured process and after every one, and scales each process's wall and
CPU time by

    REF_S / mean(calibration just before, calibration just after)

so a time is reported at the host's reference speed.  The kernel mixes
what the program does: a fresh 24 MB numpy array (page faults and memory
streaming), sieve-like strided updates, a cumulative sum, short numpy
calls on small arrays, and interpreted Python with dict and integer work.
A change to convlab never changes the kernel, so a faster program reads
faster by exactly its own speed-up.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's wall time on the reference host (2-vCPU Intel Xeon VM,
# Python 3 with numpy), a median over many samples.  Only its constancy
# matters: it sets the unit, so that scaled times read as seconds.
REF_S = 0.05

_SMALL = np.arange(20_000, dtype=np.int64)


def _run_kernel() -> float:
    t0 = time.perf_counter()
    big = np.ones(3_000_000, dtype=np.int64)
    for p in (2, 3, 5, 7, 11, 13):
        big[::p] += p
    total = int(np.cumsum(big)[-1])
    del big
    small = _SMALL
    for _ in range(20):
        small = (small * 3 + 1) % 1_000_003
        total += int(small.sum())
    seen = {}
    for i in range(30_000):
        total += (i * i) % 7
        seen[i & 1023] = total
    if total <= 0:
        raise AssertionError("calibration kernel computed nonsense")
    return time.perf_counter() - t0


def kernel() -> float:
    """One calibration sample: the median of three runs of the kernel, in
    seconds, so that a burst of contention shorter than one run is ignored."""
    return statistics.median(_run_kernel() for _ in range(3))


class Speed:
    """Calibration samples between measured processes, and the scale for each."""

    def __init__(self) -> None:
        kernel()  # the first sample in a process pays numpy's first large allocation
        self.last = kernel()
        self.samples = [self.last]

    def scale_after(self) -> float:
        """Calibrate now; the scale for the process that ran since the last sample."""
        now = kernel()
        self.samples.append(now)
        scale = REF_S / ((self.last + now) / 2.0)
        self.last = now
        return scale
