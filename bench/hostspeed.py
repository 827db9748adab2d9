"""Host speed, read from a fixed numpy kernel, to rescale measured times.

The benchmark's host is a 2-vCPU virtual machine whose speed swings by up to
2x within minutes as other tenants load the physical cores: the same pass
took 5.4 s and 11.5 s ten minutes apart.  Raw pass times are therefore
rescaled to a reference speed.  The kernel (log, clip and row sums over a
4096 x 20 array) is timed just before and just after the measured work; the
time of the work is multiplied by REFERENCE_S / (mean kernel time).  The
kernel is independent of cme, so a change to the package moves the rescaled
time exactly as it moves the raw one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time on a 2-vCPU Intel Xeon KVM guest in its common, uncontended
# state.
REFERENCE_S = 300e-6
REPS = 5


def kernel_s(seconds: float = 0.4) -> float:
    """Median seconds per kernel call over about `seconds` of calls.

    The kernel writes into preallocated buffers, so its time does not depend
    on the state of the process's allocator.
    """
    a = np.linspace(0.5, 1.5, 4096 * 20).reshape(4096, 20)
    buf, rows = np.empty_like(a), np.empty(a.shape[0])

    def kernel():
        np.log(a, out=buf)
        np.subtract(buf, 0.5, out=buf)
        np.maximum(buf, 0.0, out=buf)
        buf.sum(axis=1, out=rows)

    kernel()
    samples = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        t0 = time.perf_counter()
        for _ in range(REPS):
            kernel()
        samples.append((time.perf_counter() - t0) / REPS)
    return statistics.median(samples)


def rescale(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between two kernel readings, at the reference speed."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
