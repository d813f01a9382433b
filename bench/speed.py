"""A fixed reference kernel that tracks how fast the machine runs right now.

Shared machines change speed under the benchmark.  On a shared 2-core
Intel Xeon machine, one fixed item took about 90 ms for tens of
seconds, then about 150 ms for the next tens of seconds, with nothing else
of ours running.  The kernel below mixes the kinds of work the library does:
small dense linear algebra through numpy and scipy, and interpreted Python
arithmetic.  Its time, measured right before each item, follows those
swings: the ratio of an item's time to the kernel's stayed within about 5%
while both moved by 60%.

Multiplying an item's wall time by REFERENCE_S divided by the kernel's
time gives the item's time at the reference speed: the kernel's speed on
that machine when it ran at full speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

# a round figure near the kernel's time between items on a shared 2-core
# Intel Xeon machine at full speed (Python 3.11.7, numpy 2.4.6, scipy 1.17.1,
# BLAS threads pinned to 1)
REFERENCE_S = 1.0e-3
REPEATS = 3  # kernel runs per reading
WINDOW = 5  # readings on either side that an item's time is scaled by


class Speedometer:
    """Times the reference kernel."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                     for _ in range(20)]
        self.kernel()  # the first call pays for lazy imports

    def kernel(self):
        total = 0
        for m in self.mats:
            scipy.linalg.expm(m)
            np.linalg.eigvals(m)
            np.linalg.svd(m)
            for j in range(200):
                total += j
        return total

    def seconds(self):
        """Median kernel time over REPEATS runs, now."""
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


def rescaled(elapsed, kernel):
    """Each wall time at the reference speed.  The kernel time it is scaled
    by is the median of the readings taken before it and before the WINDOW
    items on either side: that follows the machine's speed without the
    jitter of a single reading."""
    return [t * REFERENCE_S / statistics.median(kernel[max(0, i - WINDOW):i + WINDOW + 1])
            for i, t in enumerate(elapsed)]
