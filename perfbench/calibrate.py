"""Host-speed calibration: a fixed kernel timed next to the measured work.

The benchmark runs on shared virtual machines whose speed drifts by 20 % and
more within minutes, which shows in every timing alike.  The kernel mixes
the kinds of work selfnorm does: interpreter loops, generator construction
and small draws, many small NumPy calls, and passes over larger arrays.  It uses no selfnorm code,
so a change to the program never changes it.  A time scaled by
``REFERENCE_S / kernel time``, with the kernel timed just before and after
it, reads as seconds on the reference machine.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the reference machine: 2-vCPU Intel Xeon VM,
# Python 3.11.7, NumPy 2.4.6.
REFERENCE_S = 0.05


def kernel() -> float:
    """About 0.05 s of fixed work of four kinds."""
    total = 0.0
    for i in range(100_000):
        total += (i * i) % 7
    for seed in range(500):
        rng = np.random.Generator(np.random.Philox(key=seed))
        total += float(rng.random(64).sum())
    small = np.linspace(0.0, 1.0, 1000)
    for _ in range(1500):
        small = np.minimum(small + 0.5, small[::-1] + 0.25) - 0.5
    big = np.linspace(0.0, 1.0, 100_000)
    for _ in range(100):
        big = np.sqrt(big * big + 1.0) - 1.0
    return total + float(small[0]) + float(big[-1])


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def to_reference(seconds: float, kernel_times) -> float:
    """``seconds`` measured between these kernel runs, in reference-machine seconds."""
    return seconds * REFERENCE_S / statistics.fmean(kernel_times)
