"""Host-speed calibration for the benchmark's timings.

The 2-vCPU host the workloads were measured on (numpy 2.4.6, OpenBLAS
0.3.31) switches between speed levels about 1.45x apart and stays at one for
minutes, so wall times of identical work spread more across runs (up to 0.35
IQR/median over ten runs) than any useful regression bound. A fixed kernel of
interpreter and small-numpy work, the same mix the training loop does, is
timed next to the measured work; dividing by it removes most of the host's
level (the same spreads fell to 0.03-0.12).

A timing ``t`` measured while the kernel took ``k`` seconds is reported as
``t * REFERENCE_KERNEL_S / k``: seconds on a host where the kernel takes
``REFERENCE_KERNEL_S``. The kernel does not touch the program under test, so
a faster program still reports less time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_KERNEL_S = 1e-3
_A = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32)


def _kernel() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(6000):
        s += i * i
    for _ in range(50):
        np.tanh(_A @ _A)
    return time.perf_counter() - t0


def kernel_seconds(repeats: int = 5) -> float:
    """Median time of one kernel over ``repeats`` back-to-back runs."""
    return statistics.median(_kernel() for _ in range(repeats))


def speed_factor(kernel_samples) -> float:
    """Multiply a wall time by this to get reference seconds."""
    return REFERENCE_KERNEL_S / statistics.median(kernel_samples)
