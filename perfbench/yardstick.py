"""A fixed reference computation that gauges the host's current speed.

On a shared host the CPU speed swings by up to 2x over seconds and drifts
by tens of percent over tens of minutes, far more than the bounds the
benchmark holds a change to.  The benchmark therefore runs this kernel
between jobs, outside the timed spans, for a fixed share of the time the
jobs took, and scales its time metrics by the kernel's mean time over the
run: a time metric reads as it would on a host where one call of the
kernel takes NOMINAL_S.  The kernel is the benchmark's own code and mixes
the kinds of work sawqubit does (float loops in Python, "%.16e" formatting,
small complex matrix products, a tridiagonal eigensolve), so that a change
to sawqubit cannot move it and a slower host slows both alike.
"""
from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import eigh_tridiagonal

NOMINAL_S = 0.01  # about one call on a 2-vCPU Xeon VM
SHARE = 0.1  # kernel time per second of job time


def kernel() -> float:
    """Seconds one call of the reference computation takes."""
    start = time.perf_counter()
    x, v = 0.1, 0.0
    rows = []
    for _ in range(2500):  # an explicit Euler step of an oscillator
        v -= 1e-3 * x
        x += 1e-3 * v
        rows.append("%.16e,%.16e\n" % (x, v))
    "".join(rows)
    rot = np.array([[np.cos(0.1), -1j * np.sin(0.1)],
                    [-1j * np.sin(0.1), np.cos(0.1)]])
    u = np.kron(rot, rot)
    m = np.eye(4, dtype=complex)
    for _ in range(1000):
        m = u @ m
    diagonal = np.linspace(0.0, 4.0, 1000) ** 2
    eigh_tridiagonal(diagonal, -np.ones(999), select="i", select_range=(0, 3))
    return time.perf_counter() - start


class Yardstick:
    """Kernel timings taken between jobs; their mean gauges the host."""

    def __init__(self):
        self.samples = []

    def sample(self, job_seconds: float) -> None:
        """Run the kernel for SHARE of ``job_seconds``, at least once."""
        spent = 0.0
        while True:
            self.samples.append(kernel())
            spent += self.samples[-1]
            if spent >= SHARE * job_seconds:
                return

    def slowdown(self) -> float:
        """Mean kernel time over NOMINAL_S: 2 means a host half as fast."""
        return statistics.fmean(self.samples) / NOMINAL_S
