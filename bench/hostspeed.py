"""Host-speed calibration for the benchmark's timing metrics.

The benchmark host shares its physical cores with other tenants, and
its speed drifts by up to 2x over seconds to minutes.  A run that lands
in a slow stretch is slow as a whole, so no estimator over the run's own
items can cancel the drift.  Each run therefore also times a fixed
calibration pass between its waves and setups: a dict-and-string loop,
an object-allocation-and-sort loop and a small-array numpy loop, the
kinds of work the program does.  None of them calls the program, so a
change to the program cannot move them.

The run's calibration time is its fastest pass.  Every timing metric is
scaled by ``REFERENCE_MS`` over that time: on a host as fast as the
reference, the scaled numbers are wall-clock times, and on a host
slowed by a common factor they are the times the reference host would
have measured.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: calibration time, in ms, of a quiet stretch of the reference host
#: (a 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4)
REFERENCE_MS = 6.9

#: passes per sample: the fleet run takes only a few samples (one per
#: setup and per 6-s wave), and a minimum over few passes drifts with
#: the host
ROUNDS = 3


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


def _dict_str() -> int:
    counts: dict = {}
    total = 0
    for i in range(12_000):
        k = i % 97
        counts[k] = counts.get(k, 0) + i
        total += len(str(i))
    return total


def _objects() -> int:
    pts = [_Point(i, (i * 7919) % 1000) for i in range(4_000)]
    pts.sort(key=lambda p: (p.b, p.a))
    return sum(p.a for p in pts[::7]) + len({(p.b, p.a % 3) for p in pts})


def _arrays() -> float:
    a = np.arange(64.0)
    total = 0.0
    for _ in range(600):
        b = a[1:-1] * 0.5 + a[2:] - a[:-2]
        total += float(b.sum())
    return total


class HostSpeed:
    """Fastest calibration pass over a run's samples."""

    def __init__(self):
        self.best = math.inf

    def sample(self) -> None:
        """Time ``ROUNDS`` passes (between waves, outside every
        timing)."""
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            _dict_str()
            _objects()
            _arrays()
            self.best = min(self.best, time.perf_counter() - t0)

    def calibration_ms(self) -> float:
        return self.best * 1e3

    def factor(self) -> float:
        """Multiply a measured time by this to scale it to the
        reference host (divide a rate by it)."""
        return REFERENCE_MS / self.calibration_ms()
