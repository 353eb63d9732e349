"""Timing in units of a reference loop, for hosts whose CPU speed drifts.

On small shared hosts the speed of one virtual CPU swings by about 1.5x over
seconds, and the two CPUs of a 2-core guest drift independently.  Raw seconds
from two sets of runs then disagree by more than any useful bound.  Instead,
every timed call is divided by the mean time of a ~10 ms reference loop run on
the same CPU: once just before and once just after the call, and every
SAMPLE_PERIOD_S during it from a sampling thread.  The process is pinned to
one CPU so the sampler measures the CPU the call runs on; the sampler holds
the interpreter lock while it runs, so its time is subtracted from the call's.
"""

from __future__ import annotations

import os
import statistics
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

SAMPLE_PERIOD_S = 0.1
# long enough that the sampler's ~10 ms loop is never interrupted by the timed thread
SWITCH_INTERVAL_S = 0.05


def reference_loop() -> int:
    """About 10 ms of the interpreter work the package does: Fraction and dict arithmetic."""
    acc = Fraction(0)
    table: dict = {}
    for k in range(1, 1800):
        acc += Fraction(k % 11 + 1, k % 97 + 1)
        key = (k % 13, k % 7)
        table[key] = table.get(key, 0) + acc.numerator % 1009
    return len(table)


def time_reference() -> float:
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


def pin_to_one_cpu():
    """Run this process, its threads and its children on one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.setswitchinterval(SWITCH_INTERVAL_S)


@dataclass
class Timing:
    seconds: float  # the call's own time, sampler time taken out
    wall: float  # the call's wall time, sampler time included
    ref: float  # mean reference-loop time around and during the call

    @property
    def refs(self) -> float:
        return self.seconds / self.ref


class RefClock:
    """Times calls; consecutive calls share the reference run between them."""

    def __init__(self):
        self._last = time_reference()

    def time(self, fn):
        samples: list[tuple[float, float]] = []
        stop = threading.Event()

        def sample():
            while not stop.wait(SAMPLE_PERIOD_S):
                samples.append((perf_counter(), time_reference()))

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        start = perf_counter()
        try:
            result = fn()
        finally:
            end = perf_counter()
            stop.set()
            sampler.join()
        inside = [d for t, d in samples if t < end]
        after = time_reference()
        ref = statistics.fmean([self._last, after] + inside)
        self._last = after
        wall = end - start
        return result, Timing(seconds=wall - sum(inside), wall=wall, ref=ref)
