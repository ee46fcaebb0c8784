"""Machine-speed probe, so that timings survive a shared host.

On a shared machine the same computation can run up to twice as slow while
other tenants load it, in phases lasting seconds; CPU time rises with wall
time, so it does not help.  ``probe()`` times a fixed pure-Python kernel
that does the kind of work hopnorms does (float recurrences, small object
allocation, function calls, heap operations) without touching hopnorms, so
its time tracks the machine and not the program under test.

A timing taken between two probes is rescaled to a reference speed:
multiplied by ``REFERENCE_S / local``, where ``local`` is the mean of the
two probes around it.  REFERENCE_S is the kernel's time on the quiet 2-CPU
container the benchmark was built on, so rescaled times read as
milliseconds there, whatever the load and speed of the machine running it.
On that container this cut the spread of 10-second medians of one fixed
request from 41% (raw) to 2%.
"""
from __future__ import annotations

import gc
import heapq
import math
import time

REFERENCE_S = 1.1e-3


class _Point:
    __slots__ = ("sign", "log_abs")

    def __init__(self, sign, log_abs):
        self.sign = sign
        self.log_abs = log_abs


def _step(x: float, k: int, p1: float, p0: float) -> float:
    return 2.0 * x * p1 - 2.0 * k * p0


def _kernel() -> float:
    heap, acc = [], 0.0
    for j in range(300):
        x = 0.013 * j - 2.0
        p0, p1 = 1.0, 2.0 * x
        for k in range(1, 24):
            p0, p1 = p1, _step(x, k, p1, p0)
        v = _Point(1 if p1 > 0 else -1, math.log(abs(p1) + 1e-300))
        heapq.heappush(heap, (-v.log_abs, j, v))
        acc += math.exp(-abs(v.log_abs) * 1e-3)
    while heap:
        heapq.heappop(heap)
    return acc


def probe() -> float:
    """Seconds one run of the kernel takes right now (about 1 ms when quiet).

    The garbage collector is off meanwhile, so that collections the program
    under test has made due do not land in the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def rescale(seconds: float, before: float, after: float) -> float:
    """A timing taken between probes ``before`` and ``after``, at the
    reference speed."""
    return seconds * REFERENCE_S / (0.5 * (before + after))


def rescale_all(latencies: list, probes: list) -> list:
    """Back-to-back timings; ``probes`` has one more entry, one around each."""
    return [rescale(t, probes[k], probes[k + 1]) for k, t in enumerate(latencies)]
