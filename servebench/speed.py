"""The host's speed, read by a fixed probe between load cycles.

On a shared host a vCPU's speed drifts: another tenant on the same
physical core can slow it by almost half for seconds at a time, with no
steal time to show for it.  Absolute timings then spread more across
runs than the changes the benchmark is meant to catch.  The client and
the server therefore share one vCPU, the load is offered in cycles, and
between two cycles, while the server is idle, the client times
:func:`probe`: a fixed, benchmark-owned piece of work of the same kind
as the server's (random reads through a large Python dict and a numpy
gather, see :class:`_WorkingSet`).  It reads CPU time of its own
thread, so a process that ran beside it cannot make the host look
slower.

A time measured in a cycle is then scaled to the *reference host*, one
on which the probe runs :data:`REF_UNITS_PER_S` units per second:
``reference seconds = seconds x measured speed / REF_UNITS_PER_S``.
The probe is no part of the served program, so a change to the program
moves the scaled figures as much as the raw ones.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

#: Probe units per CPU second on the reference host (about the speed
#: of the 2-vCPU guest the bounds were set on, where runs read a median
#: of 1800-2700).
REF_UNITS_PER_S = 2000.0
#: Units per probe: about 10 ms at the reference speed.
UNITS = 20


class _WorkingSet:
    """A fixed table and array, together larger than a core's share of cache.

    The server's time goes mostly to dict, deque and array accesses over
    a heap of about 120 MiB, so much of it waits on memory; the probe
    reads at random over tens of MiB for the same mix.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 1 << 40, size=1 << 18).tolist()
        self.table = dict(zip(keys, range(len(keys))))
        #: Each unit reads the next stretch of these, so reads stay random
        #: over the whole table and array rather than settle in cache.
        self.lookups = [keys[i] for i in rng.integers(0, len(keys), size=1 << 16)]
        self.array = rng.integers(0, 1 << 20, size=1 << 21)
        self.gather = rng.integers(0, self.array.size, size=1 << 19)
        self.next = 0

    def unit(self) -> int:
        table = self.table
        start = self.next
        self.next = (start + 1) % 128
        total = 0
        for key in self.lookups[start * 512 : (start + 1) * 512]:
            total += table[key]
        chunk = self.gather[start * 4096 : (start + 1) * 4096]
        return total + int(self.array.take(chunk).sum())


_working_set = None


def probe(units: int = UNITS) -> float:
    """Probe units per CPU second of this thread, with the collector off."""
    global _working_set
    if _working_set is None:
        _working_set = _WorkingSet()
    unit = _working_set.unit
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        for _ in range(units):
            unit()
        spent = time.thread_time() - start
    finally:
        if enabled:
            gc.enable()
    return units / spent if spent > 0 else math.inf


def factor(before: float, after: float) -> float:
    """Reference seconds per measured second between two probe readings."""
    return math.sqrt(before * after) / REF_UNITS_PER_S
