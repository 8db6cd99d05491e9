"""Per-frame trace records with bounded retention and sampling.

A trace follows one scheduled frame through the dataplane::

    enqueue            earliest enqueued_cycle over the frame's words
      └─ coalesce      scheduler builds the frame   (coalesced_cycle)
          └─ dispatch  gateway offers it to a plane (dispatched_cycle)
              └─ delivery  plane routes + verifies  (delivered_cycle)

A plane routes a frame in the cycle it takes it, so the tracer touches
a frame twice (dispatch, delivery), never per stage and never per
word, which keeps tracing out of the hot loop.

Retention is a ring buffer (``capacity`` most recent completed traces)
and admission is sampled (every ``sample_every``-th frame tag), so the
cost on the serving hot path stays within noise;
``benchmarks/bench_obs_overhead.py`` asserts the <5% budget.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

__all__ = ["FrameTrace", "FrameTracer"]


@dataclass
class FrameTrace:
    """One frame's journey; cycles are gateway cycles throughout."""

    tag: int
    plane: int
    words: int  # active (client) words; idle fill excluded
    fill: float
    enqueued_cycle: Optional[int]  # None for pure idle-fill frames
    coalesced_cycle: int
    dispatched_cycle: int
    requeues: int = 0
    delivered_cycle: Optional[int] = None
    latency_cycles: Optional[int] = None
    mode: Optional[str] = None  # clean / degraded / failover

    @property
    def complete(self) -> bool:
        return self.delivered_cycle is not None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "tag": self.tag,
            "plane": self.plane,
            "words": self.words,
            "fill": self.fill,
            "enqueued_cycle": self.enqueued_cycle,
            "coalesced_cycle": self.coalesced_cycle,
            "dispatched_cycle": self.dispatched_cycle,
            "delivered_cycle": self.delivered_cycle,
            "latency_cycles": self.latency_cycles,
            "mode": self.mode,
            "requeues": self.requeues,
        }


class FrameTracer:
    """Sampled ring buffer of :class:`FrameTrace` records.

    ``sample_every=k`` traces every k-th frame tag (``k<=1`` traces
    all); ``capacity`` bounds how many *completed* traces are retained
    (oldest evicted first).  In-flight traces live in a side table that
    is also bounded: a frame whose plane dies before delivery is closed
    out via :meth:`abandon` (counted, not retained), and the table is
    hard-capped so a hook wiring bug cannot leak memory.
    """

    def __init__(self, capacity: int = 256, sample_every: int = 16) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.sample_every = max(1, int(sample_every))
        self._completed: deque = deque(maxlen=capacity)
        self._pending: Dict[int, FrameTrace] = {}
        self._pending_cap = max(64, 4 * capacity)
        self.traced_frames = 0
        self.completed_frames = 0
        self.abandoned_frames = 0

    def wants(self, tag: int) -> bool:
        return tag % self.sample_every == 0

    # -- lifecycle ------------------------------------------------------
    def record_dispatch(
        self,
        tag: int,
        plane: int,
        cycle: int,
        words: int,
        fill: float,
        enqueued_cycle: Optional[int],
        coalesced_cycle: int,
        requeues: int = 0,
    ) -> None:
        if not self.wants(tag):
            return
        self._pending[tag] = FrameTrace(
            tag=tag,
            plane=plane,
            words=words,
            fill=fill,
            enqueued_cycle=enqueued_cycle,
            coalesced_cycle=coalesced_cycle,
            dispatched_cycle=cycle,
            requeues=requeues,
        )
        self.traced_frames += 1
        if len(self._pending) > self._pending_cap:
            oldest = next(iter(self._pending))
            del self._pending[oldest]
            self.abandoned_frames += 1

    def record_delivery(
        self,
        tag: int,
        cycle: int,
        mode: Optional[str] = None,
        latency_cycles: Optional[int] = None,
    ) -> None:
        trace = self._pending.pop(tag, None)
        if trace is None:
            return
        trace.delivered_cycle = cycle
        trace.mode = mode
        if latency_cycles is not None:
            trace.latency_cycles = latency_cycles
        elif trace.enqueued_cycle is not None:
            trace.latency_cycles = cycle - trace.enqueued_cycle
        self._completed.append(trace)
        self.completed_frames += 1

    def abandon(self, tag: int) -> None:
        """Close out an in-flight trace whose plane died (not retained)."""
        if self._pending.pop(tag, None) is not None:
            self.abandoned_frames += 1

    def abandon_plane(self, plane: int) -> None:
        """Abandon every in-flight trace riding the given plane.

        Called when a plane is killed: its frames requeue and will be
        re-dispatched under *new* tags, so the old traces can never
        complete.
        """
        for tag in [
            tag
            for tag, trace in self._pending.items()
            if trace.plane == plane
        ]:
            self.abandon(tag)

    # -- retrieval ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._completed)

    def records(self) -> List[Dict[str, Any]]:
        """Completed traces, oldest first, as JSON-safe dicts."""
        return [trace.as_dict() for trace in self._completed]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "sample_every": self.sample_every,
            "traced_frames": self.traced_frames,
            "completed_frames": self.completed_frames,
            "abandoned_frames": self.abandoned_frames,
            "pending": len(self._pending),
            "records": self.records(),
        }
