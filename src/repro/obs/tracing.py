"""Per-frame trace records with bounded retention and sampling.

A trace records one delivered frame::

    enqueue       earliest enqueued_cycle over the frame's words
      └─ delivery  a plane takes, routes and verifies the frame, and
                   the gateway resolves its words (delivered_cycle)

A plane routes a frame in the cycle it takes it, so the tracer touches
a frame once, when it is delivered — never per stage and never per
word, which keeps tracing out of the hot loop.  A frame whose plane
dies is never delivered and never traced: its words requeue and ride
a later frame under a new tag.

Retention is a ring buffer (``capacity`` most recent traces) and
admission is sampled (every ``sample_every``-th frame tag), so the
cost on the serving hot path stays within noise;
``benchmarks/bench_obs_overhead.py`` asserts the <5% budget.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Dict, List

__all__ = ["FrameTrace", "FrameTracer"]


@dataclasses.dataclass
class FrameTrace:
    """One delivered frame; cycles are gateway cycles throughout."""

    tag: int
    plane: int
    words: int  # active (client) words; idle fill excluded
    fill: float
    enqueued_cycle: int
    delivered_cycle: int
    latency_cycles: int  # the frame's worst word latency
    mode: str  # clean / degraded / failover
    requeues: int  # the worst requeue count among the words

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


class FrameTracer:
    """Sampled ring buffer of :class:`FrameTrace` records.

    ``sample_every=k`` traces every k-th frame tag (``k<=1`` traces
    all): the caller records the frames whose tag is a multiple of it.
    ``capacity`` bounds how many traces are retained (oldest evicted
    first).
    """

    def __init__(self, capacity: int = 256, sample_every: int = 16) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.sample_every = max(1, int(sample_every))
        self._traces: deque = deque(maxlen=capacity)
        self.traced_frames = 0

    def record(self, trace: FrameTrace) -> None:
        """Retain one sampled frame's trace."""
        self._traces.append(trace)
        self.traced_frames += 1

    def __len__(self) -> int:
        return len(self._traces)

    def records(self) -> List[Dict[str, Any]]:
        """Retained traces, oldest first, as JSON-safe dicts."""
        return [trace.as_dict() for trace in self._traces]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "sample_every": self.sample_every,
            "traced_frames": self.traced_frames,
            "records": self.records(),
        }
