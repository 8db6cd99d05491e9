"""The frame scheduler: queued words -> conflict-free permutation frames.

Each gateway cycle the scheduler pops at most one head-of-line word per
destination from the VOQs (pairwise-distinct destinations — a
conflict-free matching of inputs to outputs, in the
routing-via-matchings sense) and completes the partial request into a
full permutation with :func:`~repro.core.traffic.coalesce_frame`, so
every frame satisfies the balanced-bit precondition the BNB splitters
need.  Idle lines carry filler words with ``payload=None``; real words
carry their :class:`~repro.server.voq.QueueEntry` as payload, which is
how delivery is matched back to the awaiting client.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..core.traffic import FramePlan, coalesce_frame
from ..core.words import Word
from .voq import QueueEntry, VirtualOutputQueues

__all__ = ["FrameScheduler", "ScheduledFrame"]


class ScheduledFrame:
    """One coalesced frame: a full permutation plus its book-keeping.

    ``entries[dest]`` is the queue entry whose word rides the frame to
    output *dest*.  The frame carries its traffic in two interchangeable
    shapes: ``words`` — the per-line :class:`~repro.core.words.Word`
    list the resilient planes submit to their fabric — and the array
    triple (``address_array``, ``real_dests``, ``real_lines``) the
    backend planes route and verify without touching a single Word.
    Both are built lazily from the coalesced plan, so a frame only ever
    pays for the representation its plane actually uses.
    """

    __slots__ = (
        "tag",
        "entries",
        "plan",
        "scheduled_cycle",
        "_words",
        "_address_array",
        "_real_dests",
        "_real_lines",
    )

    def __init__(
        self,
        tag: int,
        entries: Dict[int, QueueEntry],
        plan: FramePlan,
        scheduled_cycle: int,
    ) -> None:
        self.tag = tag
        self.entries = entries
        self.plan = plan
        self.scheduled_cycle = scheduled_cycle
        self._words: Optional[List[Word]] = None
        self._address_array: Optional[np.ndarray] = None
        self._real_dests: Optional[np.ndarray] = None
        self._real_lines: Optional[np.ndarray] = None

    @property
    def words(self) -> List[Word]:
        """The per-line Word list; ``words[line].payload`` is the queue
        entry for real lines and ``None`` for idle filler."""
        if self._words is None:
            entries = self.entries
            self._words = [
                Word(address=address, payload=entries.get(address))
                for address in self.plan.addresses
            ]
        return self._words

    @property
    def address_array(self) -> np.ndarray:
        """The frame's full destination permutation as an int64 vector."""
        if self._address_array is None:
            self._address_array = np.asarray(
                self.plan.addresses, dtype=np.int64
            )
        return self._address_array

    @property
    def real_dests(self) -> np.ndarray:
        """Destinations carrying genuine traffic, as an int64 vector."""
        if self._real_dests is None:
            line_of = self.plan.line_of
            self._real_dests = np.fromiter(
                line_of.keys(), dtype=np.int64, count=len(line_of)
            )
        return self._real_dests

    @property
    def real_lines(self) -> np.ndarray:
        """``real_lines[k]`` is the input line feeding ``real_dests[k]``."""
        if self._real_lines is None:
            line_of = self.plan.line_of
            self._real_lines = np.fromiter(
                line_of.values(), dtype=np.int64, count=len(line_of)
            )
        return self._real_lines

    @property
    def active(self) -> int:
        return len(self.entries)

    @property
    def fill(self) -> float:
        return self.plan.fill

    def __repr__(self) -> str:
        return (
            f"ScheduledFrame(tag={self.tag}, active={self.active}, "
            f"n={len(self.plan.addresses)}, cycle={self.scheduled_cycle})"
        )


class FrameScheduler:
    """Coalesce VOQ heads into frames; account fill ratio."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.frames_scheduled = 0
        self.words_scheduled = 0
        self._fill_sum = 0.0
        self._next_tag = 0

    def next_frame(
        self, voqs: VirtualOutputQueues, cycle: int
    ) -> Optional[ScheduledFrame]:
        """Build the next frame from *voqs*, or ``None`` when idle."""
        entries = voqs.pop_heads(self.n)
        if not entries:
            return None
        destinations = [entry.destination for entry in entries]
        if len(entries) == self.n:
            # Full fill (the saturated batch path): the heads are
            # already a permutation on consecutive lines — no idle
            # completion to compute.
            plan = FramePlan(
                addresses=destinations,
                line_of={dest: line for line, dest in enumerate(destinations)},
            )
        else:
            plan = coalesce_frame(destinations, self.n)
        by_destination = {entry.destination: entry for entry in entries}
        tag = self._next_tag
        self._next_tag += 1
        self.frames_scheduled += 1
        self.words_scheduled += len(entries)
        self._fill_sum += plan.fill
        return ScheduledFrame(
            tag=tag,
            entries=by_destination,
            plan=plan,
            scheduled_cycle=cycle,
        )

    @property
    def mean_fill(self) -> float:
        """Average frame fill ratio over everything scheduled so far."""
        if not self.frames_scheduled:
            return 0.0
        return self._fill_sum / self.frames_scheduled

    def snapshot(self) -> Dict[str, float]:
        return {
            "frames": self.frames_scheduled,
            "words": self.words_scheduled,
            "mean_fill": self.mean_fill,
        }
