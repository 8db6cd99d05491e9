"""The frame scheduler: queued words -> conflict-free permutation frames.

Each gateway cycle the scheduler asks the VOQs for as many frames as a
plane's window holds and gets them back as one
:class:`~repro.server.voq.Block`: frame ``j`` takes the ``j``-th queued
word of every destination that has one (pairwise-distinct destinations
— a conflict-free matching of inputs to outputs, in the
routing-via-matchings sense) and idle-fills the rest of its lines with
the unused addresses, so every frame is a full permutation and
satisfies the balanced-bit precondition the BNB splitters need.  The
scheduler stamps the block's frame tags and keeps the fill accounting.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .voq import Block, VirtualOutputQueues

__all__ = ["FrameScheduler"]


class FrameScheduler:
    """Compose VOQ heads into frame blocks; account fill ratio."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.frames_scheduled = 0
        self.words_scheduled = 0
        self._fill_sum = 0.0
        self._next_tag = 0

    def next_frame(
        self, voqs: VirtualOutputQueues, frames: int = 1
    ) -> Optional[Block]:
        """Build up to *frames* frames from *voqs* as one block, or
        ``None`` when idle.  Frame ``j`` of the block gets tag
        ``block.tag + j``; tags are unique and increasing."""
        block = voqs.pop_heads(frames)
        if block is None:
            return None
        block.tag = self._next_tag
        self._next_tag += block.k
        self.frames_scheduled += block.k
        self.words_scheduled += block.size
        if block.k == 1:
            self._fill_sum += block.size / self.n
        else:
            # A cumulative sum adds one frame at a time, so the float
            # total is the one a per-frame ``+=`` gives.
            self._fill_sum = float(
                np.cumsum(np.concatenate(([self._fill_sum], block.fills)))[-1]
            )
        return block

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
