"""A cycle-accurate pipelined BNB fabric.

The paper positions the network for "high communication bandwidth" in
switching and parallel-processing systems.  Since each main stage's
decisions depend only on the words it currently holds, the main stages
pipeline naturally: insert a register column after every main stage and
a new permutation can enter every cycle, with a fill latency of ``m``
cycles and steady-state throughput of one full permutation per cycle.

:class:`PipelinedBNBFabric` models exactly that: ``m`` stage buffers,
one :meth:`step` per clock, independent permutations in flight
simultaneously.  The implementation reuses the same nested-network
routing code as the combinational model, so the pipeline is a schedule
around verified logic, not a reimplementation.  Built with a
:class:`~repro.core.plan.FaultMask`, its stages run the adaptive fault
model of :mod:`repro.core.walk` instead: the object oracle the masked
kernel is tested against.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bits import address_bit, cached_unshuffle_permutation
from ..exceptions import NotAPermutationError
from .bsn import BitSorterNetwork
from .plan import FaultMask
from .walk import AdaptiveModel
from .words import Word

__all__ = [
    "PipelinedBNBFabric",
    "PipelineBatch",
    "PipelineStats",
]


@dataclasses.dataclass
class PipelineBatch:
    """One permutation's words travelling through the pipeline."""

    tag: Any
    words: List[Word]
    entered_cycle: int


@dataclasses.dataclass
class PipelineStats:
    """Aggregate pipeline behaviour over a run."""

    cycles: int
    accepted: int
    delivered: int
    latencies: List[int]

    @property
    def fill_latency(self) -> Optional[int]:
        return self.latencies[0] if self.latencies else None

    @property
    def throughput(self) -> float:
        """Delivered permutations per cycle over the whole run."""
        return self.delivered / self.cycles if self.cycles else 0.0


class PipelinedBNBFabric:
    """An ``m``-deep pipeline of the BNB network's main stages.

    Usage: :meth:`offer` a permutation (or ``None`` for a bubble) and
    :meth:`step` once per clock; completed batches come back from
    :meth:`step` as ``(tag, outputs)`` pairs.
    """

    def __init__(
        self,
        m: int,
        mask: Optional[FaultMask] = None,
        retain_delivered: bool = True,
    ) -> None:
        if m < 1:
            raise ValueError(f"the fabric needs m >= 1, got {m}")
        if mask is not None and mask.m != m:
            raise ValueError(f"fault mask is for m={mask.m}, fabric is m={m}")
        self.m = m
        self.n = 1 << m
        self._bsns: Dict[int, BitSorterNetwork] = {
            k: BitSorterNetwork(k) for k in range(1, m + 1)
        }
        # Under a mask, even one with no faults, every stage runs the
        # adaptive model; without one, the bit-sorters with their
        # balance checks.
        self._adaptive = AdaptiveModel(mask) if mask is not None else None
        # _stages[i] holds the batch currently inside main stage i.
        self._stages: List[Optional[PipelineBatch]] = [None] * m
        self._pending: Optional[PipelineBatch] = None
        self.cycle = 0
        self.accepted = 0
        # A long-running server can clock millions of frames; with
        # retain_delivered off the fabric keeps counters (and a bounded
        # latency window for stats) instead of the full history.
        self.retain_delivered = retain_delivered
        self.delivered_batches: List[Tuple[Any, List[Word]]] = []
        self.delivered_count = 0
        self._latencies: List[int] = []
        self._latency_window = 4096

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def offer(self, addresses: Sequence[int], tag: Any = None) -> None:
        """Queue one permutation to enter at the next :meth:`step`.

        Raises if a permutation is already waiting (the fabric accepts
        one batch per cycle) or if the addresses are not a permutation.
        """
        words = [
            Word(address=address, payload=(tag, j))
            for j, address in enumerate(addresses)
        ]
        self.offer_words(words, tag=tag)

    def offer_words(self, words: Sequence[Word], tag: Any = None) -> None:
        """Queue pre-built words (payloads preserved) for the next cycle.

        The service layer uses this to re-inject misdelivered words
        whose payloads identify the original batch and source line.
        """
        if self._pending is not None:
            raise ValueError("a batch is already waiting to enter this cycle")
        if sorted(word.address for word in words) != list(range(self.n)):
            raise NotAPermutationError([word.address for word in words])
        self._pending = PipelineBatch(
            tag=tag, words=list(words), entered_cycle=self.cycle
        )

    # ------------------------------------------------------------------
    # Clocking
    # ------------------------------------------------------------------
    def _route_stage(self, stage: int, words: List[Word]) -> List[Word]:
        """One main stage: nested networks + the following unshuffle."""
        if self._adaptive is not None:
            return self._adaptive.route_stage(stage, words)
        m = self.m
        block_exp = m - stage
        block = 1 << block_exp
        bsn = self._bsns[block_exp]

        def key_of(word: Word) -> int:
            return address_bit(word.address, stage, m)

        routed: List[Word] = [None] * self.n  # type: ignore[list-item]
        for l in range(1 << stage):
            lo = l * block
            out, _rec = bsn.route_words(words[lo : lo + block], key_of)
            routed[lo : lo + block] = out
        if stage < m - 1:
            wiring = cached_unshuffle_permutation(m - stage, m)
            connected: List[Word] = [None] * self.n  # type: ignore[list-item]
            for j, value in enumerate(routed):
                connected[wiring[j]] = value
            return connected
        return routed

    def step(self) -> List[Tuple[Any, List[Word]]]:
        """Advance one clock; return batches that completed this cycle."""
        completed: List[Tuple[Any, List[Word]]] = []
        # Stage m-1 drains first.
        leaving = self._stages[self.m - 1]
        if leaving is not None:
            outputs = self._route_stage(self.m - 1, leaving.words)
            completed.append((leaving.tag, outputs))
            self.delivered_count += 1
            if self.retain_delivered:
                self.delivered_batches.append((leaving.tag, outputs))
            self._latencies.append(self.cycle + 1 - leaving.entered_cycle)
            if (
                not self.retain_delivered
                and len(self._latencies) > self._latency_window
            ):
                del self._latencies[: -self._latency_window]
        # Everything else shifts forward through its stage's logic.
        for stage in range(self.m - 2, -1, -1):
            batch = self._stages[stage]
            if batch is not None:
                batch.words = self._route_stage(stage, batch.words)
            self._stages[stage + 1] = batch
        # A pending batch enters stage 0.
        self._stages[0] = self._pending
        if self._pending is not None:
            self.accepted += 1
        self._pending = None
        self.cycle += 1
        return completed

    def drain(self) -> List[Tuple[Any, List[Word]]]:
        """Step until empty; return everything that completed."""
        completed: List[Tuple[Any, List[Word]]] = []
        while any(stage is not None for stage in self._stages) or self._pending:
            completed.extend(self.step())
        return completed

    def idle(self, cycles: int) -> None:
        """Clock *cycles* bubbles through the fabric (used for backoff)."""
        for _ in range(cycles):
            self.step()

    def stage_timeline(self, entered_cycle: int) -> List[int]:
        """The cycle at which a batch offered at *entered_cycle* crosses
        each main stage.

        The pipeline never stalls — a batch entering the fabric shifts
        one stage per :meth:`step`, unconditionally — so the timeline is
        deterministic: stage *k*'s routing logic runs during the step
        that begins at ``entered_cycle + 1 + k``, and the batch drains
        as stage ``m-1`` is crossed.  The tracing
        layer (:mod:`repro.obs.tracing`) derives per-stage trace records
        from this instead of timestamping the hot loop.
        """
        return [entered_cycle + 1 + stage for stage in range(self.m)]

    def route_batch(
        self, words: Sequence[Word], tag: Any = None
    ) -> List[Word]:
        """Synchronously route one batch of words through an idle fabric.

        Offers the batch, clocks until it emerges and returns its
        outputs.  The fabric must be idle — the method is the
        batch-at-a-time interface the fault-tolerance service drives;
        interleaved streaming still goes through :meth:`offer` /
        :meth:`step`.
        """
        if self.in_flight or self._pending is not None:
            raise ValueError(
                "route_batch needs an idle fabric; drain in-flight "
                "batches first"
            )
        self.offer_words(words, tag=tag)
        for completed_tag, outputs in self.drain():
            if completed_tag is tag or completed_tag == tag:
                return outputs
        raise AssertionError("offered batch never completed")  # pragma: no cover

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return sum(stage is not None for stage in self._stages)

    def stats(self) -> PipelineStats:
        return PipelineStats(
            cycles=self.cycle,
            accepted=self.accepted,
            delivered=self.delivered_count,
            latencies=list(self._latencies),
        )

    def __repr__(self) -> str:
        return (
            f"PipelinedBNBFabric(m={self.m}, cycle={self.cycle}, "
            f"in_flight={self.in_flight})"
        )
