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
around verified logic, not a reimplementation.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..bits import address_bit, cached_unshuffle_permutation
from ..exceptions import NotAPermutationError
from .bnb import BNBNetwork
from .bsn import BitSorterNetwork
from .splitter import Splitter
from .switchbox import apply_pair_controls
from .words import Word

__all__ = [
    "PipelinedBNBFabric",
    "PipelineBatch",
    "PipelineStats",
    "ControlOverride",
    "stuck_control_override",
]

#: ``(main_stage, nested, nested_stage, box, controls) -> controls`` —
#: intercepts every splitter decision; used to model physical switch
#: faults inside the pipeline (the fault-tolerance service's test rig).
ControlOverride = Callable[[int, int, int, int, List[int]], List[int]]


def stuck_control_override(
    main_stage: int,
    nested: int,
    nested_stage: int,
    box: int,
    switch: int,
    value: int,
) -> ControlOverride:
    """An override forcing one switch's control to *value* (stuck-at).

    Accepts the five fields of a
    :class:`~repro.faults.injector.SwitchCoordinate` (kept positional
    so :mod:`repro.core` need not import the faults layer).
    """
    if value not in (0, 1):
        raise ValueError(f"stuck-at value must be 0 or 1, got {value!r}")

    def override(
        i: int, l: int, j: int, b: int, controls: List[int]
    ) -> List[int]:
        if (
            (i, l, j, b) == (main_stage, nested, nested_stage, box)
            and 0 <= switch < len(controls)
        ):
            controls = list(controls)
            controls[switch] = value
        return controls

    return override


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
        control_override: Optional[ControlOverride] = None,
        retain_delivered: bool = True,
    ) -> None:
        if m < 1:
            raise ValueError(f"the fabric needs m >= 1, got {m}")
        self.m = m
        self.n = 1 << m
        self._bsns: Dict[int, BitSorterNetwork] = {
            k: BitSorterNetwork(k) for k in range(1, m + 1)
        }
        # With an override installed, splitter decisions are made here
        # (balance checks off: an intercepted control can unbalance a
        # downstream block — that is the physics being modelled).
        self._control_override = control_override
        self._free_splitters: Dict[int, Splitter] = (
            {}
            if control_override is None
            else {p: Splitter(p, check_balance=False) for p in range(1, m + 1)}
        )
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

    def install_control_override(
        self, override: ControlOverride, compose: bool = False
    ) -> None:
        """Install a control override at runtime (fault appears live).

        With ``compose=True`` the new override wraps whatever is
        already installed — the existing faults keep acting and the new
        one applies on top, so injecting a second stuck switch into an
        already-faulty fabric accumulates rather than replaces.
        Batches in flight feel the change from their next stage onward.
        """
        if compose and self._control_override is not None:
            previous = self._control_override
            added = override

            def override(  # type: ignore[no-redef]
                i: int, l: int, j: int, b: int, controls: List[int]
            ) -> List[int]:
                return added(i, l, j, b, previous(i, l, j, b, controls))

        self._control_override = override
        if not self._free_splitters:
            self._free_splitters = {
                p: Splitter(p, check_balance=False)
                for p in range(1, self.m + 1)
            }

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
        m = self.m
        block_exp = m - stage
        block = 1 << block_exp
        bsn = self._bsns[block_exp]

        def key_of(word: Word) -> int:
            return address_bit(word.address, stage, m)

        routed: List[Word] = [None] * self.n  # type: ignore[list-item]
        for l in range(1 << stage):
            lo = l * block
            if self._control_override is not None:
                out = self._route_nested_overridden(
                    stage, l, words[lo : lo + block]
                )
            else:
                out, _rec = bsn.route_words(words[lo : lo + block], key_of)
            routed[lo : lo + block] = out
        if stage < m - 1:
            wiring = cached_unshuffle_permutation(m - stage, m)
            connected: List[Word] = [None] * self.n  # type: ignore[list-item]
            for j, value in enumerate(routed):
                connected[wiring[j]] = value
            return connected
        return routed

    def _route_nested_overridden(
        self, stage: int, nested: int, segment: List[Word]
    ) -> List[Word]:
        """One nested network with every control passed to the override.

        Same walk as :meth:`~repro.core.bsn.BitSorterNetwork.route_words`,
        but each splitter's decision is routed through
        ``self._control_override`` before the switches apply it.
        """
        assert self._control_override is not None
        m = self.m
        block_exp = m - stage
        block = 1 << block_exp
        current = list(segment)
        for j in range(block_exp):
            width = 1 << (block_exp - j)
            splitter = self._free_splitters[block_exp - j]
            routed: List[Word] = [None] * block  # type: ignore[list-item]
            for box in range(1 << j):
                base = box * width
                sub = current[base : base + width]
                key_bits = [
                    address_bit(word.address, stage, m) for word in sub
                ]
                controls = self._control_override(
                    stage, nested, j, box, list(splitter.controls(key_bits))
                )
                routed[base : base + width] = apply_pair_controls(
                    sub, controls
                )
            if j < block_exp - 1:
                wiring = cached_unshuffle_permutation(
                    block_exp - j, block_exp
                )
                connected: List[Word] = [None] * block  # type: ignore[list-item]
                for offset, value in enumerate(routed):
                    connected[wiring[offset]] = value
                current = connected
            else:
                current = routed
        return current

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
