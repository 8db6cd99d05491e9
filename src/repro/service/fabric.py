"""The resilient fabric: verified delivery over a possibly-faulty BNB.

:class:`ResilientFabric` turns the repo's offline fault *experiments*
into an online fault *service*.  It wraps a
:class:`~repro.core.pipeline.PipelinedBNBFabric` (the primary,
self-routing plane) and drives the full lifecycle:

* **verify** — every batch's outputs are address-checked on exit;
* **retry** — misdelivered words are withdrawn and re-injected as a
  completed partial permutation (the
  :func:`~repro.faults.adaptive.detect_and_reroute` machinery), with
  exponential backoff in fabric cycles between attempts;
* **diagnose** — a misbehaving plane is probed with the deterministic
  :class:`~repro.faults.bist.BISTSchedule` and the syndromes decoded by
  :func:`~repro.faults.localization.localize`;
* **quarantine & fail over** — a confirmed fault sidelines the primary
  and subsequent traffic rides a rearrangeable Benes spare plane
  (:class:`~repro.baselines.benes.BenesNetwork`) — trading the
  self-routing property for guaranteed delivery, in the spirit of the
  KR-Benes construction.

Every step appends a structured
:class:`~repro.service.registry.FaultEvent` and bumps
:class:`~repro.service.registry.ServiceCounters`; hooks subscribe via
:meth:`add_listener` (see
:class:`~repro.service.registry.HealthMonitor`).

The delivery contract: ``submit`` either returns a batch with **every
word on its addressed line** (mode ``clean``, ``degraded`` or
``failover``) or raises a
:class:`~repro.exceptions.FaultServiceError` subclass naming the
exhausted resource.

:class:`~repro.service.policy.FaultPolicy` runs the same lifecycle on
the compiled kernels for the serving planes; this class stays the
readable reference and the oracle the policy is tested against.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from ..baselines.benes import BenesNetwork
from ..core.pipeline import PipelinedBNBFabric, stuck_control_override
from ..core.traffic import complete_partial_permutation
from ..core.words import Word
from ..exceptions import QuarantineExhaustedError, RetryBudgetExceededError
from ..faults.bist import BISTSchedule, shared_bist_schedule
from ..faults.injector import SwitchCoordinate
from ..faults.localization import LocalizationResult, localize
from .registry import (
    FaultEvent,
    FaultRegistry,
    HealthState,
    ServiceCounters,
    service_summary,
)

__all__ = ["ResilientFabric", "BatchResult"]


@dataclasses.dataclass
class BatchResult:
    """One batch's delivery report.

    ``outputs[line]`` is the word delivered to output *line* (its
    address always equals the line), or ``None`` when the batch was a
    partial frame that addressed no word to that line; ``mode`` is
    ``"clean"`` (first pass, no misroutes), ``"degraded"`` (delivered
    by primary-plane retries) or ``"failover"`` (some or all words rode
    the spare).
    """

    tag: Any
    outputs: List[Optional[Word]]
    mode: str
    retries: int

    @property
    def delivered(self) -> int:
        return sum(word is not None for word in self.outputs)


class ResilientFabric:
    """Self-diagnosing, self-quarantining permutation service.

    Parameters
    ----------
    m:
        Address width; the fabric serves ``N = 2**m`` lines.
    pipeline:
        The primary plane.  Defaults to a healthy
        :class:`~repro.core.pipeline.PipelinedBNBFabric`; tests pass
        one built with
        :func:`~repro.core.pipeline.stuck_control_override` to model a
        physical fault.
    spare:
        The failover plane — any object with a Benes-style
        ``route(words) -> (outputs, trace)`` method, or ``None`` for a
        spare-less deployment (then a confirmed fault can only degrade,
        and exhausted retries raise
        :class:`~repro.exceptions.RetryBudgetExceededError`).
    schedule:
        A pre-built :class:`~repro.faults.bist.BISTSchedule` (shareable
        across fabrics of the same ``m``); built on demand otherwise.
    retry_budget:
        Maximum repair passes per batch.
    backoff_base:
        Idle fabric cycles before retry ``k`` are
        ``backoff_base << k`` — exponential backoff on repeated
        failures.
    strict_localization:
        When set, a non-unique localization raises
        :class:`~repro.exceptions.LocalizationAmbiguousError` instead
        of quarantining the whole ambiguity class.
    """

    def __init__(
        self,
        m: int,
        pipeline: Optional[PipelinedBNBFabric] = None,
        spare: Optional[Any] = "benes",
        schedule: Optional[BISTSchedule] = None,
        retry_budget: int = 4,
        backoff_base: int = 1,
        strict_localization: bool = False,
    ) -> None:
        if m < 1:
            raise ValueError(f"the resilient fabric needs m >= 1, got {m}")
        if retry_budget < 0:
            raise ValueError(f"retry budget must be >= 0, got {retry_budget}")
        self.m = m
        self.n = 1 << m
        self.pipeline = pipeline if pipeline is not None else PipelinedBNBFabric(m)
        if self.pipeline.m != m:
            raise ValueError(
                f"pipeline is m={self.pipeline.m}, service is m={m}"
            )
        self.spare = BenesNetwork(m) if spare == "benes" else spare
        self.schedule = (
            schedule if schedule is not None else shared_bist_schedule(m)
        )
        if self.schedule.m != m:
            raise ValueError(
                f"BIST schedule is m={self.schedule.m}, service is m={m}"
            )
        self.retry_budget = retry_budget
        self.backoff_base = backoff_base
        self.strict_localization = strict_localization
        self.registry = FaultRegistry()
        #: Optional ``hook(probe, observation)`` forwarded to every BIST
        #: run; the telemetry layer counts per-probe outcomes through it.
        self.probe_hook: Optional[Any] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def counters(self) -> ServiceCounters:
        return self.registry.counters

    @property
    def state(self) -> HealthState:
        return self.registry.state

    @property
    def events(self) -> Deque[FaultEvent]:
        """The registry's event log (its last ``EVENT_LOG_LIMIT``)."""
        return self.registry.events

    def add_listener(self, listener) -> None:
        self.registry.add_listener(listener)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(self, addresses: Sequence[int], tag: Any = None) -> BatchResult:
        """Deliver one permutation batch, whatever it takes."""
        words = [
            Word(address=address, payload=(tag, j))
            for j, address in enumerate(addresses)
        ]
        return self.submit_words(words, tag=tag)

    def submit_words(
        self, words: Sequence[Word], tag: Any = None
    ) -> BatchResult:
        """Deliver a pre-built word batch, payloads preserved.

        The serving layer's entry point: *words* must carry a full
        permutation of addresses, but words with ``payload is None`` are
        treated as idle filler (a coalesced partial frame) — they are
        routed for the balanced-bit precondition yet owed no delivery,
        and their lines come back ``None`` in the result.

        The call is **async-safe** in the event-loop sense: it is pure
        CPU work with no blocking I/O and touches only this fabric's
        state, so an asyncio gateway may call it directly between
        awaits.  It is not thread-safe — concurrent calls on one fabric
        must be serialized (a single event loop does this naturally).
        """
        counters = self.counters
        counters.batches += 1
        words = list(words)
        expected = {
            word.address for word in words if word.payload is not None
        }
        active = len(expected)
        if self.registry.is_quarantined:
            outputs = self._route_spare(words, tag)
            counters.batches_failover += 1
            counters.words_failover += active
            self.registry.emit(
                "delivery", tag, f"{active} words via spare plane",
                mode="failover", words=active,
            )
            return BatchResult(
                tag=tag,
                outputs=self._collect(self._split(outputs)[0], expected),
                mode="failover",
                retries=0,
            )

        outputs = self.pipeline.route_batch(words, tag=tag)
        delivered, pending = self._split(outputs)
        if not pending:
            counters.batches_clean += 1
            counters.words_clean += active
            self.registry.emit(
                "delivery", tag, f"{active} words clean",
                mode="clean", words=active,
            )
            return BatchResult(
                tag=tag,
                outputs=self._collect(delivered, expected),
                mode="clean",
                retries=0,
            )

        # Fault path: detect, retry with backoff, then diagnose.
        counters.detections += 1
        if self.registry.state is HealthState.HEALTHY:
            self.registry.transition(HealthState.SUSPECT)
        self.registry.emit(
            "detection", tag,
            f"{len(pending)} of {active} words misrouted",
            misrouted=len(pending), state=self.registry.state.value,
        )
        retries = 0
        while pending and retries < self.retry_budget:
            backoff = self.backoff_base << retries
            self.pipeline.idle(backoff)
            counters.backoff_cycles += backoff
            retries += 1
            counters.retries += 1
            before = len(pending)
            outputs = self.pipeline.route_batch(
                self._repair_pass(pending), tag=(tag, "retry", retries)
            )
            newly, pending = self._split(outputs)
            delivered.update(newly)
            self.registry.emit(
                "retry", tag,
                f"pass {retries}: {before} -> {len(pending)} pending "
                f"after {backoff} backoff cycle(s)",
                attempt=retries, backoff_cycles=backoff,
                pending_before=before, pending_after=len(pending),
            )

        if self.registry.state is HealthState.SUSPECT:
            self._diagnose(tag)

        primary_words = len(delivered)
        if pending:
            if not self.registry.is_quarantined:
                raise RetryBudgetExceededError(len(pending), retries)
            spare_outputs = self._route_spare(
                self._repair_pass(pending), tag
            )
            for line, word in enumerate(spare_outputs):
                if word.payload is not None:
                    delivered[line] = word
            pending = []

        spare_words = active - primary_words
        mode = "failover" if spare_words else "degraded"
        if mode == "failover":
            counters.batches_failover += 1
            counters.words_degraded += primary_words
            counters.words_failover += spare_words
        else:
            counters.batches_degraded += 1
            counters.words_degraded += active
        self.registry.emit(
            "delivery", tag,
            f"{active} words after {retries} retr{'y' if retries == 1 else 'ies'} "
            f"({mode})",
            mode=mode, words=active, retries=retries,
        )
        return BatchResult(
            tag=tag,
            outputs=self._collect(delivered, expected),
            mode=mode,
            retries=retries,
        )

    def check(self, tag: Any = "bist") -> LocalizationResult:
        """Proactive health check: run the BIST schedule and act on it.

        Use between batches (or on a timer) to catch faults before live
        traffic does.  Returns the localization result; the registry is
        updated exactly as for a traffic-triggered diagnosis.
        """
        if self.registry.is_quarantined:
            raise QuarantineExhaustedError(
                "primary already quarantined; nothing left to check"
            )
        return self._diagnose(tag)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _split(
        self, outputs: Sequence[Word]
    ) -> Tuple[Dict[int, Word], List[Word]]:
        """Partition routed outputs into delivered-by-line and misrouted."""
        delivered: Dict[int, Word] = {}
        pending: List[Word] = []
        for line, word in enumerate(outputs):
            if word.payload is None:
                continue  # filler from a repair pass
            if word.address == line:
                delivered[line] = word
            else:
                pending.append(word)
        return delivered, pending

    def _collect(
        self, delivered: Dict[int, Word], expected: Optional[set] = None
    ) -> List[Optional[Word]]:
        if expected is None:
            expected = set(range(self.n))
        assert set(delivered) == expected, "batch left the service incomplete"
        return [delivered.get(line) for line in range(self.n)]

    def _repair_pass(self, pending: Sequence[Word]) -> List[Word]:
        """Pack pending words onto the first lines; fill the rest."""
        request: List[Optional[int]] = [None] * self.n
        for line, word in enumerate(pending):
            request[line] = word.address
        full, real = complete_partial_permutation(request)
        return [
            pending[line] if real[line] else Word(address=full[line])
            for line in range(self.n)
        ]

    def _route_spare(self, words: Sequence[Word], tag: Any) -> List[Word]:
        if self.spare is None:
            raise QuarantineExhaustedError("no spare plane configured")
        outputs, _trace = self.spare.route(list(words))
        for line, word in enumerate(outputs):
            if word.payload is not None and word.address != line:
                raise QuarantineExhaustedError(
                    f"spare plane misrouted a word addressed to "
                    f"{word.address} onto line {line}"
                )
        return list(outputs)

    def inject_stuck_control(
        self, coordinate: SwitchCoordinate, value: int
    ) -> None:
        """Model a physical stuck-at fault appearing on the live primary.

        The operator-facing injection path (the ``inject`` protocol op
        and the faults CLI's ``--connect`` mode land here): the fault
        accumulates on top of anything already wrong with the plane,
        and batches in flight feel it from their next stage onward.
        Detection, diagnosis and quarantine then proceed through the
        normal traffic-triggered lifecycle.
        """
        self.pipeline.install_control_override(
            stuck_control_override(
                coordinate.main_stage,
                coordinate.nested,
                coordinate.nested_stage,
                coordinate.box,
                coordinate.switch,
                value,
            ),
            compose=True,
        )
        self.registry.emit(
            "injection", None,
            f"stuck-{value} control injected at "
            f"({coordinate.main_stage},{coordinate.nested},"
            f"{coordinate.nested_stage},{coordinate.box},{coordinate.switch})",
            value=value,
        )

    def _run_bist(self, tag: Any):
        self.counters.bist_runs += 1
        observations = self.schedule.run(
            lambda words: self.pipeline.route_batch(words, tag=(tag, "bist")),
            on_probe=self.probe_hook,
        )
        dirty = sum(not observation.clean for observation in observations)
        self.registry.emit(
            "bist", tag,
            f"{self.schedule.probe_count} probes, {dirty} dirty",
            probes=self.schedule.probe_count, dirty=dirty,
        )
        return observations

    def _diagnose(self, tag: Any) -> LocalizationResult:
        observations = self._run_bist(tag)
        result = localize(
            self.m,
            observations,
            model="adaptive",
            tables=[probe.controls for probe in self.schedule.probes],
        )
        self.counters.localizations += 1
        self.registry.emit(
            "localization", tag, result.describe(),
            candidates=len(result.candidates),
            narrowed_from=result.narrowed_from,
        )
        dirty = any(not observation.clean for observation in observations)
        if not dirty:
            # Probes all clean: live misroutes (if any) did not
            # reproduce — downgrade the suspicion.
            if self.registry.state is HealthState.SUSPECT:
                self.registry.transition(HealthState.HEALTHY)
                self.registry.emit(
                    "cleared", tag, "BIST clean; suspicion withdrawn"
                )
            return result
        if self.strict_localization:
            result.require_unique()
        if self.registry.state is HealthState.HEALTHY:
            self.registry.transition(HealthState.SUSPECT)
        self.registry.confirm(result.candidates)
        self.registry.emit(
            "confirmation", tag,
            f"fault confirmed: {result.describe()}",
            candidates=len(result.candidates),
        )
        if self.spare is not None:
            self.registry.transition(HealthState.QUARANTINED)
            self.registry.emit(
                "quarantine", tag,
                f"primary plane quarantined "
                f"({len(result.coordinates)} switch(es) implicated)",
                coordinates=len(result.coordinates),
            )
            self.counters.failovers += 1
            self.registry.emit(
                "failover", tag, "traffic fails over to the Benes spare plane"
            )
        else:
            self.registry.emit(
                "quarantine", tag,
                "no spare plane: primary stays in service (degraded)",
                coordinates=len(result.coordinates),
            )
        return result

    def summary(self) -> str:
        """One-paragraph plain-text status (CLI-friendly)."""
        return service_summary(
            self.registry, self.schedule.probe_count, self.n
        )
