"""The fault policy: the resilient lifecycle on the compiled kernels.

:class:`FaultPolicy` is :meth:`ResilientFabric.submit_words
<repro.service.fabric.ResilientFabric.submit_words>` done on arrays.
A :class:`~repro.server.planes.BackendPlane` that carries one routes
its frames on the ``"bnb"`` backend under the policy's
:class:`~repro.core.plan.FaultMask` and hands every routed frame to
:meth:`FaultPolicy.serve`, which, frame by frame:

* **verifies** — a frame whose real words all reached their lines is
  ``clean``;
* **retries** — otherwise (a detection: healthy -> suspect) the
  misrouted words are packed onto the first lines, idle-filled with
  the unused addresses and routed again, up to :data:`RETRY_BUDGET`
  passes.  The exponential backoff (``BACKOFF_BASE << k`` cycles) is
  booked in :class:`~repro.service.registry.ServiceCounters`; there is
  no fabric clock to idle;
* **diagnoses** — a still-suspect primary runs the whole BIST schedule
  as one masked ``route_frame_batch`` call
  (:meth:`~repro.faults.bist.BISTSchedule.run_batch`) and decodes the
  syndromes with :func:`~repro.faults.localization.localize`;
* **quarantines and fails over** — a confirmed fault switches the
  plane's routing to the ``"krbenes"`` backend: a real Benes route
  with Waksman-looping controls (KR-Benes, cs/0309006), which the
  plane verifies like any other frame.  Words still pending after the
  retries ride it too.

The plane books each served frame (:meth:`FaultPolicy.book`: the
per-mode counters and the ``delivery`` event) when it leaves the
plane; :meth:`FaultPolicy.submit` serves and books at once, as the
oracle does.

The object :class:`~repro.service.fabric.ResilientFabric` stays the
readable reference and the test oracle: fed the same frames and the
same faults, the two agree on every mode, retry count, counter, BIST
syndrome, health state and confirmed fault class.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional, Tuple

import numpy as np

from ..backends import RoutingBackend, compiled_backend
from ..core.plan import FaultMask, build_fault_mask
from ..exceptions import QuarantineExhaustedError, RetryBudgetExceededError
from ..faults.bist import BISTSchedule, shared_bist_schedule
from ..faults.injector import SwitchCoordinate
from ..faults.localization import LocalizationResult, localize
from .registry import (
    FaultRegistry,
    HealthState,
    ServiceCounters,
    service_summary,
)

__all__ = ["BACKOFF_BASE", "Delivery", "FaultPolicy", "RETRY_BUDGET"]

#: Repair passes per frame before the policy gives up on the primary.
RETRY_BUDGET = 4
#: Backoff before repair pass ``k`` is ``BACKOFF_BASE << k`` cycles.
BACKOFF_BASE = 1


class Delivery(NamedTuple):
    """How :meth:`FaultPolicy.serve` delivered one frame: its *mode*,
    the repair passes it took, its real words and how many of them
    rode the spare."""

    tag: Any
    mode: str  # "clean" | "degraded" | "failover"
    retries: int
    words: int
    spare_words: int


class FaultPolicy:
    """Verify, retry, diagnose, quarantine and fail over; see module
    docstring.

    *mask* is the primary's physical faults (``None`` for a healthy
    fabric); live injection adds to it.  *schedule* defaults to the
    shared per-``m`` BIST schedule.
    """

    def __init__(
        self,
        m: int,
        mask: Optional[FaultMask] = None,
        schedule: Optional[BISTSchedule] = None,
    ) -> None:
        if mask is not None and mask.m != m:
            raise ValueError(f"fault mask is for m={mask.m}, policy is m={m}")
        self.m = m
        self.n = 1 << m
        self.primary: RoutingBackend = compiled_backend("bnb", m)
        self.spare: RoutingBackend = compiled_backend("krbenes", m)
        self.fault_mask = mask
        self.schedule = (
            schedule if schedule is not None else shared_bist_schedule(m)
        )
        if self.schedule.m != m:
            raise ValueError(
                f"BIST schedule is m={self.schedule.m}, policy is m={m}"
            )
        self.registry = FaultRegistry()
        #: Optional ``hook(probe, observation)`` called for every BIST
        #: probe; the telemetry layer counts outcomes through it.
        self.probe_hook: Optional[Any] = None
        self._lines = np.arange(self.n, dtype=np.int64)

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
    def backend(self) -> RoutingBackend:
        """What the plane routes on: the primary, or after failover the
        Benes spare."""
        return self.spare if self.registry.is_quarantined else self.primary

    @property
    def mask(self) -> Optional[FaultMask]:
        """The mask the plane routes under (the spare is fault-free)."""
        return None if self.registry.is_quarantined else self.fault_mask

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(
        self,
        addresses: np.ndarray,
        tag: Any = None,
        count: Optional[int] = None,
    ) -> Tuple[str, int]:
        """Deliver one frame and book it; return its ``(mode, retries)``.

        :meth:`serve` then :meth:`book`: the oracle's ``submit_words``.
        """
        delivery = self.serve(addresses, tag, count)
        self.book(delivery)
        return delivery.mode, delivery.retries

    def serve(
        self,
        addresses: np.ndarray,
        tag: Any = None,
        count: Optional[int] = None,
        sources: Optional[np.ndarray] = None,
    ) -> Delivery:
        """Route one frame until every real word reached its line.

        *addresses* is a full permutation whose first *count* lines
        (all of them by default) carry real words.  *sources* is the
        frame's routing on :attr:`backend`, already verified by the
        plane when that is the spare; ``None`` routes it here.  Raises
        :class:`~repro.exceptions.RetryBudgetExceededError` or
        :class:`~repro.exceptions.QuarantineExhaustedError` when the
        frame cannot be delivered.  ``batches`` counts the frame; the
        per-mode counters and the ``delivery`` event wait for
        :meth:`book`.
        """
        registry = self.registry
        counters = registry.counters
        counters.batches += 1
        addresses = np.asarray(addresses, dtype=np.int64)
        active = self.n if count is None else count
        if registry.is_quarantined:
            if sources is None:
                self._route_spare(addresses, active)
            return Delivery(tag, "failover", 0, active, active)
        if sources is None:
            sources = self.primary.route_frame(addresses, mask=self.fault_mask)
        pending = self._misrouted(addresses, active, sources)
        if not len(pending):
            return Delivery(tag, "clean", 0, active, 0)

        # Fault path: detect, retry with backoff, then diagnose.
        counters.detections += 1
        if registry.state is HealthState.HEALTHY:
            registry.transition(HealthState.SUSPECT)
        registry.emit(
            "detection", tag,
            f"{len(pending)} of {active} words misrouted",
            misrouted=len(pending), state=registry.state.value,
        )
        retries = 0
        while len(pending) and retries < RETRY_BUDGET:
            backoff = BACKOFF_BASE << retries
            counters.backoff_cycles += backoff
            retries += 1
            counters.retries += 1
            before = len(pending)
            frame = self._repair_frame(pending)
            pending = self._misrouted(
                frame,
                before,
                self.primary.route_frame(frame, mask=self.fault_mask),
            )
            registry.emit(
                "retry", tag,
                f"pass {retries}: {before} -> {len(pending)} pending "
                f"after {backoff} backoff cycle(s)",
                attempt=retries, backoff_cycles=backoff,
                pending_before=before, pending_after=len(pending),
            )

        if registry.state is HealthState.SUSPECT:
            self._diagnose(tag)

        spare_words = len(pending)
        if spare_words:
            if not registry.is_quarantined:
                raise RetryBudgetExceededError(spare_words, retries)
            self._route_spare(self._repair_frame(pending), spare_words)
        mode = "failover" if spare_words else "degraded"
        return Delivery(tag, mode, retries, active, spare_words)

    def book(self, delivery: Delivery) -> None:
        """Count a served frame as delivered and log its ``delivery``
        event.  A plane books a frame when the frame leaves it, so a
        frame a plane kill strands is counted where it is delivered,
        not also here."""
        counters = self.registry.counters
        words, spare = delivery.words, delivery.spare_words
        if delivery.mode == "clean":
            counters.batches_clean += 1
            counters.words_clean += words
        elif delivery.mode == "degraded":
            counters.batches_degraded += 1
            counters.words_degraded += words
        else:
            counters.batches_failover += 1
            counters.words_degraded += words - spare
            counters.words_failover += spare
        retries = delivery.retries
        if not retries:
            # Clean on the primary, or straight onto the spare.
            how = "clean" if delivery.mode == "clean" else "via spare plane"
            self.registry.emit(
                "delivery", delivery.tag, f"{words} words {how}",
                mode=delivery.mode, words=words,
            )
            return
        self.registry.emit(
            "delivery", delivery.tag,
            f"{words} words after {retries} retr{'y' if retries == 1 else 'ies'} "
            f"({delivery.mode})",
            mode=delivery.mode, words=words, retries=retries,
        )

    def check(self, tag: Any = "bist") -> LocalizationResult:
        """Proactive health check: run the BIST schedule and act on it."""
        if self.registry.is_quarantined:
            raise QuarantineExhaustedError(
                "primary already quarantined; nothing left to check"
            )
        return self._diagnose(tag)

    def inject_stuck_control(
        self, coordinate: SwitchCoordinate, value: int
    ) -> None:
        """Add one stuck control to the primary's mask (accumulative).

        The operator's fault drill (the ``inject`` wire op lands here):
        the next frame the plane routes feels it, and detection,
        diagnosis and quarantine follow through the normal lifecycle.
        """
        stuck = (
            (
                coordinate.main_stage,
                coordinate.nested,
                coordinate.nested_stage,
                coordinate.box,
                coordinate.switch,
            ),
            int(value),
        )
        mask = self.fault_mask
        self.fault_mask = build_fault_mask(
            self.m,
            stuck=[*(mask.stuck if mask is not None else ()), stuck],
            dead_links=mask.dead if mask is not None else (),
        )
        self.registry.emit(
            "injection", None,
            f"stuck-{value} control injected at "
            f"({coordinate.main_stage},{coordinate.nested},"
            f"{coordinate.nested_stage},{coordinate.box},{coordinate.switch})",
            value=int(value),
        )

    def summary(self) -> str:
        """One-paragraph plain-text status (CLI-friendly)."""
        return service_summary(
            self.registry, self.schedule.probe_count, self.n
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _misrouted(
        self, addresses: np.ndarray, count: int, sources: np.ndarray
    ) -> np.ndarray:
        """Addresses of the real words (lines ``< count``) that missed
        their line, in the order of the output lines they landed on —
        the order the oracle's ``_split`` walks."""
        landed = addresses[sources]
        return landed[(sources < count) & (landed != self._lines)]

    def _repair_frame(self, pending: np.ndarray) -> np.ndarray:
        """*pending* on the first lines, the unused addresses after them
        in ascending order (``complete_partial_permutation``'s fill)."""
        unused = np.ones(self.n, dtype=bool)
        unused[pending] = False
        return np.concatenate([pending, self._lines[unused]])

    def _route_spare(self, addresses: np.ndarray, count: int) -> None:
        """Route a frame on the spare; raise unless its real words
        (lines ``< count``) all reached their lines."""
        sources = self.spare.route_frame(addresses)
        wrong = self._misrouted(addresses, count, sources)
        if len(wrong):
            raise QuarantineExhaustedError(
                f"spare plane misrouted the words addressed to "
                f"{wrong.tolist()}"
            )

    def _diagnose(self, tag: Any) -> LocalizationResult:
        registry = self.registry
        counters = registry.counters
        counters.bist_runs += 1
        observations = self.schedule.run_batch(
            lambda probes: self.primary.route_frame_batch(
                probes, mask=self.fault_mask
            ),
            on_probe=self.probe_hook,
        )
        dirty = sum(not observation.clean for observation in observations)
        registry.emit(
            "bist", tag,
            f"{self.schedule.probe_count} probes, {dirty} dirty",
            probes=self.schedule.probe_count, dirty=dirty,
        )
        result = localize(
            self.m,
            observations,
            model="adaptive",
            tables=[probe.controls for probe in self.schedule.probes],
        )
        counters.localizations += 1
        registry.emit(
            "localization", tag, result.describe(),
            candidates=len(result.candidates),
            narrowed_from=result.narrowed_from,
        )
        if not dirty:
            # Probes all clean: the live misroutes did not reproduce.
            if registry.state is HealthState.SUSPECT:
                registry.transition(HealthState.HEALTHY)
                registry.emit(
                    "cleared", tag, "BIST clean; suspicion withdrawn"
                )
            return result
        if registry.state is HealthState.HEALTHY:
            registry.transition(HealthState.SUSPECT)
        registry.confirm(result.candidates)
        registry.emit(
            "confirmation", tag,
            f"fault confirmed: {result.describe()}",
            candidates=len(result.candidates),
        )
        registry.transition(HealthState.QUARANTINED)
        registry.emit(
            "quarantine", tag,
            f"primary plane quarantined "
            f"({len(result.coordinates)} switch(es) implicated)",
            coordinates=len(result.coordinates),
        )
        counters.failovers += 1
        registry.emit(
            "failover", tag, "traffic fails over to the Benes spare plane"
        )
        return result
