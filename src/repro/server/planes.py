"""Fabric planes: the switching capacity behind the gateway.

A *plane* is one independent copy of the fabric plus the book-keeping
to track which frames are inside it.  The kinds:

* :class:`BackendPlane` — frames routed through a compiled
  :class:`~repro.backends.RoutingBackend` (the BNB vector dataplane,
  the BNB object model, KR-Benes, the multiway sorter, or the arena's
  measured winner under ``engine="auto"``; see ``docs/backends.md``).
  Up to ``batch_window`` frames per gateway cycle go through one
  kernel call, every routed frame is verified in full, and verified
  frames leave the plane ``depth`` cycles later.  ``batch_window=1,
  depth=m`` is the BNB pipeline's timing (one frame enters per cycle,
  ``m`` in flight); ``depth=0`` with a wider window routes whole
  windows per cycle.  A misdelivery (a physical fault on this
  unprotected plane, or a backend bug) fails the plane, and its words
  requeue.
* :class:`ResilientPlane` — a
  :class:`~repro.service.ResilientFabric` (object engine) or
  :class:`~repro.service.ResilientVectorFabric` (vector engine) whose
  submit path already verifies, retries, BIST-diagnoses and fails over
  to a Benes spare, so a stuck switch degrades the plane instead of
  failing it.  One frame per step (the resilient submit drains its
  pipeline), so the resilient kinds trade peak throughput for fault
  tolerance — the vector fabric narrows that trade substantially.

Both expose the same interface the gateway's clock loop drives:
``ready`` / ``offer`` / ``step`` / ``kill`` / ``load``.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..backends import RoutingBackend, compiled_backend
from ..core.pipeline_fast import VectorPipelinedFabric
from ..exceptions import FaultServiceError, MisdeliveryError
from ..service.fabric import ResilientFabric
from .scheduler import ScheduledFrame
from .voq import QueueEntry

__all__ = ["BackendPlane", "CompletedFrame", "ResilientPlane"]


@dataclasses.dataclass
class CompletedFrame:
    """A frame that left a plane with every word on its addressed line.

    The gateway resolves receipts from ``frame.entries``; the plane has
    already verified the routing, so no per-line output travels here.
    """

    frame: ScheduledFrame
    plane_id: int
    mode: str  # "clean" | "degraded" | "failover"


class _PlaneBase:
    """Shared identity, health and accounting for both plane kinds."""

    def __init__(self, plane_id: int) -> None:
        self.plane_id = plane_id
        self.healthy = True
        self.frames_delivered = 0
        self.words_delivered = 0
        self.failure: Optional[str] = None
        self._in_flight: Dict[int, ScheduledFrame] = {}

    @property
    def in_flight(self) -> int:
        return len(self._in_flight)

    def kill(self, reason: str = "killed") -> List[QueueEntry]:
        """Take the plane out of service; return stranded queue entries.

        Idempotent: a second kill returns nothing.  The caller (the
        gateway) requeues the entries so in-flight words survive the
        plane's death.
        """
        if not self.healthy:
            return []
        self.healthy = False
        self.failure = reason
        stranded = [
            entry
            for frame in self._in_flight.values()
            for entry in frame.entries.values()
        ]
        self._in_flight.clear()
        return stranded

    def describe(self) -> Dict[str, Any]:
        return {
            "id": self.plane_id,
            "kind": type(self).__name__,
            "healthy": self.healthy,
            "failure": self.failure,
            "in_flight": self.in_flight,
            "frames_delivered": self.frames_delivered,
            "words_delivered": self.words_delivered,
        }


class BackendPlane(_PlaneBase):
    """A plane routing through a compiled backend; see module docstring.

    Verification is total and backend-agnostic: the routed ``sources``
    row of a frame must satisfy ``sources[dest] == line_of[dest]`` for
    every genuine destination, which one vectorized comparison over the
    frame's ``real_dests``/``real_lines`` arrays checks without building
    a single :class:`~repro.core.words.Word`.  A failed check kills the
    plane and requeues everything still inside it — the buffered
    frames, the held ones and the bad frame itself.
    """

    def __init__(
        self,
        plane_id: int,
        m: int,
        backend: "RoutingBackend | str" = "bnb",
        batch_window: int = 32,
        depth: int = 0,
    ) -> None:
        super().__init__(plane_id)
        if batch_window < 1:
            raise ValueError(
                f"batch_window must be >= 1, got {batch_window}"
            )
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        self.m = m
        self.n = 1 << m
        # Accept a name (compiled through the shared per-process cache)
        # or an already-compiled engine (the gateway passes one so every
        # plane shares it).
        self.backend = (
            compiled_backend(backend, m)
            if isinstance(backend, str)
            else backend
        )
        self.batch_window = batch_window
        self.depth = depth
        self.batches_routed = 0
        self._pending: List[ScheduledFrame] = []
        # Routed, verified frames waiting out the depth: (due step,
        # frames) groups, oldest first.
        self._held: Deque[Tuple[int, List[ScheduledFrame]]] = (
            collections.deque()
        )
        self._steps = 0

    @property
    def ready(self) -> bool:
        return self.healthy and len(self._pending) < self.batch_window

    @property
    def load(self) -> int:
        return self.in_flight

    def offer(self, frame: ScheduledFrame) -> None:
        if not self.ready:
            raise ValueError(f"plane {self.plane_id} cannot accept a frame now")
        self._pending.append(frame)
        self._in_flight[frame.tag] = frame

    def kill(self, reason: str = "killed") -> List[QueueEntry]:
        stranded = super().kill(reason=reason)
        self._pending.clear()
        self._held.clear()
        return stranded

    def step(self) -> Tuple[List[CompletedFrame], List[QueueEntry]]:
        """One clock: returns (verified completions, entries to requeue).

        Routes every buffered frame in one kernel call, then releases
        the frames whose depth has elapsed.
        """
        if not self.healthy or not self._in_flight:
            return [], []
        self._steps += 1
        if self._pending:
            frames, self._pending = self._pending, []
            try:
                self._route(frames)
            except MisdeliveryError as error:
                return [], self.kill(reason=str(error))
            self._held.append((self._steps + self.depth, frames))
        completed: List[CompletedFrame] = []
        held = self._held
        while held and held[0][0] <= self._steps:
            for frame in held.popleft()[1]:
                del self._in_flight[frame.tag]
                self.frames_delivered += 1
                self.words_delivered += frame.active
                completed.append(
                    CompletedFrame(
                        frame=frame, plane_id=self.plane_id, mode="clean"
                    )
                )
        return completed, []

    def _route(self, frames: List[ScheduledFrame]) -> None:
        """Route *frames* in one call; raise on any misplaced word.

        A lone frame goes through ``route_frame``, which is cheaper than
        a batch of one; several share one ``route_frame_batch``.
        """
        if len(frames) == 1:
            sources = self.backend.route_frame(frames[0].address_array)[
                None, :
            ]
        else:
            sources = self.backend.route_frame_batch(
                np.stack([frame.address_array for frame in frames])
            )
        self.batches_routed += 1
        for row, frame in zip(sources, frames):
            dests = frame.real_dests
            if dests.size and not np.array_equal(
                row[dests], frame.real_lines
            ):
                bad = dests[row[dests] != frame.real_lines]
                raise MisdeliveryError(
                    self.plane_id,
                    f"frame {frame.tag}: backend {self.backend.name!r} "
                    f"put the wrong source lines on outputs {bad.tolist()}",
                )

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info["engine"] = "backend"
        info["backend"] = self.backend.name
        info["batch_window"] = self.batch_window
        info["depth"] = self.depth
        info["batches_routed"] = self.batches_routed
        return info


class ResilientPlane(_PlaneBase):
    """A :class:`ResilientFabric`-protected plane: self-healing.

    ``step`` runs the full verified submit for one queued frame, so a
    frame occupies the plane for several internal fabric cycles; the
    gateway sees at most one completion per step.  Faults degrade the
    plane (retries, Benes failover) rather than killing it; only an
    exhausted fault service (:class:`FaultServiceError`) fails it.
    Pass a :class:`~repro.service.ResilientVectorFabric` (the
    ``--engine vector --resilient`` deployment) to run the same
    lifecycle on the compiled engine.
    """

    def __init__(
        self,
        plane_id: int,
        m: int,
        fabric: Optional[ResilientFabric] = None,
    ) -> None:
        super().__init__(plane_id)
        self.m = m
        self.fabric = fabric if fabric is not None else ResilientFabric(m)
        self._queued: Optional[ScheduledFrame] = None

    @property
    def ready(self) -> bool:
        return self.healthy and self._queued is None

    @property
    def load(self) -> int:
        return self.in_flight + (0 if self._queued is None else 1)

    @property
    def degraded(self) -> bool:
        return self.fabric.registry.is_quarantined

    def offer(self, frame: ScheduledFrame) -> None:
        if not self.ready:
            raise ValueError(f"plane {self.plane_id} cannot accept a frame now")
        self._queued = frame
        self._in_flight[frame.tag] = frame

    def step(self) -> Tuple[List[CompletedFrame], List[QueueEntry]]:
        if not self.healthy or self._queued is None:
            return [], []
        frame = self._queued
        self._queued = None
        try:
            result = self.fabric.submit_words(frame.words, tag=frame.tag)
            self._verify(frame, result.outputs)
        except (FaultServiceError, MisdeliveryError) as error:
            return [], self.kill(reason=str(error))
        self._in_flight.pop(frame.tag, None)
        self.frames_delivered += 1
        self.words_delivered += frame.active
        return (
            [
                CompletedFrame(
                    frame=frame, plane_id=self.plane_id, mode=result.mode
                )
            ],
            [],
        )

    def _verify(self, frame: ScheduledFrame, outputs: List[Any]) -> None:
        """Every entry's word must sit on its addressed line, payload intact."""
        for destination, entry in frame.entries.items():
            word = outputs[destination]
            if word is None or word.payload is not entry:
                raise MisdeliveryError(
                    self.plane_id,
                    f"frame {frame.tag}: output {destination} carries "
                    f"{word!r}, expected the word for {entry.destination}",
                )

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info["engine"] = (
            "vector"
            if isinstance(self.fabric.pipeline, VectorPipelinedFabric)
            else "object"
        )
        info["service_state"] = self.fabric.state.value
        info["service_retries"] = self.fabric.counters.retries
        return info
