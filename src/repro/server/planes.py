"""Fabric planes: the switching capacity behind the gateway.

A *plane* is one independent copy of the fabric and its delivery
counters.  There is one kind,
:class:`BackendPlane`: frames routed through a compiled
:class:`~repro.backends.RoutingBackend` (the BNB vector dataplane, the
BNB object model, KR-Benes, the multiway sorter, or the arena's
measured winner under ``engine="auto"``; see ``docs/backends.md``).
Up to ``batch_window`` frames per gateway cycle go through one kernel
call, every routed frame is verified in full, and verified frames
leave the plane in the call that routed them, so a plane holds
nothing between calls.  The BNB pipeline's own timing (one frame
enters per cycle and leaves ``m`` cycles later) has its cycle-accurate
reference in the object model
(:meth:`~repro.core.pipeline.PipelinedBNBFabric.stage_timeline`), and
its delay is an analytic result (Eq. 9) that :mod:`repro.sim`
measures; no plane waits it out.

Without a fault policy a misdelivery (a physical fault, or a backend
bug) fails the plane, and its words requeue.  A *resilient* plane
carries a :class:`~repro.service.policy.FaultPolicy`: it routes on
``bnb`` under the policy's fault mask and hands every frame to the
policy, which retries misrouted words, diagnoses with BIST and fails
the plane's routing over to the ``krbenes`` spare — so a stuck switch
degrades the plane instead of failing it.

The gateway's clock loop calls ``step`` once per plane per cycle.
Frames travel in blocks (:class:`~repro.server.voq.Block`): ``step``
takes one block of up to ``batch_window`` frames, routes it and hands
it back whole, delivered or stranded.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..backends import RoutingBackend, compiled_backend
from ..exceptions import FaultServiceError, MisdeliveryError
from ..service.policy import Delivery, FaultPolicy
from .voq import Block

__all__ = ["BackendPlane", "CompletedFrame"]


@dataclasses.dataclass
class CompletedFrame:
    """A block of frames that left a plane with every word on its
    addressed line.

    The gateway resolves the owners of ``block.words``; the plane has
    already verified the routing, so no per-line output travels here.
    """

    block: Block
    plane_id: int
    mode: str  # "clean" | "degraded" | "failover"


class BackendPlane:
    """A plane routing through a compiled backend; see module docstring.

    Verification is total and backend-agnostic: the routed ``sources``
    rows of a block, read at each frame's addresses, must give back
    each real word's own line (``sources[j, addresses[j, l]] == l``
    for every real line ``l``) — one vectorized comparison over the
    whole block, without building a single
    :class:`~repro.core.words.Word`.  Without a *policy*, a failed
    check kills the plane and hands the whole block back for
    requeueing.  With one, the plane routes on the policy's backend
    (*backend* is not used), the policy delivers the bad frames, and
    each frame of a block reports its own delivery mode; only an
    exhausted fault service (:class:`~repro.exceptions.FaultServiceError`)
    or a misroute on the spare kills the plane.  The policy books a
    block's frames (:meth:`~repro.service.policy.FaultPolicy.book`)
    only once the whole block is served, so the frames a kill strands
    are not counted as delivered.
    """

    def __init__(
        self,
        plane_id: int,
        m: int,
        backend: "RoutingBackend | str" = "bnb",
        batch_window: int = 32,
        policy: Optional[FaultPolicy] = None,
    ) -> None:
        if batch_window < 1:
            raise ValueError(
                f"batch_window must be >= 1, got {batch_window}"
            )
        self.plane_id = plane_id
        self.m = m
        self.n = 1 << m
        # Accept a name (compiled through the shared per-process cache)
        # or an already-compiled engine (the gateway passes one so every
        # plane shares it).
        self._backend = (
            policy.primary
            if policy is not None
            else compiled_backend(backend, m)
            if isinstance(backend, str)
            else backend
        )
        self.policy = policy
        self.batch_window = batch_window
        self.healthy = True
        self.failure: Optional[str] = None
        self.frames_delivered = 0
        self.words_delivered = 0
        self.batches_routed = 0
        self._lines = np.arange(self.n, dtype=np.int64)
        # Offset of each window row in a flattened (k, n) sources block.
        self._row_starts = np.arange(batch_window, dtype=np.int64)[:, None] * self.n

    @property
    def backend(self) -> RoutingBackend:
        """What the plane routes on.  A resilient plane routes on its
        policy's backend, which failover switches to the spare."""
        return self._backend if self.policy is None else self.policy.backend

    def kill(self, reason: str = "killed") -> None:
        """Take the plane out of service.  Idempotent: a second kill
        keeps the first reason."""
        if self.healthy:
            self.healthy = False
            self.failure = reason

    def step(self, block: Block) -> Tuple[List[CompletedFrame], List[Block]]:
        """Route *block* in one backend call, verify every frame and
        release it: returns (completions, blocks to requeue).

        A dead plane, or one that this block's routing kills, hands the
        block back: ``([], [block])``.
        """
        if block.k > self.batch_window:
            raise ValueError(
                f"plane {self.plane_id} cannot take {block.k} frame(s): "
                f"its window is {self.batch_window}"
            )
        if not self.healthy:
            return [], [block]
        try:
            done, served = self._route(block)
        except (FaultServiceError, MisdeliveryError) as error:
            self.kill(reason=str(error))
            return [], [block]
        self.frames_delivered += block.k
        self.words_delivered += block.size
        for delivery in served:
            self.policy.book(delivery)
        return done, []

    def _route(
        self, block: Block
    ) -> Tuple[List[CompletedFrame], List[Delivery]]:
        """Route *block* in one ``route_frame_batch`` call (a lone frame
        is a one-row batch; a resilient plane routes under its policy's
        fault mask) and verify it; return its completions and the
        policy deliveries to book (none without a policy).
        """
        backend = self.backend
        policy = self.policy
        mask = None if policy is None else policy.mask
        sources = (
            backend.route_frame_batch(block.addresses)
            if mask is None
            else backend.route_frame_batch(block.addresses, mask=mask)
        )
        self.batches_routed += 1
        if policy is None:
            self._verify(block, sources)
            return [CompletedFrame(block, self.plane_id, "clean")], []
        return self._deliver(block, sources, backend is not policy.primary)

    def _deliver(
        self, block: Block, rows: np.ndarray, on_spare: bool
    ) -> Tuple[List[CompletedFrame], List[Delivery]]:
        """A resilient plane's completions for *block*, routed on the
        spare when *on_spare*, and the policy's deliveries: the policy
        serves the block frame by frame, in order.  One completion when
        every frame has the same mode, one per frame otherwise."""
        policy = self.policy
        if on_spare:
            self._verify(block, rows)
        served: List[Delivery] = []
        modes = []
        for j in range(block.k):
            # A frame the primary routed before a quarantine earlier in
            # this block rides the spare instead (sources None).
            quarantined = policy.registry.is_quarantined
            delivery = policy.serve(
                block.addresses[j],
                block.tag + j,
                int(block.counts[j]),
                rows[j] if on_spare or not quarantined else None,
            )
            served.append(delivery)
            modes.append(delivery.mode)
        if modes.count(modes[0]) == len(modes):
            return [CompletedFrame(block, self.plane_id, modes[0])], served
        return [
            CompletedFrame(block.frame(j), self.plane_id, mode)
            for j, mode in enumerate(modes)
        ], served

    def _verify(self, block: Block, rows: np.ndarray) -> None:
        """Raise unless ``rows[j, addresses[j, l]] == l`` on every real
        line ``l`` of every frame ``j`` of *block*: each real word's
        destination received it from its own input line."""
        if block.k == 1:
            # One frame (the unicast case): its real words ride lines
            # 0 .. count-1.
            real = block.addresses[0, : block.counts.item(0)]
            wrong = (rows[0].take(real) != self._lines[: len(real)])[None, :]
        else:
            wrong = (
                rows.reshape(-1).take(block.addresses + self._row_starts[: block.k])
                != self._lines
            )
            if not block.full:
                wrong &= self._lines < block.counts[:, None]
        if wrong.any():
            j = int(wrong.any(axis=1).argmax())
            bad = block.addresses[j, : wrong.shape[1]][wrong[j]]
            raise MisdeliveryError(
                self.plane_id,
                f"frame {block.tag + j}: backend {self.backend.name!r} "
                f"put the wrong source lines on outputs {bad.tolist()}",
            )

    def describe(self) -> Dict[str, Any]:
        info = {
            "id": self.plane_id,
            "kind": type(self).__name__,
            "healthy": self.healthy,
            "failure": self.failure,
            "frames_delivered": self.frames_delivered,
            "words_delivered": self.words_delivered,
            "engine": "backend",
            "backend": self.backend.name,
            "batch_window": self.batch_window,
            "batches_routed": self.batches_routed,
        }
        if self.policy is not None:
            info["service_state"] = self.policy.state.value
            info["service_retries"] = self.policy.counters.retries
        return info
