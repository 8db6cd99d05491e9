"""Fabric planes: the switching capacity behind the gateway.

A *plane* is one independent copy of the fabric plus the book-keeping
to track which frames are inside it.  There is one kind,
:class:`BackendPlane`: frames routed through a compiled
:class:`~repro.backends.RoutingBackend` (the BNB vector dataplane, the
BNB object model, KR-Benes, the multiway sorter, or the arena's
measured winner under ``engine="auto"``; see ``docs/backends.md``).
Up to ``batch_window`` frames per gateway cycle go through one kernel
call, every routed frame is verified in full, and verified frames
leave the plane ``depth`` cycles later.  ``batch_window=1, depth=m``
is the BNB pipeline's timing (one frame enters per cycle, ``m`` in
flight); ``depth=0`` with a wider window routes whole windows per
cycle.

Without a fault policy a misdelivery (a physical fault, or a backend
bug) fails the plane, and its words requeue.  A *resilient* plane
carries a :class:`~repro.service.policy.FaultPolicy`: it routes on
``bnb`` under the policy's fault mask and hands every frame to the
policy, which retries misrouted words, diagnoses with BIST and fails
the plane's routing over to the ``krbenes`` spare — so a stuck switch
degrades the plane instead of failing it.

The gateway's clock loop drives ``free`` / ``ready`` / ``offer`` /
``step`` / ``kill`` / ``load``.  Frames travel in blocks
(:class:`~repro.server.voq.Block`): the gateway offers a plane one
block of as many frames as it has ``free``, and ``step`` hands back
whole blocks, delivered or stranded.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Any, Deque, Dict, List, Optional, Tuple

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
    check kills the plane and requeues everything still inside it —
    the buffered blocks, the held ones and the bad one itself.  With
    one, the plane routes on the policy's backend (*backend* is not
    used), the policy delivers the bad frames, and each frame of a
    block reports its own delivery mode; only an exhausted fault
    service (:class:`~repro.exceptions.FaultServiceError`) or a
    misroute on the spare kills the plane.  The policy books a frame
    (:meth:`~repro.service.policy.FaultPolicy.book`) when it leaves the
    plane, so the frames a kill strands are not counted as delivered.
    """

    def __init__(
        self,
        plane_id: int,
        m: int,
        backend: "RoutingBackend | str" = "bnb",
        batch_window: int = 32,
        depth: int = 0,
        policy: Optional[FaultPolicy] = None,
    ) -> None:
        if batch_window < 1:
            raise ValueError(
                f"batch_window must be >= 1, got {batch_window}"
            )
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
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
        self.depth = depth
        self.healthy = True
        self.failure: Optional[str] = None
        self.frames_delivered = 0
        self.words_delivered = 0
        self.batches_routed = 0
        # Blocks inside the plane by first tag, oldest first.
        self._in_flight: Dict[int, Block] = {}
        self._frames_inside = 0
        self._pending: List[Block] = []
        self._pending_frames = 0
        # Routed, verified blocks waiting out the depth: (due step,
        # blocks, their completions, the policy's deliveries to book)
        # groups, oldest first.
        self._held: Deque[
            Tuple[int, List[Block], List[CompletedFrame], List[Delivery]]
        ] = collections.deque()
        self._steps = 0
        self._lines = np.arange(self.n, dtype=np.int64)
        # Offset of each window row in a flattened (k, n) sources block.
        self._row_starts = np.arange(batch_window, dtype=np.int64)[:, None] * self.n

    @property
    def backend(self) -> RoutingBackend:
        """What the plane routes on.  A resilient plane routes on its
        policy's backend, which failover switches to the spare."""
        return self._backend if self.policy is None else self.policy.backend

    @property
    def in_flight(self) -> int:
        """Frames inside the plane."""
        return self._frames_inside

    @property
    def free(self) -> int:
        """Frames the plane can take this cycle."""
        return self.batch_window - self._pending_frames if self.healthy else 0

    @property
    def ready(self) -> bool:
        return self.healthy and self._pending_frames < self.batch_window

    @property
    def load(self) -> int:
        return self.in_flight

    def offer(self, block: Block) -> None:
        if block.k > self.free:
            raise ValueError(
                f"plane {self.plane_id} cannot accept {block.k} frame(s) now"
            )
        self._pending.append(block)
        self._pending_frames += block.k
        self._in_flight[block.tag] = block
        self._frames_inside += block.k

    def kill(self, reason: str = "killed") -> List[Block]:
        """Take the plane out of service; return the stranded blocks,
        oldest first.

        Idempotent: a second kill returns nothing.  The caller (the
        gateway) requeues their words so in-flight words survive the
        plane's death.
        """
        if not self.healthy:
            return []
        self.healthy = False
        self.failure = reason
        stranded = list(self._in_flight.values())
        self._in_flight.clear()
        self._frames_inside = 0
        self._pending.clear()
        self._pending_frames = 0
        self._held.clear()
        return stranded

    def step(self) -> Tuple[List[CompletedFrame], List[Block]]:
        """One clock: returns (verified completions, blocks to requeue).

        Routes every buffered frame in one kernel call, then releases
        the blocks whose depth has elapsed.
        """
        if not self.healthy or not self._in_flight:
            return [], []
        self._steps += 1
        if self._pending:
            blocks, self._pending = self._pending, []
            self._pending_frames = 0
            served: List[Delivery] = []
            try:
                done = self._route(blocks, served)
            except (FaultServiceError, MisdeliveryError) as error:
                return [], self.kill(reason=str(error))
            self._held.append((self._steps + self.depth, blocks, done, served))
        completed: List[CompletedFrame] = []
        held = self._held
        while held and held[0][0] <= self._steps:
            _due, blocks, done, served = held.popleft()
            for block in blocks:
                del self._in_flight[block.tag]
                self._frames_inside -= block.k
                self.frames_delivered += block.k
                self.words_delivered += block.size
            for delivery in served:
                self.policy.book(delivery)
            completed.extend(done)
        return completed, []

    def _route(
        self, blocks: List[Block], served: List[Delivery]
    ) -> List[CompletedFrame]:
        """Route *blocks* in one call; return their completions.

        A lone frame goes through ``route_frame``, which is cheaper than
        a batch of one; several share one ``route_frame_batch``, as does
        every call under a resilient plane's fault mask.  A resilient
        plane's policy deliveries go to *served*.
        """
        addresses = (
            blocks[0].addresses
            if len(blocks) == 1
            else np.concatenate([block.addresses for block in blocks])
        )
        backend = self.backend
        policy = self.policy
        mask = None if policy is None else policy.mask
        if mask is not None:
            sources = backend.route_frame_batch(addresses, mask=mask)
        elif len(addresses) == 1:
            sources = backend.route_frame(addresses[0])[None, :]
        else:
            sources = backend.route_frame_batch(addresses)
        self.batches_routed += 1
        done: List[CompletedFrame] = []
        offset = 0
        for block in blocks:
            rows = sources[offset : offset + block.k]
            offset += block.k
            if policy is None:
                self._verify(block, rows)
                done.append(
                    CompletedFrame(
                        block=block, plane_id=self.plane_id, mode="clean"
                    )
                )
            else:
                done.extend(
                    self._deliver(
                        block, rows, backend is not policy.primary, served
                    )
                )
        return done

    def _deliver(
        self,
        block: Block,
        rows: np.ndarray,
        on_spare: bool,
        served: List[Delivery],
    ) -> List[CompletedFrame]:
        """A resilient plane's completions for *block*, routed on the
        spare when *on_spare*: the policy serves it frame by frame, in
        order, into *served*.  One completion when every frame has the
        same mode, one per frame otherwise."""
        policy = self.policy
        if on_spare:
            self._verify(block, rows)
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
            return [CompletedFrame(block, self.plane_id, modes[0])]
        return [
            CompletedFrame(block.frame(j), self.plane_id, mode)
            for j, mode in enumerate(modes)
        ]

    def _verify(self, block: Block, rows: np.ndarray) -> None:
        """Raise unless ``rows[j, addresses[j, l]] == l`` on every real
        line ``l`` of every frame ``j`` of *block*: each real word's
        destination received it from its own input line."""
        if block.k == 1:
            # One frame (the pipelined shape and the unicast case): its
            # real words ride lines 0 .. count-1.
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
            "in_flight": self.in_flight,
            "frames_delivered": self.frames_delivered,
            "words_delivered": self.words_delivered,
            "engine": "backend",
            "backend": self.backend.name,
            "batch_window": self.batch_window,
            "depth": self.depth,
            "batches_routed": self.batches_routed,
        }
        if self.policy is not None:
            info["service_state"] = self.policy.state.value
            info["service_retries"] = self.policy.counters.retries
        return info
