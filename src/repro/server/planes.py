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
``free`` / ``ready`` / ``offer`` / ``step`` / ``kill`` / ``load``.
Frames travel in blocks (:class:`~repro.server.voq.Block`): the
gateway offers a plane one block of as many frames as it has ``free``,
and ``step`` hands back whole blocks, delivered or stranded.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..backends import RoutingBackend, compiled_backend
from ..core.pipeline_fast import VectorPipelinedFabric
from ..core.words import Word
from ..exceptions import FaultServiceError, MisdeliveryError
from ..service.fabric import ResilientFabric
from .voq import Block

__all__ = ["BackendPlane", "CompletedFrame", "ResilientPlane"]


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


class _PlaneBase:
    """Shared identity, health and accounting for both plane kinds."""

    def __init__(self, plane_id: int) -> None:
        self.plane_id = plane_id
        self.healthy = True
        self.frames_delivered = 0
        self.words_delivered = 0
        self.failure: Optional[str] = None
        # Blocks inside the plane by first tag, oldest first.
        self._in_flight: Dict[int, Block] = {}
        self._frames_inside = 0

    @property
    def in_flight(self) -> int:
        """Frames inside the plane."""
        return self._frames_inside

    def _enter(self, block: Block) -> None:
        self._in_flight[block.tag] = block
        self._frames_inside += block.k

    def _leave(self, block: Block) -> None:
        del self._in_flight[block.tag]
        self._frames_inside -= block.k
        self.frames_delivered += block.k
        self.words_delivered += block.size

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
    rows of a block, read at each frame's addresses, must give back
    each real word's own line (``sources[j, addresses[j, l]] == l``
    for every real line ``l``) — one vectorized comparison over the
    whole block, without building a single
    :class:`~repro.core.words.Word`.  A failed check kills the plane
    and requeues everything still inside it — the buffered blocks, the
    held ones and the bad one itself.
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
        self._pending: List[Block] = []
        self._pending_frames = 0
        # Routed, verified blocks waiting out the depth: (due step,
        # blocks) groups, oldest first.
        self._held: Deque[Tuple[int, List[Block]]] = collections.deque()
        self._steps = 0
        self._lines = np.arange(self.n, dtype=np.int64)
        # Offset of each window row in a flattened (k, n) sources block.
        self._row_starts = np.arange(batch_window, dtype=np.int64)[:, None] * self.n

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
        self._enter(block)

    def kill(self, reason: str = "killed") -> List[Block]:
        stranded = super().kill(reason=reason)
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
            try:
                self._route(blocks)
            except MisdeliveryError as error:
                return [], self.kill(reason=str(error))
            self._held.append((self._steps + self.depth, blocks))
        completed: List[CompletedFrame] = []
        held = self._held
        while held and held[0][0] <= self._steps:
            for block in held.popleft()[1]:
                self._leave(block)
                completed.append(
                    CompletedFrame(
                        block=block, plane_id=self.plane_id, mode="clean"
                    )
                )
        return completed, []

    def _route(self, blocks: List[Block]) -> None:
        """Route *blocks* in one call; raise on any misplaced word.

        A lone frame goes through ``route_frame``, which is cheaper than
        a batch of one; several share one ``route_frame_batch``.
        """
        addresses = (
            blocks[0].addresses
            if len(blocks) == 1
            else np.concatenate([block.addresses for block in blocks])
        )
        if len(addresses) == 1:
            sources = self.backend.route_frame(addresses[0])[None, :]
        else:
            sources = self.backend.route_frame_batch(addresses)
        self.batches_routed += 1
        offset = 0
        for block in blocks:
            self._verify(block, sources[offset : offset + block.k])
            offset += block.k

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
        info = super().describe()
        info["engine"] = "backend"
        info["backend"] = self.backend.name
        info["batch_window"] = self.batch_window
        info["depth"] = self.depth
        info["batches_routed"] = self.batches_routed
        return info


class ResilientPlane(_PlaneBase):
    """A :class:`ResilientFabric`-protected plane: self-healing.

    ``step`` runs the full verified submit for one queued one-frame
    block, so a frame occupies the plane for several internal fabric
    cycles; the gateway sees at most one completion per step.  Each
    real word rides as a :class:`~repro.core.words.Word` whose payload
    is its input line (idle filler carries ``None``), and delivery is
    verified by reading every real destination's payload back.
    Faults degrade the plane (retries, Benes failover) rather than
    killing it; only an exhausted fault service
    (:class:`FaultServiceError`) fails it.  Pass a
    :class:`~repro.service.ResilientVectorFabric` (the ``--engine
    vector --resilient`` deployment) to run the same lifecycle on the
    compiled engine.
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
        self._queued: Optional[Block] = None

    @property
    def free(self) -> int:
        return 1 if self.ready else 0

    @property
    def ready(self) -> bool:
        return self.healthy and self._queued is None

    @property
    def load(self) -> int:
        return self.in_flight + (0 if self._queued is None else 1)

    @property
    def degraded(self) -> bool:
        return self.fabric.registry.is_quarantined

    def offer(self, block: Block) -> None:
        if not self.ready or block.k != 1:
            raise ValueError(
                f"plane {self.plane_id} takes one frame at a time, "
                f"got {block.k} (ready={self.ready})"
            )
        self._queued = block
        self._enter(block)

    def step(self) -> Tuple[List[CompletedFrame], List[Block]]:
        if not self.healthy or self._queued is None:
            return [], []
        block = self._queued
        self._queued = None
        addresses = block.addresses[0].tolist()
        real = int(block.counts[0])
        words = [
            Word(address=address, payload=line if line < real else None)
            for line, address in enumerate(addresses)
        ]
        try:
            result = self.fabric.submit_words(words, tag=block.tag)
            self._verify(block, addresses[:real], result.outputs)
        except (FaultServiceError, MisdeliveryError) as error:
            return [], self.kill(reason=str(error))
        self._leave(block)
        return (
            [
                CompletedFrame(
                    block=block, plane_id=self.plane_id, mode=result.mode
                )
            ],
            [],
        )

    def _verify(
        self, block: Block, destinations: List[int], outputs: List[Any]
    ) -> None:
        """Every real word must sit on its addressed line, payload intact."""
        for line, destination in enumerate(destinations):
            word = outputs[destination]
            if word is None or word.payload != line:
                raise MisdeliveryError(
                    self.plane_id,
                    f"frame {block.tag}: output {destination} carries "
                    f"{word!r}, expected the word from input line {line}",
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
