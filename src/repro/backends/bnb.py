"""The BNB engines behind the :class:`RoutingBackend` protocol.

Two registrations:

* ``"bnb"`` — the compiled vector dataplane.  ``route_frame_batch``
  is :func:`~repro.core.pipeline_fast.route_frame_batch` (all ``m``
  main stages of a ``(batch, n)`` stack as numpy gathers and stage-table
  lookups) and ``route_frame`` routes a lone frame as a one-row batch
  of it — one kernel, which the gateway's ``batch`` and ``bnb``
  engines both serve on.  The only backend that supports fault masks:
  both methods take an optional ``mask`` and reproduce the faulty
  fabric's arrival order.
* ``"bnb-object"`` — the reference object model
  (:class:`~repro.core.bnb.BNBNetwork.route`), word objects and all.
  Registered so the arena measures the same engine the paper's object
  pipeline serves with, and so ``repro route --backend bnb-object``
  exercises the protocol against the slowest truthful implementation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.plan import FaultMask, compiled_plan
from ..core.pipeline_fast import route_frame_batch
from .base import BackendSpec, register_backend

__all__ = ["BNBObjectBackend", "BNBVectorBackend"]


class BNBVectorBackend:
    """The compiled BNB dataplane as a protocol backend."""

    name = "bnb"

    def __init__(self, m: int) -> None:
        self.m = m
        self.n = 1 << m
        # Compile-once: the per-m gather plan both kernels run on.
        self.plan = compiled_plan(m)

    def route_frame(
        self, addresses: np.ndarray, mask: Optional[FaultMask] = None
    ) -> np.ndarray:
        # One kernel: a lone frame is a one-row batch.
        return self.route_frame_batch(np.asarray(addresses)[None], mask)[0]

    def route_frame_batch(
        self, addresses: np.ndarray, mask: Optional[FaultMask] = None
    ) -> np.ndarray:
        return route_frame_batch(self.m, addresses, mask=mask)

    def __repr__(self) -> str:
        return f"BNBVectorBackend(m={self.m}, n={self.n})"


class BNBObjectBackend:
    """The reference object-model BNB network as a protocol backend."""

    name = "bnb-object"

    def __init__(self, m: int) -> None:
        from ..core.bnb import BNBNetwork

        self.m = m
        self.n = 1 << m
        self.network = BNBNetwork(m)

    def route_frame(self, addresses: np.ndarray) -> np.ndarray:
        from ..core.words import Word

        words = [
            Word(address=int(address), payload=line)
            for line, address in enumerate(addresses)
        ]
        outputs, _record = self.network.route(words)
        return np.fromiter(
            (word.payload for word in outputs), dtype=np.int64, count=self.n
        )

    def route_frame_batch(self, addresses: np.ndarray) -> np.ndarray:
        # The object model has no frame axis; a batch is a Python loop.
        return np.array(
            [self.route_frame(row) for row in addresses], dtype=np.int64
        ).reshape(-1, self.n)

    def __repr__(self) -> str:
        return f"BNBObjectBackend(m={self.m}, n={self.n})"


register_backend(
    BackendSpec(
        name="bnb",
        summary="compiled BNB vector dataplane (frame-axis batch kernel)",
        factory=BNBVectorBackend,
        supports_fault_mask=True,
    )
)

register_backend(
    BackendSpec(
        name="bnb-object",
        summary="reference BNB object model (per-word Python routing)",
        factory=BNBObjectBackend,
    )
)
