"""KR-Benes backend: Waksman looping on precomputed gather tables.

The control-optimal rearrangeable rival (arxiv cs/0309006 lineage):
routing cost is dominated by *computing* the ``2m - 1`` control columns,
not by moving words, so this backend keeps the repository's existing
Waksman looping algorithm (:meth:`repro.baselines.benes.BenesNetwork
.controls_for`, exercised fabric-level by the baseline tests) and
replaces the object fabric's per-word ``route_with_controls`` walk with
compiled index arithmetic in the style of :mod:`repro.core.plan`:

* the interstage wirings (``U_{m-i}^m`` unshuffles and their mirror
  shuffles) are scatters in the object model (``out[wiring[j]] =
  lines[j]``); compiled once per ``m`` into their **gather** inverses
  (frozen int64 arrays), a column transition is ``lines[inverse]``;
* a column's switch settings become one full-width partner-swap index
  (``identity ^ repeat(controls, 2)``), composed with the wiring gather
  in a single fancy-indexing pass over the frame's source array.

So a routed frame costs one Python-level Waksman pass (inherently
sequential — that is the paper's argument *for* self-routing) plus
``2m - 1`` numpy gathers, with no per-word objects anywhere.
"""

from __future__ import annotations

import numpy as np

from ..baselines.benes import BenesNetwork
from ..permutations.permutation import Permutation
from ..topology.connections import invert_connection
from .base import BackendSpec, register_backend

__all__ = ["KRBenesBackend"]


class KRBenesBackend:
    """Benes fabric + Waksman controls on compiled gather tables."""

    name = "krbenes"

    def __init__(self, m: int) -> None:
        self.m = m
        self.n = 1 << m
        # Compile-once: the Benes network object (reused for its looping
        # algorithm) and the gather form of every interstage wiring.
        self.network = BenesNetwork(m)
        gathers = []
        for wiring in self.network.fabric.wirings:
            inverse = np.asarray(invert_connection(wiring), dtype=np.int64)
            inverse.flags.writeable = False
            gathers.append(inverse)
        self.wiring_gathers = tuple(gathers)
        identity = np.arange(self.n, dtype=np.int64)
        identity.flags.writeable = False
        self.identity = identity

    def _apply_controls(self, controls) -> np.ndarray:
        """Compose every column's exchanges and wirings into sources."""
        sources = self.identity
        gathers = self.wiring_gathers
        for column, column_controls in enumerate(controls):
            exchange = np.repeat(
                np.asarray(column_controls, dtype=np.int64), 2
            )
            # identity ^ exchange sends a line to its pair partner
            # exactly where the switch says exchange (controls are 0/1).
            step = self.identity ^ exchange
            if column < len(gathers):
                step = step[gathers[column]]
            sources = sources[step]
        return sources

    def route_frame(self, addresses: np.ndarray) -> np.ndarray:
        pi = Permutation(int(address) for address in addresses)
        controls = self.network.controls_for(pi)
        return self._apply_controls(controls)

    def route_frame_batch(self, addresses: np.ndarray) -> np.ndarray:
        # Waksman's looping is global per frame; only the gather half
        # of the work vectorizes, so a batch is a loop of frames.
        return np.array(
            [self.route_frame(row) for row in addresses], dtype=np.int64
        ).reshape(-1, self.n)

    def __repr__(self) -> str:
        return f"KRBenesBackend(m={self.m}, n={self.n})"


register_backend(
    BackendSpec(
        name="krbenes",
        summary="Benes fabric, Waksman looping controls, compiled gathers",
        factory=KRBenesBackend,
    )
)
