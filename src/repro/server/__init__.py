"""Async traffic gateway: serving live traffic over the BNB fabric.

Where :mod:`repro.core.traffic` answers "how does messy traffic map
onto the permutation contract" for one offline batch, this package
keeps answering it forever, online, for concurrent clients:

* :mod:`repro.server.voq` — per-destination **virtual output queues**
  with bounded-depth admission control (reject-with-retry-after, never
  unbounded buffering), kept as struct-of-arrays rings: one int64 row
  per word (owner id, batch index, enqueue cycle, requeue count), so a
  whole ``send_batch`` is admitted with array operations and no Python
  object exists per word;
* :mod:`repro.server.scheduler` — the **frame scheduler** that each
  cycle composes as many frames as a plane has room for into one
  :class:`~repro.server.voq.Block`: frame ``j`` takes the ``j``-th
  queued word of every destination (a conflict-free partial
  permutation) and idle-fills the rest, laid out as
  :func:`~repro.core.traffic.coalesce_frame` would;
* :mod:`repro.server.planes` — **fabric planes**: one kind,
  :class:`~repro.server.planes.BackendPlane`, routes frames through a
  compiled routing backend and verifies every one in full, either one
  frame per cycle on the BNB pipeline's ``m``-cycle timing or whole
  windows per cycle.  A faulty plane drains, its words requeue, and
  the pool serves on; a resilient plane's
  :class:`~repro.service.FaultPolicy` instead retries, diagnoses and
  fails over to a Benes spare, so it survives physical faults;
* :mod:`repro.server.gateway` — the **asyncio dataplane** tying them
  together: ``await gateway.send(dest, payload)`` returns a delivery
  receipt, ``await gateway.send_batch(dests)`` a per-word
  :class:`~repro.server.gateway.BatchResult`; a clock task schedules
  blocks onto the least-loaded plane, and each delivered block is
  scattered into its owners' result arrays (or resolves a single
  send's future);
* :mod:`repro.server.ops` — the **declarative op registry** every wire
  framing dispatches through (one :class:`~repro.server.ops.OpSpec`
  per protocol operation, stable error-slug mapping);
* :mod:`repro.server.framing` — the **binary wire framing**
  (length-prefixed header + JSON meta + packed ``int64`` array
  payload) and the protocol version;
* :mod:`repro.server.protocol` — the **TCP server** hosting both the
  JSON-lines and the binary framing on one auto-detecting port
  (``repro serve`` hosts it; :class:`repro.client.GatewayClient`
  speaks it).

See ``docs/serving.md`` for the architecture, the backpressure
contract and the full wire specification.
"""

from .framing import MAGIC, PROTOCOL_VERSION
from .gateway import (
    AsyncGateway,
    BatchResult,
    GatewayConfig,
    Receipt,
    engine_names,
    resilient_engines,
)
from .ops import REGISTRY, OpSpec
from .planes import BackendPlane
from .protocol import GatewayServer
from .scheduler import FrameScheduler
from .voq import DEFAULT_TENANT, NO_OWNER, Block, VirtualOutputQueues

__all__ = [
    "AsyncGateway",
    "DEFAULT_TENANT",
    "BatchResult",
    "BackendPlane",
    "Block",
    "GatewayConfig",
    "GatewayServer",
    "FrameScheduler",
    "MAGIC",
    "NO_OWNER",
    "OpSpec",
    "PROTOCOL_VERSION",
    "REGISTRY",
    "Receipt",
    "VirtualOutputQueues",
    "engine_names",
    "resilient_engines",
]
