"""Online fault-tolerance service for the BNB fabric.

Where :mod:`repro.faults` runs offline *experiments* (inject a known
fault, measure the damage), this package runs the online *service*
loop: verify every batch, retry misdelivered words with backoff,
diagnose via BIST probes and syndrome decoding, quarantine the
confirmed fault and fail over to a rearrangeable Benes spare plane.

Two implementations of one lifecycle:

* :class:`FaultPolicy` — the serving form, on the compiled kernels: a
  :class:`~repro.server.planes.BackendPlane` carrying one routes on
  ``bnb`` under a :class:`~repro.core.plan.FaultMask`, runs BIST as
  one batched kernel call and fails over to the ``krbenes`` backend;
* :class:`ResilientFabric` — the object-model reference and test
  oracle, on :class:`~repro.core.pipeline.PipelinedBNBFabric` and the
  object :class:`~repro.baselines.benes.BenesNetwork`.

Book-keeping types (:class:`HealthState`, :class:`FaultEvent`,
:class:`ServiceCounters`, :class:`HealthMonitor`) live in
:mod:`repro.service.registry`.
"""

from .fabric import BatchResult, ResilientFabric
from .policy import FaultPolicy
from .registry import (
    FaultEvent,
    FaultRegistry,
    HealthMonitor,
    HealthState,
    ServiceCounters,
)

__all__ = [
    "ResilientFabric",
    "FaultPolicy",
    "BatchResult",
    "FaultEvent",
    "FaultRegistry",
    "HealthMonitor",
    "HealthState",
    "ServiceCounters",
]
