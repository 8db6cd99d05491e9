"""The paper's primary contribution: the BNB self-routing network.

Public surface:

* :class:`~repro.core.bnb.BNBNetwork` — the headline network
  (Definition 5, Theorem 2): feed it any permutation of destination
  addresses (optionally with payloads) and it self-routes every word to
  its destination.
* :class:`~repro.core.bsn.BitSorterNetwork` — the per-stage bit sorter
  (Definition 4, Theorem 1).
* :class:`~repro.core.splitter.Splitter` and
  :class:`~repro.core.arbiter.Arbiter` — the splitter ``sp(p)`` and its
  flag-generating arbiter tree ``A(p)`` (Definitions 3 and 6, Theorem 3,
  Figs. 4-5).
* :class:`~repro.core.gbn.GeneralizedBaselineNetwork` — the structural
  scaffold (Definition 2, Fig. 1).

All components produce optional routing records
(:mod:`~repro.core.routing`) for tracing, hardware cross-validation and
fault injection.
"""

from .words import Word, words_from_permutation, addresses_of, payloads_of
from .switchbox import SimpleSwitchBox, apply_pair_controls, controls_to_permutation
from .arbiter import Arbiter, ArbiterNodeRecord, ArbiterTrace, arbiter_flags
from .splitter import Splitter, SplitterRecord, splitter_balance
from .gbn import GeneralizedBaselineNetwork, GBNStageSpec, gbn_route
from .bsn import BitSorterNetwork, BSNRecord
from .bnb import BNBNetwork, BNBRoutingRecord, NestedNetworkSpec
from .routing import RouteStep, PacketPath
from .traffic import (
    MultipassResult,
    MultipassRouter,
    PartialRoutingResult,
    complete_partial_permutation,
    route_partial,
)
from .pipeline import (
    PipelinedBNBFabric,
    PipelineBatch,
    PipelineStats,
    stuck_control_override,
)
from .plan import (
    DEAD_ADDRESS,
    CompiledPlan,
    FaultMask,
    build_fault_mask,
    compiled_plan,
)
from .pipeline_fast import route_frame_sources

__all__ = [
    "Word",
    "words_from_permutation",
    "addresses_of",
    "payloads_of",
    "SimpleSwitchBox",
    "apply_pair_controls",
    "controls_to_permutation",
    "Arbiter",
    "ArbiterNodeRecord",
    "ArbiterTrace",
    "arbiter_flags",
    "Splitter",
    "SplitterRecord",
    "splitter_balance",
    "GeneralizedBaselineNetwork",
    "GBNStageSpec",
    "gbn_route",
    "BitSorterNetwork",
    "BSNRecord",
    "BNBNetwork",
    "BNBRoutingRecord",
    "NestedNetworkSpec",
    "RouteStep",
    "PacketPath",
    "complete_partial_permutation",
    "route_partial",
    "PartialRoutingResult",
    "MultipassRouter",
    "MultipassResult",
    "PipelinedBNBFabric",
    "stuck_control_override",
    "PipelineBatch",
    "PipelineStats",
    "CompiledPlan",
    "compiled_plan",
    "DEAD_ADDRESS",
    "FaultMask",
    "build_fault_mask",
    "route_frame_sources",
]
