"""Fault injection and detection experiments.

The paper assumes fault-free switches; a reproduction meant for reuse
should show what the network does when that assumption breaks.  This
package injects stuck-at faults into recorded switch settings, replays
the perturbed settings through the BNB structure and measures the
misrouting blast radius — how many packets a single stuck switch
displaces, and how reliably an output-side address check detects it.
"""

from .injector import (
    SwitchCoordinate,
    enumerate_switch_coordinates,
    extract_controls,
    fault_mask_for,
    inject_stuck_control,
    random_fault_set,
    replay_controls,
)
from .detection import (
    FaultTrial,
    FaultCoverageReport,
    misrouted_outputs,
    fault_coverage_experiment,
)
from .adaptive import (
    route_with_stuck_switch,
    RecoveryOutcome,
    detect_and_reroute,
    recovery_experiment,
)
from .bist import (
    BISTProbe,
    BISTSchedule,
    build_bist_schedule,
    candidate_probe_stream,
    shared_bist_schedule,
)
from .localization import (
    LocalizationResult,
    ProbeObservation,
    candidate_switches,
    decode_syndromes,
    localize,
    observations_from_arrays,
    trace_switch_paths,
)

__all__ = [
    "BISTProbe",
    "BISTSchedule",
    "build_bist_schedule",
    "candidate_probe_stream",
    "shared_bist_schedule",
    "LocalizationResult",
    "ProbeObservation",
    "candidate_switches",
    "decode_syndromes",
    "localize",
    "observations_from_arrays",
    "trace_switch_paths",
    "SwitchCoordinate",
    "enumerate_switch_coordinates",
    "extract_controls",
    "fault_mask_for",
    "inject_stuck_control",
    "random_fault_set",
    "replay_controls",
    "FaultTrial",
    "FaultCoverageReport",
    "misrouted_outputs",
    "fault_coverage_experiment",
    "route_with_stuck_switch",
    "RecoveryOutcome",
    "detect_and_reroute",
    "recovery_experiment",
]
