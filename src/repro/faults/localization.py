"""Syndrome-based fault localization for the BNB network.

Detection says *that* something is wrong (words arrived at lines other
than their addresses); localization says *which switch*.  The decoder
works from probe observations — ``(sent permutation, arrived
addresses)`` pairs, typically produced by running a
:class:`~repro.faults.bist.BISTSchedule` through the live fabric — and
narrows the candidate set in two steps:

1. **Narrowing** (cheap): upstream of a single stuck switch the fabric
   routes exactly as the healthy :class:`~repro.core.bnb.BNBRoutingRecord`
   says, so the control *computed* at the fault equals the recorded
   one — a dirty probe proves the stuck value disagreed with it
   (activation).  Hypotheses inert on a dirty probe are discarded.
   Under the frozen-replay model the misrouted words also pin the
   switch onto their healthy paths (the displaced pair traverses it);
   :func:`trace_switch_paths` replays the control table while tracing
   which switches every word crosses, cutting the hypothesis space
   from all ``O(N log^2 N)`` switches to the ``O(log^2 N)`` on a few
   paths.  (Adaptively a cascade can displace words whose healthy
   paths avoid the fault, so path narrowing is frozen-model only.)

2. **Forward filtering** (exact): simulate each surviving hypothesis
   ``(coordinate, stuck value)`` against *every* observation and keep
   only those reproducing the arrived vector exactly — clean probes
   prune as hard as dirty ones, since a hypothesis the probe activates
   must have shown up.  Simulation uses the adaptive model by default
   (downstream arbiters re-decide on live data — the physical fabric),
   or the frozen-replay model for table-replay experiments.

The survivors of step 2 are, by construction, *observationally
equivalent* on the evidence in hand: no observation distinguishes
them.  Against the full default BIST schedule the class is a
singleton for **every** single stuck-at fault at m = 2, 3 and 4
(verified exhaustively in the tests); ambiguity appears when the
evidence is thinner — localizing from a single dirty probe at m = 3
leaves a 2-element class for 14 of the 48 faults.
:meth:`LocalizationResult.require_unique` converts a non-singleton
class into :class:`~repro.exceptions.LocalizationAmbiguousError` for
callers that need one coordinate, and the quarantine logic of
:mod:`repro.service` simply quarantines the whole class — equivalent
faults need identical treatment anyway.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.bnb import BNBNetwork
from ..core.plan import FaultMask
from ..core.walk import walk
from ..core.words import Word
from ..exceptions import FaultError, LocalizationAmbiguousError
from .adaptive import route_with_stuck_switch
from .injector import (
    ControlTable,
    SwitchCoordinate,
    enumerate_switch_coordinates,
    extract_controls,
    fault_mask_for,
    inject_stuck_control,
    replay_controls,
    table_controls,
)

__all__ = [
    "ProbeObservation",
    "LocalizationResult",
    "decode_syndromes",
    "observations_from_arrays",
    "trace_switch_paths",
    "candidate_switches",
    "localize",
]

FaultHypothesis = Tuple[SwitchCoordinate, int]


@dataclasses.dataclass(frozen=True)
class ProbeObservation:
    """What one probe permutation did on the live fabric."""

    addresses: Tuple[int, ...]
    arrived: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.addresses) != len(self.arrived):
            raise FaultError(
                f"observation length mismatch: sent {len(self.addresses)} "
                f"words, observed {len(self.arrived)} outputs"
            )

    @property
    def syndrome(self) -> Tuple[int, ...]:
        """Output lines whose arrived address does not match the line."""
        return tuple(
            line
            for line, address in enumerate(self.arrived)
            if address != line
        )

    @property
    def clean(self) -> bool:
        return not self.syndrome

    def displaced_addresses(self) -> Tuple[int, ...]:
        """Destination addresses of the words that went astray."""
        return tuple(
            address
            for line, address in enumerate(self.arrived)
            if address != line
        )


def decode_syndromes(arrived: np.ndarray) -> List[Tuple[int, ...]]:
    """Per-probe syndromes from a ``(probes, n)`` arrived-address array.

    One vectorized comparison against the identity flags every
    misrouted output line of every probe at once — the batched
    counterpart of :attr:`ProbeObservation.syndrome`, which the tests
    pin it against.  Dead-link sentinels
    (:data:`~repro.core.plan.DEAD_ADDRESS`) never equal their line, so
    they always appear in the syndrome.
    """
    arrived = np.asarray(arrived, dtype=np.int64)
    if arrived.ndim != 2:
        raise FaultError(
            f"expected a (probes, n) arrived array, got shape {arrived.shape}"
        )
    mismatch = arrived != np.arange(arrived.shape[1], dtype=np.int64)
    syndromes: List[List[int]] = [[] for _ in range(arrived.shape[0])]
    rows, lines = np.nonzero(mismatch)
    for row, line in zip(rows.tolist(), lines.tolist()):
        syndromes[row].append(line)
    return [tuple(lines) for lines in syndromes]


def observations_from_arrays(
    sent: np.ndarray, arrived: np.ndarray
) -> List[ProbeObservation]:
    """Build probe observations from batched ``(probes, n)`` arrays.

    The decode path for batched BIST passes
    (:meth:`~repro.faults.bist.BISTSchedule.run_batch`): the whole
    probe batch is validated and syndrome-flagged in vectorized passes,
    and only then materialized as :class:`ProbeObservation` records for
    the (per-observation) localization decoder.
    """
    sent = np.asarray(sent, dtype=np.int64)
    arrived = np.asarray(arrived, dtype=np.int64)
    if sent.ndim != 2 or sent.shape != arrived.shape:
        raise FaultError(
            f"sent {sent.shape} and arrived {arrived.shape} arrays must be "
            f"matching (probes, n) matrices"
        )
    return [
        ProbeObservation(
            addresses=tuple(sent_row), arrived=tuple(arrived_row)
        )
        for sent_row, arrived_row in zip(sent.tolist(), arrived.tolist())
    ]


def trace_switch_paths(
    m: int, table: ControlTable
) -> List[Set[SwitchCoordinate]]:
    """Switches traversed by each input line under *table*.

    Walks input line numbers through the control table (as
    :func:`~repro.faults.injector.replay_controls` walks words) and
    records, for every input line, the set of switch coordinates whose
    2 x 2 box the word passes through.
    """
    paths: List[Set[SwitchCoordinate]] = [set() for _ in range(1 << m)]
    recorded = table_controls(table)

    def controls_of(i: int, l: int, j: int, box: int, lines: List[int]):
        controls = recorded(i, l, j, box, lines)
        for t in range(len(controls)):
            coordinate = SwitchCoordinate(i, l, j, box, t)
            paths[lines[2 * t]].add(coordinate)
            paths[lines[2 * t + 1]].add(coordinate)
        return controls

    walk(m, range(1 << m), controls_of)
    return paths


def candidate_switches(
    m: int, observation: ProbeObservation, table: Optional[ControlTable] = None
) -> Set[SwitchCoordinate]:
    """Path-narrowed candidate switches for one dirty observation.

    The union of the healthy-path switch sets of all misrouted words.
    For a clean observation every switch remains a candidate (a clean
    probe only constrains through forward filtering).
    """
    if observation.clean:
        return set(enumerate_switch_coordinates(m))
    if table is None:
        table = _healthy_table(m, observation.addresses)
    paths = trace_switch_paths(m, table)
    displaced = set(observation.displaced_addresses())
    candidates: Set[SwitchCoordinate] = set()
    for line, address in enumerate(observation.addresses):
        if address in displaced:
            candidates |= paths[line]
    return candidates


@dataclasses.dataclass
class LocalizationResult:
    """Outcome of a localization pass.

    ``candidates`` are the observationally-equivalent surviving
    hypotheses, sorted; an empty list means *no* single stuck-at fault
    explains the observations (healthy fabric, or a multi-fault
    condition outside the decoder's model).
    """

    m: int
    candidates: List[FaultHypothesis]
    observations: int
    narrowed_from: int

    @property
    def is_unique(self) -> bool:
        return len(self.candidates) == 1

    @property
    def coordinates(self) -> List[SwitchCoordinate]:
        """The candidate coordinates (deduplicated, sorted)."""
        return sorted({coordinate for coordinate, _value in self.candidates})

    def require_unique(self) -> FaultHypothesis:
        """The single surviving hypothesis, or raise."""
        if not self.is_unique:
            raise LocalizationAmbiguousError(self.candidates or None)
        return self.candidates[0]

    def describe(self) -> str:
        if not self.candidates:
            return "no single stuck-at fault is consistent with the syndromes"
        body = ", ".join(
            f"({c.main_stage},{c.nested},{c.nested_stage},{c.box},{c.switch})"
            f"/stuck-{v}"
            for c, v in self.candidates
        )
        kind = "unique" if self.is_unique else "ambiguity class"
        return f"{kind}: {body}"


def _healthy_table(m: int, addresses: Sequence[int]) -> ControlTable:
    words = [Word(address=a, payload=j) for j, a in enumerate(addresses)]
    _outputs, record = BNBNetwork(m).route(words, record=True)
    assert record is not None
    return extract_controls(record)


def _simulate(
    m: int,
    addresses: Sequence[int],
    hypothesis: FaultHypothesis,
    mask: Optional[FaultMask],
    table: Optional[ControlTable],
) -> Tuple[int, ...]:
    """What *addresses* arrive as under *hypothesis*: adaptively under
    its *mask*, or (``mask=None``) frozen on the healthy *table*."""
    words = [Word(address=a, payload=j) for j, a in enumerate(addresses)]
    if mask is not None:
        outputs = route_with_stuck_switch(m, words, mask)
    else:
        outputs = replay_controls(
            m, words, inject_stuck_control(table, *hypothesis)
        )
    return tuple(word.address for word in outputs)


def localize(
    m: int,
    observations: Sequence[ProbeObservation],
    model: str = "adaptive",
    tables: Optional[Sequence[ControlTable]] = None,
) -> LocalizationResult:
    """Decode probe syndromes to the responsible switch.

    Parameters
    ----------
    m:
        Address width of the observed fabric.
    observations:
        Probe results, e.g. from :meth:`BISTSchedule.run
        <repro.faults.bist.BISTSchedule.run>`.  Clean observations are
        evidence too and must be included.
    model:
        ``"adaptive"`` (default) matches hypotheses with live
        re-deciding arbiters — the physical fabric;  ``"frozen"``
        matches against control-table replay.
    tables:
        Optional pre-computed healthy control tables, parallel to
        *observations* (a BIST schedule caches them); computed on
        demand otherwise.
    """
    if model not in ("adaptive", "frozen"):
        raise FaultError(f"unknown localization model {model!r}")
    if not observations:
        raise FaultError("localization needs at least one observation")
    if tables is not None and len(tables) != len(observations):
        raise FaultError(
            f"{len(tables)} control tables do not match "
            f"{len(observations)} observations"
        )

    table_of: Dict[int, ControlTable] = {}

    def healthy(index: int) -> ControlTable:
        if tables is not None:
            return tables[index]
        if index not in table_of:
            table_of[index] = _healthy_table(
                m, observations[index].addresses
            )
        return table_of[index]

    # Step 1: narrow on the dirty observations.
    #
    # Upstream of a single stuck switch the fabric behaves exactly as
    # recorded, so the control *computed* at the faulty switch equals
    # the healthy table's entry.  A dirty probe therefore proves the
    # fault was activated on it: healthy control != stuck value.  This
    # holds in both models.  Under the frozen model the misrouted words
    # additionally pin the switch onto their healthy paths (the
    # displaced pair traverses it), so the path trace narrows further;
    # adaptively a cascade can displace words whose healthy paths avoid
    # the fault, so paths are not used there.
    dirty = [i for i, o in enumerate(observations) if not o.clean]
    if not dirty:  # every probe clean: nothing to localize
        return LocalizationResult(
            m=m,
            candidates=[],
            observations=len(observations),
            narrowed_from=2 * len(enumerate_switch_coordinates(m)),
        )
    coordinate_pool: Set[SwitchCoordinate] = set(
        enumerate_switch_coordinates(m)
    )
    if model == "frozen":
        for index in dirty:
            coordinate_pool &= candidate_switches(
                m, observations[index], healthy(index)
            )
    hypotheses: List[FaultHypothesis] = []
    for coordinate in sorted(coordinate_pool):
        key = (
            coordinate.main_stage,
            coordinate.nested,
            coordinate.nested_stage,
            coordinate.box,
        )
        for value in (0, 1):
            if all(
                healthy(index)[key][coordinate.switch] != value
                for index in dirty
            ):
                hypotheses.append((coordinate, value))
    narrowed_from = len(hypotheses)

    # Step 2: forward-filter against every observation.
    survivors: List[FaultHypothesis] = []
    for hypothesis in hypotheses:
        mask = fault_mask_for(m, [hypothesis]) if model == "adaptive" else None
        consistent = True
        for index, observation in enumerate(observations):
            arrived = _simulate(
                m,
                observation.addresses,
                hypothesis,
                mask,
                healthy(index) if model == "frozen" else None,
            )
            if arrived != observation.arrived:
                consistent = False
                break
        if consistent:
            survivors.append(hypothesis)
    return LocalizationResult(
        m=m,
        candidates=survivors,
        observations=len(observations),
        narrowed_from=narrowed_from,
    )
