"""Stuck-at fault injection on BNB switch settings.

The model: a routing pass is performed fault-free to obtain every
switch's control bit (the :class:`~repro.core.bnb.BNBRoutingRecord`);
a fault forces one control to a constant; the perturbed controls are
then *replayed* through the network structure.  Replaying rather than
re-deciding matches the physical failure being modelled — a stuck
switch ignores its (correctly computed) control signal — and it also
covers the follower slices, which by construction share the faulted
switch's setting.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.bnb import BNBRoutingRecord
from ..core.plan import FaultMask, build_fault_mask
from ..core.walk import BoxControls, walk
from ..core.words import Word
from ..exceptions import FaultError

__all__ = [
    "SwitchCoordinate",
    "enumerate_switch_coordinates",
    "extract_controls",
    "fault_mask_for",
    "inject_stuck_control",
    "random_fault_set",
    "replay_controls",
    "table_controls",
]

ControlTable = Dict[Tuple[int, int, int, int], List[int]]


@dataclasses.dataclass(frozen=True, order=True)
class SwitchCoordinate:
    """Address of one 2 x 2 switch in the BNB control structure.

    ``main_stage`` selects the main-network stage, ``nested`` the
    NB(main_stage, nested) network, ``nested_stage`` and ``box`` the
    splitter within it, ``switch`` the 2 x 2 switch within the
    splitter.
    """

    main_stage: int
    nested: int
    nested_stage: int
    box: int
    switch: int


def enumerate_switch_coordinates(m: int) -> List[SwitchCoordinate]:
    """All switch coordinates of a ``2**m``-input BNB network, sorted.

    The switches of every splitter box the wiring walk visits.  The
    count equals the per-slice switch total ``sum_i 2^i * (P/2) log P``
    (the paper's Eq. 3 summed over the main network) — asserted in
    tests against ``BNBNetwork.switch_count`` divided by the slice
    multiplicity.
    """
    coordinates: List[SwitchCoordinate] = []

    def controls_of(i: int, l: int, j: int, box: int, lines) -> List[int]:
        switches = len(lines) // 2
        coordinates.extend(
            SwitchCoordinate(i, l, j, box, t) for t in range(switches)
        )
        return [0] * switches

    walk(m, range(1 << m), controls_of)
    return sorted(coordinates)


#: One stuck-at fault as the faults layer names it.
StuckFault = Tuple[SwitchCoordinate, int]


def fault_mask_for(
    m: int,
    faults: Iterable[StuckFault],
    dead_links: Iterable[Tuple[int, int]] = (),
) -> FaultMask:
    """Compile a set of stuck-at faults into a vector-engine fault mask.

    The bridge between this layer's :class:`SwitchCoordinate` naming
    and the core layer's plain-tuple :func:`~repro.core.plan.build_fault_mask`
    (core stays import-free of the faults layer; this direction is fine).
    """
    return build_fault_mask(
        m,
        stuck=[
            (
                (
                    coordinate.main_stage,
                    coordinate.nested,
                    coordinate.nested_stage,
                    coordinate.box,
                    coordinate.switch,
                ),
                value,
            )
            for coordinate, value in faults
        ],
        dead_links=dead_links,
    )


def random_fault_set(
    m: int,
    count: int,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> List[StuckFault]:
    """Draw *count* distinct stuck-at faults, reproducibly.

    Follows the experiment rng convention: all randomness comes from
    one stream — pass *rng* to thread a shared stream across
    experiments, or rely on *seed* for standalone reproducibility.
    Distinct means distinct switch coordinates; the stuck value is an
    independent coin flip per fault.
    """
    if rng is None:
        rng = random.Random(seed)
    coordinates = enumerate_switch_coordinates(m)
    if not 0 <= count <= len(coordinates):
        raise FaultError(
            f"cannot draw {count} distinct faults from "
            f"{len(coordinates)} switches at m={m}"
        )
    chosen = rng.sample(coordinates, count)
    return [(coordinate, rng.randrange(2)) for coordinate in chosen]


def extract_controls(record: BNBRoutingRecord) -> ControlTable:
    """Flatten a routing record into a control lookup table."""
    table: ControlTable = {}
    for (main_stage, nested), bsn_record in record.nested_records.items():
        for (nested_stage, box), splitter_record in bsn_record.splitters.items():
            table[(main_stage, nested, nested_stage, box)] = list(
                splitter_record.controls
            )
    return table


def inject_stuck_control(
    table: ControlTable, coordinate: SwitchCoordinate, value: int
) -> ControlTable:
    """Return a copy of *table* with one switch stuck at *value*."""
    if value not in (0, 1):
        raise FaultError(f"stuck-at value must be 0 or 1, got {value!r}")
    key = (
        coordinate.main_stage,
        coordinate.nested,
        coordinate.nested_stage,
        coordinate.box,
    )
    if key not in table:
        raise FaultError(f"no splitter at {key} in the control table")
    controls = table[key]
    if not 0 <= coordinate.switch < len(controls):
        raise FaultError(
            f"switch {coordinate.switch} out of range for splitter {key} "
            f"({len(controls)} switches)"
        )
    perturbed = {k: list(v) for k, v in table.items()}
    perturbed[key][coordinate.switch] = value
    return perturbed


def table_controls(table: ControlTable) -> BoxControls:
    """The walk's control source that reads a recorded *table*."""

    def controls_of(i: int, l: int, j: int, box: int, _items) -> List[int]:
        controls = table.get((i, l, j, box))
        if controls is None:
            raise FaultError(
                f"control table missing splitter {(i, l, j, box)}"
            )
        return controls

    return controls_of


def replay_controls(
    m: int, words: Sequence[Word], table: ControlTable
) -> List[Word]:
    """Push *words* through the BNB structure under explicit controls.

    No splitter decisions are made; the table is the single source of
    switch settings.  Replaying an unperturbed table must reproduce the
    fault-free output exactly (a tested invariant).
    """
    n = 1 << m
    if len(words) != n:
        raise ValueError(f"expected {n} words, got {len(words)}")
    return walk(m, words, table_controls(table))
