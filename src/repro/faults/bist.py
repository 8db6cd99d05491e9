"""Built-in self-test (BIST) probe schedules for the BNB network.

A stuck-at fault on a switch control is only *visible* when the probe
traffic (a) drives the healthy control to the opposite value and (b)
the resulting displacement survives to the outputs.  Random workloads
hit a given fault with probability about one half per pass; a BIST
schedule replaces that hope with a guarantee: a small, deterministic
set of probe permutations, derived from
:func:`~repro.faults.injector.enumerate_switch_coordinates`, that
together

* exercise **both control values of every 2 x 2 switch** (so in the
  frozen-replay model every activated single stuck-at fault displaces
  a pair of words and is caught by the output-side address check), and
* with ``ensure_detection=True`` (the default) additionally produce a
  **non-empty syndrome under the adaptive model** for every single
  stuck-at fault — the physical model in which downstream arbiters
  re-decide on live data and can mask early faults.

The schedule is built greedily from a deterministic candidate stream
(identity, reversal, then permutations from a fixed-seed generator),
so two builds for the same ``m`` are identical.  The probe count grows
like the coupon-collector logarithm of the switch count, not like the
network size — a handful of probes certifies all ``O(N log^2 N)``
switches, which is what makes periodic in-service probing affordable.

Each probe caches its healthy control table and the healthy output
arrangement, so the syndrome decoder
(:mod:`repro.faults.localization`) can trace observed misroutes back
through the recorded controls without re-routing.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.bnb import BNBNetwork
from ..core.words import Word
from ..exceptions import FaultError
from ..permutations.generators import random_permutation
from .adaptive import route_with_stuck_switch
from .detection import misrouted_outputs
from .injector import (
    ControlTable,
    SwitchCoordinate,
    enumerate_switch_coordinates,
    extract_controls,
    fault_mask_for,
)

__all__ = [
    "BISTProbe",
    "BISTSchedule",
    "STRICT_COVERAGE_MAX_M",
    "build_bist_schedule",
    "candidate_probe_stream",
    "shared_bist_schedule",
]

#: (coordinate, stuck value) — one hypothetical single stuck-at fault.
FaultHypothesis = Tuple[SwitchCoordinate, int]

#: Fixed seed for the candidate stream; part of the determinism contract.
_CANDIDATE_SEED = 0xB157

#: The largest ``m`` whose strict build closes coverage (N = 16); see
#: :func:`build_bist_schedule`.  Resilient serving runs the strict
#: schedule, so it is limited to the same sizes.
STRICT_COVERAGE_MAX_M = 4


@dataclasses.dataclass(frozen=True)
class BISTProbe:
    """One probe permutation plus everything its healthy pass decided."""

    index: int
    addresses: Tuple[int, ...]
    controls: ControlTable

    def words(self) -> List[Word]:
        """The probe's input words (payload = source line)."""
        return [
            Word(address=a, payload=("bist", self.index, j))
            for j, a in enumerate(self.addresses)
        ]

    def covered_values(self) -> Dict[SwitchCoordinate, int]:
        """The control value this probe drives each switch to."""
        covered: Dict[SwitchCoordinate, int] = {}
        for (i, l, j, box), controls in self.controls.items():
            for t, value in enumerate(controls):
                covered[SwitchCoordinate(i, l, j, box, t)] = value
        return covered


@dataclasses.dataclass
class BISTSchedule:
    """A deterministic probe schedule with full stuck-at coverage.

    ``inert`` lists the (coordinate, stuck value) pairs the candidate
    stream could never activate — empty under the default strict build,
    and populated only by ``require_full_coverage=False`` builds at
    ``m >= 5``, where boundary switches of the innermost stages have
    control values no legal permutation exercises (their stuck faults
    cannot displace traffic and need no probe).
    """

    m: int
    probes: List[BISTProbe]
    inert: Tuple[FaultHypothesis, ...] = ()

    @property
    def n(self) -> int:
        return 1 << self.m

    @property
    def probe_count(self) -> int:
        return len(self.probes)

    def coverage(self) -> Dict[FaultHypothesis, List[int]]:
        """Map every (coordinate, stuck value) to the probes that
        *activate* it (healthy control differs from the stuck value)."""
        activated: Dict[FaultHypothesis, List[int]] = {
            (coordinate, value): []
            for coordinate in enumerate_switch_coordinates(self.m)
            for value in (0, 1)
        }
        for probe in self.probes:
            for coordinate, healthy in probe.covered_values().items():
                activated[(coordinate, 1 - healthy)].append(probe.index)
        return activated

    def uncovered(self) -> List[FaultHypothesis]:
        """Hypotheses no probe activates (empty for a valid schedule)."""
        return [pair for pair, hits in self.coverage().items() if not hits]

    def run(
        self,
        route_fn: Callable[[List[Word]], Sequence[Word]],
        on_probe: Optional[Callable[["BISTProbe", "ProbeObservation"], None]] = None,
    ) -> List["ProbeObservation"]:
        """Push every probe through *route_fn* and collect observations.

        *route_fn* receives the probe's input words and returns the
        output words line by line — typically a closure over a live
        (possibly faulty) fabric.  When given, ``on_probe(probe,
        observation)`` fires after each probe completes — the telemetry
        layer counts probes per outcome through it without the schedule
        knowing anything about metrics.
        """
        from .localization import ProbeObservation

        observations: List[ProbeObservation] = []
        for probe in self.probes:
            outputs = route_fn(probe.words())
            if len(outputs) != self.n:
                raise FaultError(
                    f"probe {probe.index} returned {len(outputs)} outputs "
                    f"for an N={self.n} fabric"
                )
            observation = ProbeObservation(
                addresses=probe.addresses,
                arrived=tuple(word.address for word in outputs),
            )
            observations.append(observation)
            if on_probe is not None:
                on_probe(probe, observation)
        return observations

    def run_batch(
        self,
        route_frame_batch: Callable[[np.ndarray], np.ndarray],
        on_probe: Optional[Callable[["BISTProbe", "ProbeObservation"], None]] = None,
    ) -> List["ProbeObservation"]:
        """Route every probe in one batched kernel call.

        The array counterpart of :meth:`run`: *route_frame_batch* takes
        the ``(probes, n)`` stack of probe addresses and returns its
        sources (``sources[p, line]`` is the input line whose word
        reached output ``line``), typically
        ``lambda a: backend.route_frame_batch(a, mask=mask)`` over a
        possibly-faulty :class:`~repro.core.plan.FaultMask`.  The
        arrived rows are decoded in one vectorized pass
        (:func:`~repro.faults.localization.observations_from_arrays`);
        ``on_probe`` then fires once per probe, as in :meth:`run`.
        """
        from .localization import observations_from_arrays

        sent = np.array(
            [probe.addresses for probe in self.probes], dtype=np.int64
        )
        sources = np.asarray(route_frame_batch(sent), dtype=np.int64)
        if sources.shape != sent.shape:
            raise FaultError(
                f"a batched BIST pass returned shape {sources.shape} for "
                f"{sent.shape} probes"
            )
        arrived = np.take_along_axis(sent, sources, axis=1)
        observations = observations_from_arrays(sent, arrived)
        if on_probe is not None:
            for probe, observation in zip(self.probes, observations):
                on_probe(probe, observation)
        return observations

    def detects(
        self, coordinate: SwitchCoordinate, stuck_value: int
    ) -> Optional[int]:
        """Index of the first probe whose *adaptive* syndrome is
        non-empty under the given fault, or ``None`` if the schedule
        cannot expose it."""
        mask = fault_mask_for(self.m, [(coordinate, stuck_value)])
        for probe in self.probes:
            outputs = route_with_stuck_switch(self.m, probe.words(), mask)
            if misrouted_outputs(outputs):
                return probe.index
        return None


def candidate_probe_stream(m: int):
    """Deterministic, endless stream of candidate probe permutations.

    Structured permutations first (identity and reversal pin the two
    trivial control patterns), then permutations drawn from a
    fixed-seed generator.  The stream is a pure function of ``m``.
    """
    n = 1 << m
    yield list(range(n))
    yield list(reversed(range(n)))
    rng = random.Random(_CANDIDATE_SEED + m)
    while True:
        yield random_permutation(n, rng=rng).to_list()


def _probe_for(network: BNBNetwork, index: int, addresses: Sequence[int]) -> BISTProbe:
    words = [Word(address=a, payload=j) for j, a in enumerate(addresses)]
    _outputs, record = network.route(words, record=True)
    assert record is not None
    return BISTProbe(
        index=index,
        addresses=tuple(addresses),
        controls=extract_controls(record),
    )


def build_bist_schedule(
    m: int,
    ensure_detection: bool = True,
    max_candidates: int = 256,
    require_full_coverage: bool = True,
) -> BISTSchedule:
    """Build the deterministic BIST schedule for a ``2**m``-input fabric.

    Phase 1 greedily selects probes until every switch has been driven
    to both control values (full activation coverage).  Phase 2 (when
    *ensure_detection* is set) simulates every remaining single
    stuck-at fault under the adaptive model and appends probes until
    each one produces a visible syndrome; this is the guarantee the
    online service relies on, at a build cost of
    ``O(faults x probes x route)`` — fine for the sizes the service
    targets, and skippable for structural studies at large ``m``.

    Raises :class:`~repro.exceptions.FaultError` if *max_candidates*
    probes cannot close the coverage.  Through ``m = 4``
    (:data:`STRICT_COVERAGE_MAX_M`) that never happens; from ``m = 5``
    on it always does, because the nested
    networks grow control-invariant boundary switches (the first box of
    a final inner stage always steers 0, the last always 1) whose
    opposite stuck value no legal permutation can activate.  Pass
    ``require_full_coverage=False`` to accept that: the leftover pairs
    are recorded as :attr:`BISTSchedule.inert` instead of raising, and
    phase 2 skips them (an inert fault cannot displace traffic, so
    there is no syndrome to guarantee).  Large-``m`` builds normally
    pair this with ``ensure_detection=False``: past ``m = 4`` some
    activatable faults are also architecturally masked on every
    candidate probe, so the phase-2 guarantee stops being closable too.
    """
    if m < 1:
        raise FaultError(f"a BIST schedule needs m >= 1, got {m}")
    network = BNBNetwork(m)
    stream = candidate_probe_stream(m)

    # Phase 1: cover both control values of every switch.
    uncovered: Set[FaultHypothesis] = {
        (coordinate, value)
        for coordinate in enumerate_switch_coordinates(m)
        for value in (0, 1)
    }
    probes: List[BISTProbe] = []
    for candidate_index in range(max_candidates):
        if not uncovered:
            break
        candidate = _probe_for(network, len(probes), next(stream))
        gained = {
            (coordinate, 1 - healthy)
            for coordinate, healthy in candidate.covered_values().items()
        } & uncovered
        if gained:
            probes.append(candidate)
            uncovered -= gained
    if uncovered and require_full_coverage:
        raise FaultError(
            f"BIST coverage incomplete after {max_candidates} candidates: "
            f"{len(uncovered)} (coordinate, value) pairs unexercised"
        )
    inert = tuple(sorted(uncovered))

    schedule = BISTSchedule(m=m, probes=probes, inert=inert)
    if not ensure_detection:
        return schedule

    # Phase 2: every activatable fault must yield a visible syndrome.
    undetected: List[FaultHypothesis] = [
        pair
        for pair in sorted(
            (c, v) for c in enumerate_switch_coordinates(m) for v in (0, 1)
        )
        if pair not in uncovered and schedule.detects(*pair) is None
    ]
    masks = {pair: fault_mask_for(m, [pair]) for pair in undetected}
    attempts = 0
    while undetected:
        if attempts >= max_candidates:
            raise FaultError(
                f"BIST detection guarantee incomplete after "
                f"{max_candidates} extra candidates: {len(undetected)} "
                f"fault(s) never produce a visible syndrome"
            )
        attempts += 1
        candidate = _probe_for(network, len(probes), next(stream))
        exposed = [
            pair
            for pair in undetected
            if misrouted_outputs(
                route_with_stuck_switch(m, candidate.words(), masks[pair])
            )
        ]
        if exposed:
            probes.append(candidate)
            undetected = [pair for pair in undetected if pair not in exposed]
    return BISTSchedule(m=m, probes=probes, inert=inert)


@functools.lru_cache(maxsize=None)
def shared_bist_schedule(m: int) -> BISTSchedule:
    """The default-parameter schedule, built once per process per ``m``.

    Phase 2 of the build simulates every single stuck-at fault, which
    is the expensive part; a multi-plane gateway would otherwise pay it
    once per resilient plane.  The schedule is treated as immutable by
    every consumer (the service layer only reads it), mirroring the
    :func:`~repro.core.plan.compiled_plan` cache discipline.  Above
    :data:`STRICT_COVERAGE_MAX_M` the build cannot succeed, so it is
    refused before the candidate search.
    """
    if m > STRICT_COVERAGE_MAX_M:
        raise FaultError(
            f"a full-coverage BIST schedule exists only up to "
            f"N = {1 << STRICT_COVERAGE_MAX_M}, got N = {1 << m}"
        )
    return build_bist_schedule(m)
