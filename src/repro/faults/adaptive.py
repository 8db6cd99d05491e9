"""The adaptive fault model: arbiters react to misrouted data.

:mod:`repro.faults.injector` freezes every control at its fault-free
value and replays — the right model for asking "what did this one
stuck switch change, all else equal".  Physically, though, a stuck
switch feeds *wrong data* to everything downstream, and the downstream
arbiters compute fresh flags from what actually arrives.  This module
runs that adaptive model (:class:`~repro.core.walk.AdaptiveModel`)
under a :class:`~repro.core.plan.FaultMask`, the fault description the
compiled kernel takes too:

* the routing loop re-decides every splitter from live data;
* only the mask's stuck switches ignore their controls (stuck at 0
  or 1), and its dead links clobber the words crossing them;
* balance checking is off — a displaced bit can make a downstream
  block unbalanced, which is part of the physics.

Findings the tests pin down: the adaptive blast radius is still small
and even (words displace in pairs), misrouting can *cascade* beyond the
frozen model's single pair, and — because every word keeps its address
— a detect-and-reroute loop (re-inject the misdelivered words as a
follow-up partial permutation) recovers full delivery in a few passes
whenever the stuck switch is not exercised by the repair traffic.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Sequence

from ..core.plan import FaultMask
from ..core.traffic import complete_partial_permutation
from ..core.walk import AdaptiveModel
from ..core.words import Word
from .detection import misrouted_outputs
from .injector import fault_mask_for

__all__ = [
    "route_with_stuck_switch",
    "RecoveryOutcome",
    "detect_and_reroute",
    "recovery_experiment",
]


def route_with_stuck_switch(
    m: int, words: Sequence[Word], mask: FaultMask
) -> List[Word]:
    """Route one frame through a BNB network under *mask*, adaptively.

    Every splitter decides from the data it actually receives; only the
    mask's stuck switches ignore their (correctly computed) controls.
    """
    if mask.m != m:
        raise ValueError(f"fault mask is for m={mask.m}, network is m={m}")
    n = 1 << m
    if len(words) != n:
        raise ValueError(f"expected {n} words, got {len(words)}")
    return AdaptiveModel(mask).route(words)


@dataclasses.dataclass
class RecoveryOutcome:
    """Result of the detect-and-reroute loop."""

    recovered: bool
    passes: int
    misrouted_per_pass: List[int]
    outputs: List[Optional[Word]]


def detect_and_reroute(
    m: int,
    addresses: Sequence[int],
    mask: FaultMask,
    max_passes: int = 8,
) -> RecoveryOutcome:
    """Deliver a permutation through a fabric faulty under *mask* by
    repair passes.

    Pass 1 routes everything; misdelivered words (detected by the
    output-side address check) are withdrawn and re-injected as a
    partial permutation in the next pass, their input positions chosen
    by the completion algorithm.  Because each pass presents the stuck
    switch with different traffic, a pass in which the fault is inert
    (or harmless) completes the delivery.
    """
    n = 1 << m
    delivered: List[Optional[Word]] = [None] * n
    pending: List[Word] = [
        Word(address=addresses[j], payload=j) for j in range(n)
    ]
    misrouted_history: List[int] = []
    for pass_index in range(max_passes):
        request: List[Optional[int]] = [None] * n
        queue = list(pending)
        # Pack pending words onto the first free input lines.
        for line, word in enumerate(queue):
            request[line] = word.address
        full, real = complete_partial_permutation(request)
        pass_words = [
            queue[line] if real[line] else Word(address=full[line])
            for line in range(n)
        ]
        outputs = route_with_stuck_switch(m, pass_words, mask)
        bad_lines = set(misrouted_outputs(outputs))
        misrouted_history.append(len(bad_lines))
        next_pending: List[Word] = []
        for line, word in enumerate(outputs):
            if word.payload is None:
                continue  # filler
            if line == word.address:
                delivered[line] = word
            else:
                next_pending.append(word)
        pending = next_pending
        if not pending:
            return RecoveryOutcome(
                recovered=True,
                passes=pass_index + 1,
                misrouted_per_pass=misrouted_history,
                outputs=delivered,
            )
    return RecoveryOutcome(
        recovered=False,
        passes=max_passes,
        misrouted_per_pass=misrouted_history,
        outputs=delivered,
    )


def recovery_experiment(
    m: int,
    trials: int = 50,
    seed: int = 0,
    max_passes: int = 8,
    rng: Optional[random.Random] = None,
) -> Dict[str, float]:
    """Recovery statistics over random faults and random permutations.

    Determinism contract: permutations, fault sites and stuck values
    all come from one ``random.Random`` stream.  Pass *rng* to thread a
    shared seeded instance through several experiments (see
    :func:`~repro.faults.detection.fault_coverage_experiment`); else a
    private ``random.Random(seed)`` makes equal ``(m, trials, seed,
    max_passes)`` reproduce identical statistics.
    """
    from ..permutations.generators import random_permutation
    from .injector import enumerate_switch_coordinates

    if rng is None:
        rng = random.Random(seed)
    coordinates = enumerate_switch_coordinates(m)
    recovered = 0
    total_passes = 0
    worst = 0
    for _ in range(trials):
        pi = random_permutation(1 << m, rng=rng)
        coordinate = rng.choice(coordinates)
        stuck_value = rng.randrange(2)
        outcome = detect_and_reroute(
            m,
            pi.to_list(),
            fault_mask_for(m, [(coordinate, stuck_value)]),
            max_passes=max_passes,
        )
        if outcome.recovered:
            recovered += 1
            total_passes += outcome.passes
            worst = max(worst, outcome.passes)
    return {
        "recovery_rate": recovered / trials,
        "mean_passes": (total_passes / recovered) if recovered else float("inf"),
        "worst_passes": float(worst),
    }
