"""Markdown experiment reports.

:func:`experiments_report` runs the full paper-vs-measured comparison
and renders it as markdown.  EXPERIMENTS.md in the repository root is a
curated snapshot of this output; regenerating it is one function call:

>>> from repro.viz import experiments_report
>>> print(experiments_report(max_m=6))            # doctest: +SKIP

:func:`fault_tolerance_report` does the same for the fault-tolerance
subsystem: it sweeps every single stuck-at fault, reports BIST
detection and localization outcomes, and demos the resilient service
(``python -m repro faults <n> --report`` prints it).
"""

from __future__ import annotations

from typing import List

from ..analysis import complexity as _cx_module  # noqa: F401  (re-exported style)
from ..analysis.complexity import (
    batcher_delay,
    batcher_comparators,
    bnb_delay,
    bnb_function_nodes,
    bnb_switch_slices,
    delay_leading_ratio,
    hardware_leading_ratio,
)
from ..analysis.delay import batcher_measured_delay, bnb_measured_delay
from ..analysis.tables import render_table1, render_table2
from ..analysis.verification import verify_router
from ..baselines.batcher import BatcherNetwork
from ..core.bnb import BNBNetwork

__all__ = ["experiments_report", "fault_tolerance_report"]


def fault_tolerance_report(m: int = 3, seed: int = 0) -> str:
    """Markdown report on the BIST/localization/failover subsystem.

    Exhaustive over all single stuck-at faults of the ``2**m``-input
    network (keep ``m`` small: the sweep simulates every fault against
    every probe).
    """
    from ..core.pipeline import PipelinedBNBFabric
    from ..faults import (
        build_bist_schedule,
        enumerate_switch_coordinates,
        fault_mask_for,
        localize,
    )
    from ..permutations.generators import random_permutation
    from ..service import ResilientFabric

    n = 1 << m
    schedule = build_bist_schedule(m)
    coordinates = enumerate_switch_coordinates(m)
    sections: List[str] = [
        "# Fault tolerance: BIST -> localize -> quarantine -> failover\n"
    ]
    sections.append(
        f"BIST schedule for N={n}: **{schedule.probe_count} probes** "
        f"exercise both control values of all {len(coordinates)} "
        f"switches ({2 * len(coordinates)} stuck-at faults)."
    )

    # Exhaustive detection + localization sweep.
    detect_probe_histogram: dict = {}
    unique = 0
    hit = 0
    for coordinate in coordinates:
        for value in (0, 1):
            pipeline = PipelinedBNBFabric(
                m, mask=fault_mask_for(m, [(coordinate, value)])
            )
            observations = schedule.run(
                lambda words: pipeline.route_batch(words)
            )
            first_dirty = next(
                (
                    index
                    for index, observation in enumerate(observations)
                    if not observation.clean
                ),
                None,
            )
            detect_probe_histogram[first_dirty] = (
                detect_probe_histogram.get(first_dirty, 0) + 1
            )
            result = localize(
                m,
                observations,
                tables=[probe.controls for probe in schedule.probes],
            )
            unique += result.is_unique
            hit += (coordinate, value) in result.candidates
    total = 2 * len(coordinates)
    sections.append("\n## Exhaustive single stuck-at sweep\n")
    sections.append("| metric | value |")
    sections.append("|---|---|")
    sections.append(f"| faults swept | {total} |")
    sections.append(
        f"| detected by BIST | {total - detect_probe_histogram.get(None, 0)}"
        f"/{total} |"
    )
    sections.append(f"| localized uniquely | {unique}/{total} |")
    sections.append(f"| true fault in candidate set | {hit}/{total} |")
    sections.append(
        "| first-dirty-probe histogram | "
        + ", ".join(
            f"probe {index}: {count}"
            for index, count in sorted(
                item for item in detect_probe_histogram.items()
                if item[0] is not None
            )
        )
        + " |"
    )

    # Service demo: detect on live traffic, fail over, keep serving.
    demo_coordinate = coordinates[len(coordinates) // 2]
    fabric = ResilientFabric(
        m, mask=fault_mask_for(m, [(demo_coordinate, 1)]), schedule=schedule
    )
    for index in range(4):
        fabric.submit(
            random_permutation(n, rng=seed + index).to_list(),
            tag=f"demo-{index}",
        )
        if index == 0 and not fabric.registry.is_quarantined:
            fabric.check(tag="scheduled-bist")
    sections.append(
        f"\n## Service demo (stuck-at-1 at "
        f"({demo_coordinate.main_stage},{demo_coordinate.nested},"
        f"{demo_coordinate.nested_stage},{demo_coordinate.box},"
        f"{demo_coordinate.switch}), 4 batches)\n"
    )
    sections.append("```")
    sections.append(fabric.summary())
    sections.append("```")
    return "\n".join(sections)


def experiments_report(max_m: int = 6, w: int = 8) -> str:
    """Build the paper-vs-measured markdown report."""
    sections: List[str] = ["# BNB reproduction: paper vs measured\n"]

    sections.append("## Structural counts vs closed forms (Eq. 6 / Eq. 10)\n")
    sections.append(
        "| N | BNB switches (built) | Eq.6 | BNB fn nodes (built) | Eq.6 | "
        "Batcher comparators (built) | Eq.10 |"
    )
    sections.append("|---|---|---|---|---|---|---|")
    for m in range(1, max_m + 1):
        n = 1 << m
        bnb = BNBNetwork(m)
        bat = BatcherNetwork(m)
        sections.append(
            f"| {n} | {bnb.switch_count} | {bnb_switch_slices(n)} | "
            f"{bnb.function_node_count} | {bnb_function_nodes(n)} | "
            f"{bat.comparator_count} | {batcher_comparators(n)} |"
        )

    sections.append("\n## Measured delay vs Eq. 9 / Eq. 12\n")
    sections.append("| N | BNB measured | Eq.9 | Batcher measured | Eq.12 |")
    sections.append("|---|---|---|---|---|")
    for m in range(1, max_m + 1):
        n = 1 << m
        sections.append(
            f"| {n} | {bnb_measured_delay(m):.0f} | {bnb_delay(n):.0f} | "
            f"{batcher_measured_delay(m):.0f} | {batcher_delay(n):.0f} |"
        )

    sections.append("\n## Headline ratios (Section 5.3)\n")
    sections.append("| N | hardware BNB/Batcher | delay BNB/Batcher |")
    sections.append("|---|---|---|")
    for m in (3, 6, 10, 14, 20):
        n = 1 << m
        sections.append(
            f"| {n} | {hardware_leading_ratio(n, w):.3f} | "
            f"{delay_leading_ratio(n):.3f} |"
        )

    sections.append("\n## Theorem 2 verification\n")
    for n, mode in ((4, "exhaustive"), (16, "sampled"), (64, "sampled")):
        report = verify_router("bnb", n, mode=mode, samples=100)
        sections.append(f"- {report.summary()}")

    sections.append("\n## Tables at N=1024\n```")
    sections.append(render_table1(1024, w=w))
    sections.append("")
    sections.append(render_table2(1024))
    sections.append("```")
    return "\n".join(sections)
