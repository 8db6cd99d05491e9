"""Adaptive fault model and detect-and-reroute recovery benches.

Findings (extensions; see EXPERIMENTS.md):

* **architectural masking** — early stuck switches are frequently
  healed by downstream splitters re-deciding on live data, so the
  adaptive model misroutes *less often* than the frozen-replay model
  at the same fault sites, but *cascades further* when it does (odd
  blast radii occur);
* **recovery** — re-injecting misdelivered words as repair passes
  restores full delivery for ~90% of (fault, workload) pairs within a
  few passes; the residue is late-stage faults exercised by every
  repair arrangement;
* **service** — wrapping the fabric in
  :class:`~repro.service.ResilientFabric` closes that residue: every
  single stuck-at fault at N=8 is BIST-detected, uniquely localized
  and survived (degraded or failed-over) with 100% word delivery.

Alongside the ``.txt`` snippets, machine-readable ``.json`` artifacts
land in ``benchmarks/out/`` (probe counts, localization accuracy,
retries to full delivery, failover rates) for trend tracking in CI.
"""

from __future__ import annotations

import json

import pytest

from repro.core import Word
from repro.faults import (
    SwitchCoordinate,
    build_bist_schedule,
    enumerate_switch_coordinates,
    fault_mask_for,
    misrouted_outputs,
    recovery_experiment,
    route_with_stuck_switch,
)
from repro.permutations import random_permutation
from repro.service import ResilientFabric


def test_masking_rate(benchmark, write_artifact):
    """How often is a stage-0 fault invisible at the outputs?"""
    m = 4

    def measure():
        coordinate = SwitchCoordinate(0, 0, 0, 0, 0)
        masked = 0
        total = 0
        for seed in range(25):
            pi = random_permutation(1 << m, rng=seed)
            words = [Word(address=pi(j), payload=j) for j in range(1 << m)]
            for value in (0, 1):
                outputs = route_with_stuck_switch(
                    m, words, fault_mask_for(m, [(coordinate, value)])
                )
                total += 1
                masked += not misrouted_outputs(outputs)
        return masked, total

    masked, total = benchmark.pedantic(measure, rounds=1, iterations=1)
    rate = masked / total
    assert rate > 0.5  # the architecture self-heals early faults
    write_artifact(
        "fault_masking.txt",
        f"stage-0 stuck-at masking rate (adaptive model, N=16): "
        f"{masked}/{total} = {rate:.2f}",
    )


@pytest.mark.parametrize("m", [3, 4])
def test_recovery_statistics(benchmark, m, write_artifact):
    stats = benchmark.pedantic(
        lambda: recovery_experiment(m, trials=40, seed=m, max_passes=8),
        rounds=1,
        iterations=1,
    )
    assert stats["recovery_rate"] > 0.75
    assert stats["mean_passes"] < 3.0
    write_artifact(
        f"fault_recovery_m{m}.txt",
        f"N={1 << m}: recovery rate {stats['recovery_rate']:.2f}, "
        f"mean passes {stats['mean_passes']:.2f}, "
        f"worst {stats['worst_passes']:.0f}",
    )
    write_artifact(
        f"fault_recovery_m{m}.json",
        json.dumps(
            {"n": 1 << m, "trials": 40, "max_passes": 8, **stats},
            indent=2,
            sort_keys=True,
        ),
    )


def test_resilient_service_sweep(benchmark, write_artifact):
    """Exhaustive single-fault sweep of the full service at N=8.

    The machine-readable artifact carries the service's headline
    numbers: BIST probe count, localization accuracy, retries needed
    for full delivery, and how much traffic ends up on the spare.
    """
    m = 3
    n = 1 << m
    schedule = build_bist_schedule(m)
    faults = [
        (coordinate, value)
        for coordinate in enumerate_switch_coordinates(m)
        for value in (0, 1)
    ]

    def sweep():
        unique = 0
        exact = 0
        delivered = 0
        retries = []
        failover_batches = 0
        batches = 0
        for coordinate, value in faults:
            fabric = ResilientFabric(
                m,
                mask=fault_mask_for(m, [(coordinate, value)]),
                schedule=schedule,
            )
            result = fabric.submit(
                random_permutation(n, rng=12345).to_list(), tag="live"
            )
            if not fabric.registry.is_quarantined:
                fabric.check(tag="scheduled")
            second = fabric.submit(
                random_permutation(n, rng=12346).to_list(), tag="after"
            )
            unique += len(fabric.registry.confirmed_faults) == 1
            exact += fabric.registry.confirmed_faults == [(coordinate, value)]
            delivered += result.delivered + second.delivered
            retries.append(result.retries)
            batches += 2
            failover_batches += (result.mode == "failover") + (
                second.mode == "failover"
            )
        return {
            "n": n,
            "faults_swept": len(faults),
            "bist_probes": schedule.probe_count,
            "localization_unique_rate": unique / len(faults),
            "localization_exact_rate": exact / len(faults),
            "words_delivered": delivered,
            "words_expected": 2 * n * len(faults),
            "max_retries_to_full_delivery": max(retries),
            "mean_retries_to_full_delivery": sum(retries) / len(retries),
            "failover_batch_rate": failover_batches / batches,
        }

    stats = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert stats["localization_exact_rate"] == 1.0
    assert stats["words_delivered"] == stats["words_expected"]
    write_artifact(
        "fault_recovery_service_m3.json",
        json.dumps(stats, indent=2, sort_keys=True),
    )


def test_vector_resilient_throughput(benchmark, write_artifact):
    """The serving fault policy vs the object service, words/s.

    The ``vector`` side is :class:`~repro.service.FaultPolicy` in the
    window-1 shape a ``--resilient`` plane with ``batch_window=1``
    serves: one frame per ``submit``, routed by the ``bnb`` kernel (no
    mask while healthy) and, after quarantine, by the ``krbenes``
    spare's Waksman looping.  Sweeps the healthy serving path and the
    post-quarantine failover path with the same injected fault on both
    services.
    ``m = 6`` uses a relaxed-coverage BIST schedule (strict coverage is
    unattainable past ``m = 4`` — see
    :func:`repro.faults.build_bist_schedule`); detection of the
    injected, activatable fault is unaffected.  The artifact is
    CI-gated: recovered delivery must be total and the vector healthy
    path must clear 5x object at the largest size.
    """
    import time

    from repro.service import FaultPolicy

    def timed_words_per_sec(service, perms, batches):
        counters = service.counters
        before = counters.words_delivered
        start = time.perf_counter()
        for index in range(batches):
            service.submit(perms[index % len(perms)], tag=index)
        elapsed = time.perf_counter() - start
        delivered = counters.words_delivered - before
        return delivered / elapsed, delivered

    def sweep():
        rows = []
        for m, batches in ((4, 300), (6, 200)):
            n = 1 << m
            schedule = (
                build_bist_schedule(m)
                if m <= 4
                else build_bist_schedule(
                    m,
                    ensure_detection=False,
                    require_full_coverage=False,
                    max_candidates=400,
                )
            )
            perms = [
                random_permutation(n, rng=seed).to_list()
                for seed in range(20)
            ]
            coordinate = SwitchCoordinate(m - 1, 0, 0, 0, 0)
            row = {"m": m, "n": n, "batches": batches}
            healthy = {
                "object": ResilientFabric(m, schedule=schedule),
                "vector": FaultPolicy(m, schedule=schedule),
            }
            for engine, service in healthy.items():
                rate, delivered = timed_words_per_sec(service, perms, batches)
                row[f"healthy_{engine}_words_per_sec"] = rate
                assert delivered == batches * n
            faulted = {
                "object": ResilientFabric(
                    m,
                    mask=fault_mask_for(m, [(coordinate, 1)]),
                    schedule=schedule,
                ),
                "vector": FaultPolicy(
                    m,
                    mask=fault_mask_for(m, [(coordinate, 1)]),
                    schedule=schedule,
                ),
            }
            recovered = 0
            for engine, service in faulted.items():
                service.submit(perms[0], tag="first")
                recovered += service.counters.words_delivered
                if not service.registry.is_quarantined:
                    service.check(tag="scheduled")
                assert service.registry.is_quarantined
                rate, delivered = timed_words_per_sec(
                    service, perms, batches
                )
                row[f"failover_{engine}_words_per_sec"] = rate
                recovered += delivered
            row["recovered_delivery"] = recovered / (
                2 * (batches + 1) * n
            )
            row["healthy_speedup"] = (
                row["healthy_vector_words_per_sec"]
                / row["healthy_object_words_per_sec"]
            )
            row["failover_speedup"] = (
                row["failover_vector_words_per_sec"]
                / row["failover_object_words_per_sec"]
            )
            rows.append(row)
        return {
            "sweep": rows,
            "headline_speedup": rows[-1]["healthy_speedup"],
        }

    stats = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert all(row["recovered_delivery"] == 1.0 for row in stats["sweep"])
    assert stats["headline_speedup"] >= 5.0
    write_artifact(
        "fault_recovery_vector.json",
        json.dumps(stats, indent=2, sort_keys=True),
    )


def test_bist_probe_counts(benchmark, write_artifact):
    """Probe counts grow with the switch count's logarithm, not N."""

    def build():
        return {
            m: build_bist_schedule(m).probe_count for m in (2, 3, 4)
        }

    counts = benchmark.pedantic(build, rounds=1, iterations=1)
    for m, count in counts.items():
        faults = 2 * len(enumerate_switch_coordinates(m))
        assert count < faults // 2
    write_artifact(
        "bist_probe_counts.json",
        json.dumps(
            {
                f"m{m}": {
                    "n": 1 << m,
                    "probes": count,
                    "faults_covered": 2 * len(enumerate_switch_coordinates(m)),
                }
                for m, count in counts.items()
            },
            indent=2,
            sort_keys=True,
        ),
    )
