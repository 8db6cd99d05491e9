"""Traffic-scenario replay benchmark: the SLO gates behind ``repro replay``.

Replays three scenarios from :mod:`repro.traffic` through an in-process
gateway and writes ``traffic_scenarios.json``, which
``check_artifacts.py`` gates on:

* **uniform** — the no-contention baseline delivers every word;
* **multicast** — the copy-network expansion delivers 100% of the
  expanded copies (every copy of every fanout reaches its output);
* **qos_hotspot** — two tenant classes (gold weight 8, bronze weight 1)
  share one hotspot stream at offered load >= 1.0: the weighted class's
  p99 latency must not exceed the unweighted class's, and no tenant may
  starve (every admitted word delivered).

``BENCH_TRAFFIC_QUICK=1`` shrinks the event counts for CI smoke runs;
the gates are identical in both modes.  The tuned replay parameters
(burst 32, capacity 64, hot fraction 1/16) are documented in
``docs/traffic.md`` — small bursts interleave the classes within each
destination queue, which is what makes per-class tails separable at all.
"""

from __future__ import annotations

import asyncio
import json
import os

from repro.server import AsyncGateway, GatewayConfig
from repro.traffic import Scenario, TenantSpec, replay_scenario

QUICK = bool(os.environ.get("BENCH_TRAFFIC_QUICK"))
#: The QoS gate needs enough events to saturate the hot output (offered
#: load >= 1.0 including retry re-offers); 3000 clears it with margin.
EVENTS = 3000 if QUICK else 6000
M = 4  # N=16: small enough to saturate, large enough for real contention
SEED = 1

#: The two-class contention scenario the QoS gate measures.  One hot
#: output (hot_fraction 1/16 of N=16) absorbs 90% of the words, so both
#: classes queue behind the same destination and the deficit-weighted
#: scheduler is the only thing separating their latency tails.
QOS_SCENARIO = Scenario(
    name="qos_hotspot",
    description=(
        "gold (weight 8) vs bronze (weight 1) on a single-hot-output "
        "stream, equal offered shares"
    ),
    distribution="hotspot",
    hot_fraction=1 / 16,
    hot_weight=0.9,
    tenants=(
        TenantSpec("gold", weight=8, share=0.5),
        TenantSpec("bronze", weight=1, share=0.5),
    ),
)

#: Scenario name -> report document, filled by the tests in definition
#: order and written out by the final test.
RESULTS = {}


def _replay(scenario, *, tenants=None, events=EVENTS):
    # One frame per cycle: the hot output drains one word a cycle, so
    # the replay can saturate it.
    config = GatewayConfig(
        m=M,
        queue_capacity=64,
        engine="batch",
        batch_window=1,
        tenants=tenants,
    )

    async def run():
        async with AsyncGateway(config) as gateway:
            return await replay_scenario(
                gateway,
                scenario,
                events=events,
                seed=SEED,
                burst=32,
                retry_attempts=512,
            )

    return asyncio.run(run())


def test_uniform_baseline(benchmark):
    report = benchmark.pedantic(
        lambda: _replay("uniform"), rounds=1, iterations=1
    )
    assert report.words_delivered == report.words_offered
    assert not report.check_slos(require_delivery=True)
    RESULTS["uniform"] = report.to_document()


def test_multicast_copies_delivered(benchmark):
    report = benchmark.pedantic(
        lambda: _replay("multicast"), rounds=1, iterations=1
    )
    # The headline multicast gate: every expanded copy reaches its
    # output — fanout never silently degrades to partial delivery.
    assert report.multicast_copies > 0
    assert report.multicast_delivered == report.multicast_copies
    assert report.words_delivered == report.words_offered
    RESULTS["multicast"] = report.to_document()


def test_qos_hotspot_differentiation(benchmark):
    report = benchmark.pedantic(
        lambda: _replay(
            QOS_SCENARIO, tenants=QOS_SCENARIO.tenant_weights
        ),
        rounds=1,
        iterations=1,
    )
    document = report.to_document()
    # The replay saturates the hot output: offered load (including
    # retry re-offers) of at least fabric capacity.
    assert report.offered_load is not None and report.offered_load >= 1.0
    gold = document["tenants"]["gold"]["latency_cycles"]
    bronze = document["tenants"]["bronze"]["latency_cycles"]
    assert gold["p99"] <= bronze["p99"], (
        f"weight-8 gold p99 {gold['p99']} worse than bronze {bronze['p99']}"
    )
    assert gold["p50"] <= bronze["p50"]
    # No tenant starves: every admitted word is delivered.
    for tenant, row in document["tenants"].items():
        assert row["delivered"] == row["offered"], f"{tenant} starved"
    RESULTS["qos_hotspot"] = document


def test_write_artifact(write_artifact):
    assert set(RESULTS) == {"uniform", "multicast", "qos_hotspot"}
    write_artifact(
        "traffic_scenarios.json",
        json.dumps(
            {
                "quick": QUICK,
                "events": EVENTS,
                "n": 1 << M,
                "scenarios": RESULTS,
            },
            indent=2,
        ),
    )
