"""Seeded serving scenarios whose every observable is dumped to JSON.

Usage (from a checkout's root)::

    PYTHONPATH=src python tools/serving_differential.py OUT.json

Run it on two checkouts and compare the two files: equal files mean the
two dataplanes delivered every word to the same plane, frame and cycle,
with the same receipts, ``stats()`` counters, Prometheus series and
frame traces.  The scenarios use only the public gateway API
(``send_batch``, ``send_with_retry``, ``kill_plane``, ``stats`` and the
instrumentation), so any release since 2.0.0 runs them.  They cover the
``batch`` and ``msorter`` engines, windows of one to thirty-two frames,
one to three planes, rejections with server-side retries, a mid-run
plane kill, and two or three tenant classes with unequal weights,
starvation rescues included.  ``hotspot_m8`` is the served
``tenant_hotspot_m8`` shape: N = 256, capacity and window 32, one
plane, gold:8/bronze:1, and hot-mix batches (70% of the words to the
first eighth of the outputs) with 16 retries.

Every tenant first queues one word at every destination, in
registration order: since 2.1.0 credit ties go to the class registered
first, before that to the class whose FIFO was created first at that
destination, and this ordering makes the two rules agree.
"""

from __future__ import annotations

import asyncio
import json
import random
import sys

import numpy as np

from repro.exceptions import AdmissionRejectedError
from repro.obs import GatewayInstrumentation, Registry
from repro.server import AsyncGateway, GatewayConfig

#: (engine, m, planes, capacity, tenants, kill at cycle, seed, window,
#: starvation cycles[, hot-mix batches])
SCENARIOS = {
    "batch_tenants": ("batch", 4, 2, 8, {"gold": 5, "bronze": 2}, None, 11, 8, 1024),
    "window1_kill_tenants": (
        "batch", 3, 2, 6, {"gold": 3, "bronze": 1, "iron": 7}, 9, 12, 1, 1024
    ),
    "msorter": ("msorter", 4, 3, 5, None, None, 13, 8, 1024),
    "window1_kill": ("batch", 4, 3, 16, None, 5, 14, 1, 1024),
    "batch_window_3": ("batch", 3, 1, 4, {"a": 100, "b": 1}, None, 15, 3, 1024),
    "window1_rescue": ("batch", 3, 2, 12, {"a": 100, "b": 1, "c": 3}, 7, 18, 1, 2),
    "batch_rescue": ("batch", 4, 1, 12, {"a": 50, "b": 1}, None, 19, 8, 3),
    "hotspot_m8": (
        "batch", 8, 1, 32, {"gold": 8, "bronze": 1}, None, 21, 32, 1024, True
    ),
}


def _batch_dests(rng, n, hot):
    """A batch's destinations: uniform, or the hot mix."""
    if not hot:
        return [rng.randrange(n) for _ in range(rng.randrange(20, 300))]
    return [
        rng.randrange(n // 8) if rng.random() < 0.7 else rng.randrange(n)
        for _ in range(rng.randrange(512, 2048))
    ]


def _batch_dump(result):
    return {
        field: getattr(result, field).tolist()
        for field in ("statuses", "planes", "frames", "latencies", "retry_after", "modes")
    } | {"mode_table": list(result.mode_table)}


async def _scenario(
    engine, m, planes, capacity, tenants, kill_at, seed, window, starvation, hot=False
):
    rng = random.Random(seed)
    n = 1 << m
    gateway = AsyncGateway(
        GatewayConfig(
            m=m,
            planes=planes,
            queue_capacity=capacity,
            engine=engine,
            batch_window=window,
            tenants=tenants,
            starvation_cycles=starvation,
        )
    )
    instrumentation = GatewayInstrumentation(
        gateway, registry=Registry(), trace_sample_every=3
    ).attach()
    names = list(tenants) if tenants else [None]

    async def kill():
        if kill_at is not None:
            await gateway.wait_cycles(kill_at)
            gateway.kill_plane(0, reason="differential kill")

    async def batch(dests, retry, tenant):
        await asyncio.sleep(0)
        result = await gateway.send_batch(
            np.array(dests, dtype=np.int64), retry_attempts=retry, tenant=tenant
        )
        return _batch_dump(result)

    async def single(dest, k, tenant):
        for _ in range(1 + k % 5):
            await asyncio.sleep(0)
        try:
            r = await gateway.send_with_retry(dest, payload=k, attempts=40, tenant=tenant)
        except AdmissionRejectedError as error:
            return ["rejected", error.retry_after_cycles]
        return [r.destination, r.payload, r.plane_id, r.frame_tag,
                r.enqueued_cycle, r.delivered_cycle, r.mode, r.requeues]

    async with gateway:
        first = [batch(list(range(n)), 4, name) for name in names]
        batches = [
            batch(
                _batch_dests(rng, n, hot),
                16 if hot else rng.randrange(0, 8),
                names[k % len(names)],
            )
            for k in range(6)
        ]
        singles = [
            single(rng.randrange(n), k, names[k % len(names)]) for k in range(60)
        ]
        results = await asyncio.gather(kill(), *first, *batches, *singles)
    stats = gateway.stats()
    for volatile in ("uptime_seconds", "node_id"):
        stats.pop(volatile)
    exposition = [
        line
        for line in instrumentation.render_prometheus().splitlines()
        if "uptime" not in line and "node_info" not in line
    ]
    split = 1 + len(first) + len(batches)
    return {
        "batches": results[1:split],
        "singles": results[split:],
        "stats": stats,
        "prometheus": exposition,
        "traces": instrumentation.tracer.records(),
    }


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    runs = {name: asyncio.run(_scenario(*spec)) for name, spec in SCENARIOS.items()}
    with open(argv[0], "w") as handle:
        json.dump(runs, handle, indent=1, sort_keys=True, default=str)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
