"""Wire-protocol throughput: binary ``send_batch`` vs the JSON baseline.

The acceptance benchmark for the length-prefixed binary framing and
the frame-axis batch dataplane behind it.  A real
:class:`~repro.server.GatewayServer` listens on a loopback socket; a
real :class:`~repro.client.GatewayClient` speaks the binary framing
and pushes permutation bursts through ``send_batch`` — so the measured
rate pays for everything a deployment pays for: header packing, the
``_arrays`` manifest, socket writes, zero-copy decode, VOQ admission,
window coalescing, one :func:`route_frame_batch` gather per window,
and the array-shaped response on the way back.

The bar (see ``benchmarks/out/wire_protocol.json``): sustained
gateway words/s must be **>= 10x** the JSON-era baseline — the m=3,
rho=1.0 object-engine open-loop drive of ``bench_gateway_load``,
measured in the same run so both sides see the same host speed — with
the batched kernel exercised at m=6 and verified word-for-word against
the reference object pipeline
(the same oracle as
``tests/test_pipeline_batch.py::test_word_for_word_parity_with_object_pipeline_m6``,
re-run here so the artifact carries its own proof).

``BENCH_WIRE_QUICK=1`` (the CI smoke) trims the burst count; the
speedup assertion stays on — the win is an order of magnitude, not a
margin call.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

import numpy as np

from repro.client import GatewayClient
from repro.core import Word, route_frame_sources
from repro.core.pipeline import PipelinedBNBFabric
from repro.core.pipeline_fast import route_frame_batch
from repro.server import AsyncGateway, GatewayConfig, GatewayServer

from bench_gateway_load import CYCLES, WARMUP, drive_open_loop

QUICK = bool(os.environ.get("BENCH_WIRE_QUICK"))

M = 6
N = 1 << M
FRAMES_PER_BATCH = 128          # 8192 words per send_batch request
BATCHES = 8 if QUICK else 32
JSON_BATCHES = 2 if QUICK else 4
IN_FLIGHT = 4                   # concurrent requests on one connection


def _bursts(batches: int, seed: int = 7) -> list:
    rng = np.random.default_rng(seed)
    return [
        np.concatenate(
            [rng.permutation(N) for _ in range(FRAMES_PER_BATCH)]
        ).astype(np.int64)
        for _ in range(batches)
    ]


def _baseline_words_per_sec() -> float:
    """The m=3, rho=1.0 row of ``bench_gateway_load``'s sweep (object
    engine, one plane, capacity 16), driven here and now."""
    gateway = AsyncGateway(GatewayConfig(m=3, planes=1, queue_capacity=16))
    row = drive_open_loop(gateway, 1.0, CYCLES, WARMUP)
    assert row["words_delivered"] == row["words_accepted"]
    return row["sustained_words_per_sec"]


async def _drive(port: int, binary: bool, bursts: list) -> dict:
    """Push every burst through one client, IN_FLIGHT requests deep."""
    async with GatewayClient("127.0.0.1", port, binary=binary) as client:
        queue = list(enumerate(bursts))
        delivered = 0
        start = time.perf_counter()

        async def worker():
            nonlocal delivered
            while queue:
                _, burst = queue.pop()
                result = await client.send_batch(burst, retry=256)
                assert result["delivered"] == len(burst), (
                    f"{result['rejected']} words rejected after retries"
                )
                delivered += result["delivered"]

        await asyncio.gather(*(worker() for _ in range(IN_FLIGHT)))
        elapsed = time.perf_counter() - start
    words = sum(len(burst) for burst in bursts)
    assert delivered == words
    return {
        "framing": "binary" if binary else "json",
        "batches": len(bursts),
        "words": words,
        "elapsed_seconds": elapsed,
        "words_per_sec": words / elapsed,
    }


def _object_pipeline_parity(frames: int = 8, seed: int = 42) -> int:
    """Re-run the acceptance oracle: batch kernel vs object fabric.

    ``route_frame_batch`` must agree with the single-frame kernel and
    the word-for-word object pipeline on every line of every frame;
    returns the number of words cross-checked.
    """
    rng = np.random.default_rng(seed)
    addresses = np.stack(
        [rng.permutation(N) for _ in range(frames)]
    ).astype(np.int64)
    batched = route_frame_batch(M, addresses)
    fabric = PipelinedBNBFabric(M)
    checked = 0
    for b, row in enumerate(addresses):
        assert np.array_equal(batched[b], route_frame_sources(M, row))
        words = [
            Word(address=int(a), payload=(b, j)) for j, a in enumerate(row)
        ]
        outputs = fabric.route_batch(words, tag=b)
        for line, word in enumerate(outputs):
            assert word.address == line
            assert word.payload == (b, int(batched[b, line]))
            checked += 1
    return checked


def test_wire_throughput(write_artifact):
    """Binary send_batch over TCP: >= 10x the JSON-era m=3 baseline."""

    async def scenario():
        config = GatewayConfig(
            m=M,
            planes=1,
            queue_capacity=256,
            engine="batch",
            batch_window=64,
        )
        gateway = await AsyncGateway(config).start()
        server = await GatewayServer(gateway).start()
        try:
            binary = await _drive(server.port, True, _bursts(BATCHES))
            via_json = await _drive(
                server.port, False, _bursts(JSON_BATCHES, seed=11)
            )
        finally:
            await server.stop()
            await gateway.stop()
        return binary, via_json

    binary, via_json = asyncio.run(scenario())
    parity_words = _object_pipeline_parity()
    baseline = _baseline_words_per_sec()
    speedup = binary["words_per_sec"] / baseline

    artifact = {
        "benchmark": "wire_protocol",
        "quick": QUICK,
        "m": M,
        "n": N,
        "engine": "batch",
        "batch_window": 64,
        "frames_per_batch": FRAMES_PER_BATCH,
        "in_flight_requests": IN_FLIGHT,
        "baseline_words_per_sec": baseline,
        "baseline_source": (
            "bench_gateway_load.drive_open_loop m=3 offered_load=1.0 "
            "(object engine), measured in this run"
        ),
        "binary": binary,
        "json": via_json,
        "sustained_words_per_sec": binary["words_per_sec"],
        "speedup_vs_baseline": speedup,
        "binary_vs_json": binary["words_per_sec"] / via_json["words_per_sec"],
        "object_pipeline_parity_words": parity_words,
        "parity_oracle": (
            "route_frame_batch at m=6 checked word-for-word against "
            "PipelinedBNBFabric (also pinned by tests/test_pipeline_batch.py)"
        ),
    }
    write_artifact("wire_protocol.json", json.dumps(artifact, indent=2))

    assert parity_words == 8 * N
    assert speedup >= 10.0, (
        f"binary wire path sustained {binary['words_per_sec']:.0f} words/s "
        f"= {speedup:.1f}x baseline {baseline:.0f}; the bar is 10x"
    )
