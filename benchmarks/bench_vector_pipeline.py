"""Object engine vs compiled vector engine: pipelined cycles per second.

The ISSUE 4 acceptance benchmark: the same cycle-accurate schedule —
offer one fresh permutation per cycle, step, repeat — clocked once on
the reference object-model :class:`PipelinedBNBFabric` and once on the
compiled-plan numpy :class:`VectorPipelinedFabric`, at m in {6, 8, 10}.
The vector engine must sustain **>= 10x** the object engine's
cycles/sec at m=8 (measured ~15x in the container this grew up in),
and the gateway must still fill frames (>= 0.9 steady-state fill at
offered load 1.0) when its planes run the vector engine.

``BENCH_VECTOR_QUICK=1`` (the CI smoke) trims the sweep to m in
{6, 8} and shortens the runs; the m=8 speedup bar still applies.

Findings (see ``benchmarks/out/vector_pipeline.json``):

* the object engine walks every word through every splitter as Python
  objects, so its cycle cost grows ~ N log^2 N interpreter operations;
* the vector engine's cycle cost is a handful of whole-array numpy
  passes per stage, so the gap *widens* with m — the compiled plan is
  how the software model starts behaving like the hardware it models;
* the gateway at m=4 on the vector engine — the compiled ``bnb``
  backend on the pipeline's one-frame-per-cycle, ``m``-cycle timing,
  every frame verified in full — fills frames at load 1.0 exactly like
  the object-engine run in ``bench_gateway_load``.
"""

from __future__ import annotations

import json
import os
import time

from repro.core.pipeline import PipelinedBNBFabric
from repro.core.pipeline_fast import VectorPipelinedFabric
from repro.permutations import random_permutation
from repro.server import AsyncGateway, GatewayConfig

from bench_gateway_load import drive_open_loop

QUICK = bool(os.environ.get("BENCH_VECTOR_QUICK"))
SWEEP_MS = (6, 8) if QUICK else (6, 8, 10)
CYCLES = {6: 60, 8: 40, 10: 20} if QUICK else {6: 200, 8: 120, 10: 40}
SPEEDUP_BAR_M = 8
SPEEDUP_BAR = 10.0


def _cycles_per_sec(fabric_cls, m: int, cycles: int) -> float:
    """Steady-state offered-every-cycle throughput of one engine."""
    n = 1 << m
    # Pre-generate the permutations so the measurement window times the
    # engines, not the generator.
    perms = [
        random_permutation(n, rng=seed).to_list() for seed in range(8)
    ]
    fabric = fabric_cls(m, retain_delivered=False)
    for k in range(m + 1):  # fill the pipeline before the clock starts
        fabric.offer(perms[k % len(perms)], tag=("warmup", k))
        fabric.step()
    start = time.perf_counter()
    for k in range(cycles):
        fabric.offer(perms[k % len(perms)], tag=k)
        fabric.step()
    elapsed = time.perf_counter() - start
    assert fabric.delivered_count >= cycles  # back-to-back, no bubbles
    return cycles / elapsed


def test_vector_engine_speedup(write_artifact):
    """The compiled engine clears the 10x bar at m=8 and the gap widens."""
    rows = []
    for m in SWEEP_MS:
        cycles = CYCLES[m]
        object_rate = _cycles_per_sec(PipelinedBNBFabric, m, cycles)
        vector_rate = _cycles_per_sec(VectorPipelinedFabric, m, cycles)
        rows.append(
            {
                "m": m,
                "n": 1 << m,
                "cycles_timed": cycles,
                "object_cycles_per_sec": object_rate,
                "vector_cycles_per_sec": vector_rate,
                "speedup": vector_rate / object_rate,
            }
        )

    by_m = {row["m"]: row for row in rows}
    # ISSUE acceptance: >= 10x at m=8 (measured ~15x; headroom for CI).
    assert by_m[SPEEDUP_BAR_M]["speedup"] >= SPEEDUP_BAR, by_m[SPEEDUP_BAR_M]
    for row in rows:
        assert row["speedup"] > 1.0, row

    # The gateway keeps its saturation behaviour on vector planes.
    gateway = AsyncGateway(
        GatewayConfig(m=4, planes=1, queue_capacity=16, engine="vector")
    )
    load = 1.0
    gateway_row = drive_open_loop(
        gateway, load, 120 if QUICK else 300, 20 if QUICK else 50
    )
    assert gateway_row["steady_fill"] >= 0.9
    assert gateway_row["words_delivered"] == gateway_row["words_accepted"]
    stats = gateway.stats()
    plane = stats["planes"][0]
    assert plane["kind"] == "BackendPlane"
    assert plane["depth"] == 4
    # Every scheduled frame left the plane verified.
    assert plane["frames_delivered"] == stats["scheduler"]["frames"]

    artifact = {
        "benchmark": "vector_pipeline",
        "quick": QUICK,
        "speedup_bar": SPEEDUP_BAR,
        "speedup_bar_m": SPEEDUP_BAR_M,
        "sweep": rows,
        "gateway": {
            "m": 4,
            "engine": "vector",
            "offered_load": load,
            "steady_fill": gateway_row["steady_fill"],
            "words_delivered": gateway_row["words_delivered"],
            "words_accepted": gateway_row["words_accepted"],
        },
    }
    write_artifact("vector_pipeline.json", json.dumps(artifact, indent=2))
