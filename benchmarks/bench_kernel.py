"""The served BNB kernel against the arbiter-only kernel it replaced.

``route_frame_batch`` packs each main stage's address-bit slice into
16-bit rows and decides every splitter from tables: a splitter wider
than 16 lines by one :func:`~repro.core.plan.splitter_group_table` row
per 16 lines and the flag the arbiter tree above them sends down, each
bit-sorter tail by one :func:`~repro.core.plan.bit_sorter_table` row.
The reference is the same batch routed with every stage wholly on the
per-line arbiter, :func:`~repro.core.plan.tree_stage_take_indices` —
the kernel's answer before any table existed, and still the path a
stage with a stuck switch takes.

Method: m in {6, 8} x k in {1, 32} frames per call.  Every round times
a block of calls of each side in thread CPU time, the side that goes
first alternating, and the round's ratio is arbiter-only time over
served time; the artifact records microseconds per call for both
sides and the median and quartiles of the paired ratios over at least
15 rounds.  Both sides must return identical sources on the timed
frames.

The bar (see ``benchmarks/out/kernel.json``): at m=8, k=32 the served
kernel must be **>= 3x** faster than the arbiter-only one in the median
paired ratio.  With the arbiter head (splitters wider than 16 lines
on the per-line arbiter, tails on tables) it was about 2x.

``BENCH_KERNEL_QUICK=1`` (the CI smoke) shortens each round's blocks;
the round count and the bar stay.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.core.pipeline_fast import route_frame_batch
from repro.core.plan import compiled_plan, tree_stage_take_indices

QUICK = bool(os.environ.get("BENCH_KERNEL_QUICK"))
ROUNDS = 15 if QUICK else 25
CELLS = ((6, 1), (6, 32), (8, 1), (8, 32))
#: Target thread CPU seconds per timed block of the served side.
BLOCK_SECONDS = 0.004 if QUICK else 0.015
BAR_CELL = (8, 32)
SPEEDUP_BAR = 3.0


def arbiter_only_route(m: int, addresses: np.ndarray) -> np.ndarray:
    """Every stage wholly on the per-line arbiter: the reference."""
    plan = compiled_plan(m)
    current = addresses
    sources = np.broadcast_to(plan.identity, addresses.shape)
    for stage in plan.stages:
        take = tree_stage_take_indices(plan, stage, current)
        current = np.take_along_axis(current, take, axis=1)
        sources = np.take_along_axis(sources, take, axis=1)
    return sources


def _block(route, m: int, addresses: np.ndarray, calls: int) -> float:
    """Microseconds of thread CPU time per call over *calls* calls."""
    start = time.thread_time()
    for _ in range(calls):
        route(m, addresses)
    return (time.thread_time() - start) / calls * 1e6


def _measure(m: int, batch: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n = 1 << m
    addresses = np.argsort(rng.random((batch, n)), axis=1)
    served = route_frame_batch(m, addresses)
    assert np.array_equal(served, arbiter_only_route(m, addresses))
    # Calls per block: about BLOCK_SECONDS of the served side.
    probe = _block(route_frame_batch, m, addresses, 3)
    calls = max(1, int(BLOCK_SECONDS * 1e6 / max(probe, 1.0)))
    served_us, arbiter_us, ratios = [], [], []
    for turn in range(ROUNDS):
        sides = [
            ("served", route_frame_batch),
            ("arbiter", arbiter_only_route),
        ]
        if turn % 2:
            sides.reverse()
        timed = {
            name: _block(route, m, addresses, calls) for name, route in sides
        }
        served_us.append(timed["served"])
        arbiter_us.append(timed["arbiter"])
        ratios.append(timed["arbiter"] / timed["served"])
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    return {
        "m": m,
        "n": n,
        "frames_per_call": batch,
        "rounds": ROUNDS,
        "calls_per_block": calls,
        "served_us_per_call": float(np.median(served_us)),
        "arbiter_only_us_per_call": float(np.median(arbiter_us)),
        "served_ns_per_line": float(np.median(served_us)) * 1e3 / (batch * n),
        "speedup_median": float(median),
        "speedup_q1": float(q1),
        "speedup_q3": float(q3),
        "speedup_iqr": float(q3 - q1),
        "outputs_match": True,
    }


def test_kernel_speedup(write_artifact):
    """The served kernel clears the 3x bar over arbiter-only at m=8, k=32."""
    for m, _batch in CELLS:
        compiled_plan(m)  # tables built before any clock starts
    cells = [_measure(m, batch, seed=m * 100 + batch) for m, batch in CELLS]
    by_cell = {(cell["m"], cell["frames_per_call"]): cell for cell in cells}
    bar = by_cell[BAR_CELL]
    assert bar["speedup_median"] >= SPEEDUP_BAR, bar
    for cell in cells:
        assert cell["speedup_median"] > 1.0, cell

    artifact = {
        "benchmark": "kernel",
        "quick": QUICK,
        "clock": "thread_time",
        "speedup_bar": SPEEDUP_BAR,
        "speedup_bar_cell": {"m": BAR_CELL[0], "frames_per_call": BAR_CELL[1]},
        "cells": cells,
    }
    write_artifact("kernel.json", json.dumps(artifact, indent=2))
