"""Backend arena: every compiled routing engine, measured head to head.

The ISSUE 9 acceptance benchmark.  Each registered backend (the compiled
BNB vector engine, the object-model reference, the KR-Benes looping
tables, the multiway comparator sorter) is differentially verified
against the crossbar oracle and then timed per ``(m, workload class)``
cell — ``single`` (one frame per ``route_frame`` call, the latency
shape) and ``batch`` (``batch_window`` frames per ``route_frame_batch``
call, the throughput shape).  The winner of each cell is whatever the
clock says on this machine; the acceptance bar is that the measurement
*matters*: on at least two cells the winner must beat the slowest
candidate by >= 1.2x (measured spreads run 25-200x in the container
this grew up in).

``BENCH_ARENA_QUICK=1`` (the CI smoke) trims the sweep to m in {3, 5}
and shortens the timing loops; the spread bar still applies.

Findings (see ``benchmarks/out/backend_arena.json``):

* the multiway sorter's handful of whole-array comparator passes win
  the small cells — sorting-by-destination costs O(log^2 N) vectorized
  stages but each stage is one fancy-index pass — while the table-driven
  BNB kernel wins the batch cells from m=5 on and the lone frame at
  m=7;
* KR-Benes is latency-competitive (the Waksman looping dominates; the
  compiled gather application is nearly free) but cannot amortize the
  per-frame control computation across a batch, so it falls behind on
  the batch workload;
* the object engine loses every cell by 1-2 orders of magnitude, which
  is exactly why ``engine="auto"`` exists: the gateway should never
  guess when it can measure.
"""

from __future__ import annotations

import json
import os

from repro.backends import (
    backend_names,
    calibrate,
    clear_arena_cache,
    select_backend,
    verify_backend,
)

QUICK = bool(os.environ.get("BENCH_ARENA_QUICK"))
SWEEP_MS = (3, 5) if QUICK else (3, 5, 7)
FRAMES = 6 if QUICK else 16
BATCH_WINDOW = 16 if QUICK else 32
REPEATS = 2 if QUICK else 3
VERIFY_SAMPLES = 4 if QUICK else 12
SPREAD_BAR = 1.2
SPREAD_CELLS = 2


def test_backend_arena(write_artifact):
    """Calibrate every backend per (m, workload); the spread bar holds."""
    clear_arena_cache()  # measure fresh, not whatever this process cached
    names = backend_names()
    assert {"bnb", "bnb-object", "krbenes", "msorter"} <= set(names)

    verified = {
        name: {
            str(m): verify_backend(name, m, samples=VERIFY_SAMPLES)
            for m in SWEEP_MS
        }
        for name in names
    }

    cells = []
    for m in SWEEP_MS:
        table = calibrate(
            m,
            frames=FRAMES,
            batch_window=BATCH_WINDOW,
            repeats=REPEATS,
            verify_samples=VERIFY_SAMPLES,
        )
        for workload, costs in table.items():
            decision = select_backend(m, workload=workload)
            assert decision.backend == min(costs, key=costs.__getitem__)
            cells.append(
                {
                    "m": m,
                    "n": 1 << m,
                    "workload": workload,
                    "winner": decision.backend,
                    "spread": decision.spread,
                    "seconds_per_frame": {
                        name: costs[name] for name in sorted(costs)
                    },
                    "frames_per_sec": {
                        name: 1.0 / costs[name] for name in sorted(costs)
                    },
                }
            )

    # Acceptance: the measured choice matters on >= 2 cells.
    decisive = [cell for cell in cells if cell["spread"] >= SPREAD_BAR]
    assert len(decisive) >= SPREAD_CELLS, [
        (cell["m"], cell["workload"], cell["spread"]) for cell in cells
    ]
    for cell in cells:
        for cost in cell["seconds_per_frame"].values():
            assert cost > 0.0, cell

    artifact = {
        "benchmark": "backend_arena",
        "quick": QUICK,
        "spread_bar": SPREAD_BAR,
        "spread_cells_required": SPREAD_CELLS,
        "backends": names,
        "verified_frames": verified,
        "cells": cells,
    }
    write_artifact("backend_arena.json", json.dumps(artifact, indent=2))
