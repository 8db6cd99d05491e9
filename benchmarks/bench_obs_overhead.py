"""Observability overhead: the metrics-on dataplane vs. metrics-off.

The ISSUE acceptance bar: at m=8 on the compiled BNB dataplane
(``engine="batch"``, one frame per cycle) under offered load 1.0, the
instrumented gateway must sustain steady-state frame fill >= 0.9 and
cost < 5% throughput vs. the same run without instrumentation.  The
design that makes this possible is asserted here, not assumed: every
push-side hook is O(1) per *frame* (a frame at m=8 carries 256 words —
a per-word histogram observe would cost more than the whole routing
step), everything else is pulled at scrape time, and tracing samples
one frame in ``trace_sample_every``.

Measuring a 5% budget is harder than meeting it.  Wall-clock on a
shared host jitters by 10-15% between runs, and a median of per-cycle
times leaves out exactly the costs that come in bursts (the sampled
trace, a garbage collection): the bench that compared two such medians
read overheads from -34% to +5% for the same instrumentation.  The
bench therefore uses ``bench_kernel.py``'s method.  Each round drives
a fresh gateway of each side, times every cycle (admission + tick) in
thread CPU time (``time.thread_time``, which leaves out time the host
gave to other work), and takes the round's paired ratio: baseline CPU
time over instrumented CPU time, summed over the timed cycles.  The
two gateways run in lockstep, one cycle each in turn, the side that
goes first alternating from cycle to cycle and round to round, so a
slow phase of the host falls on both sides; timed as one block per
side, the paired ratios of the same code spread over an interquartile
range of 5-14%.  The bar is on the median of the per-round overheads
over 15 rounds, and the artifact records their quartiles; a run whose
interquartile range exceeds the budget is too noisy to decide and
writes no artifact.  Frame fill is deterministic given the arrival
seed, so it is asserted from one ordinary ``drive_open_loop`` run per
configuration.

The artifact (``benchmarks/out/obs_overhead.json``) is schema-checked
in CI by ``benchmarks/check_artifacts.py``.
"""

from __future__ import annotations

import json
import random
import statistics
import time

import numpy as np

from repro.exceptions import AdmissionRejectedError
from repro.obs import GatewayInstrumentation, Registry
from repro.server import AsyncGateway, GatewayConfig

from bench_gateway_load import drive_open_loop

M = 8
LOAD = 1.0
CYCLES = 240
WARMUP = 40
ROUNDS = 15
TRACE_SAMPLE = 16
MAX_OVERHEAD = 0.05  # ISSUE acceptance: < 5% throughput cost


def _new_gateway(instrumented: bool) -> AsyncGateway:
    gateway = AsyncGateway(
        GatewayConfig(
            m=M, planes=1, queue_capacity=16, engine="batch", batch_window=1
        )
    )
    if instrumented:
        GatewayInstrumentation(
            gateway,
            registry=Registry(),
            trace_sample_every=TRACE_SAMPLE,
        ).attach()
    return gateway


def _cycle_times(gateway: AsyncGateway, seed: int = 1234):
    """Yield each cycle's thread CPU time (admission + tick).

    Same open-loop arrival process as ``drive_open_loop``, but timed
    per cycle, so two gateways can be driven in lockstep.
    """
    n = gateway.n
    rng = random.Random(seed)
    credit = 0.0
    for _ in range(CYCLES):
        credit += LOAD * n
        start = time.thread_time()
        while credit >= 1.0:
            credit -= 1.0
            try:
                gateway.voqs.admit(rng.randrange(n), gateway.cycle)
            except AdmissionRejectedError:
                pass
        gateway.tick()
        yield time.thread_time() - start


def _paired_round(turn: int) -> tuple:
    """One round: a fresh gateway per side, driven a cycle each in
    turn; returns the (baseline, instrumented) cycle times after
    warmup."""
    clocks = {side: _cycle_times(_new_gateway(side)) for side in (False, True)}
    samples = {False: [], True: []}
    for cycle in range(CYCLES):
        order = (False, True) if (turn + cycle) % 2 == 0 else (True, False)
        for side in order:
            elapsed = next(clocks[side])
            if cycle >= WARMUP:
                samples[side].append(elapsed)
    return samples[False], samples[True]


def test_metrics_overhead_under_budget(write_artifact):
    """Metrics on: fill >= 0.9 at load 1.0, <5% throughput overhead."""
    # Fill is deterministic given the seed — one run per configuration.
    baseline = drive_open_loop(_new_gateway(False), LOAD, CYCLES, WARMUP)
    instrumented = drive_open_loop(_new_gateway(True), LOAD, CYCLES, WARMUP)
    assert baseline["steady_fill"] >= 0.9
    assert instrumented["steady_fill"] >= 0.9

    # Throughput: paired rounds of lockstep cycles.
    _paired_round(0)  # untimed warmup of both configs
    off_samples, on_samples, overheads = [], [], []
    for turn in range(ROUNDS):
        off, on = _paired_round(turn)
        off_samples.extend(off)
        on_samples.extend(on)
        # Throughput is 1/cycle-time, so the ratio inverts the sums.
        overheads.append(1.0 - sum(off) / sum(on))
    q1, overhead, q3 = (
        float(q) for q in np.percentile(overheads, [25, 50, 75])
    )
    iqr = q3 - q1
    off_median = statistics.median(off_samples)
    on_median = statistics.median(on_samples)
    spread = (
        f"(median of {ROUNDS} paired rounds, quartiles {q1:.1%} .. {q3:.1%}; "
        f"median cycle {on_median * 1e6:.0f}us instrumented vs "
        f"{off_median * 1e6:.0f}us baseline)"
    )
    assert overhead < MAX_OVERHEAD, (
        f"metrics overhead {overhead:.1%} >= {MAX_OVERHEAD:.0%} budget {spread}"
    )
    assert iqr <= MAX_OVERHEAD, (
        f"overhead IQR {iqr:.1%} exceeds the {MAX_OVERHEAD:.0%} budget: "
        f"too noisy to decide, no artifact written {spread}"
    )

    artifact = {
        "benchmark": "obs_overhead",
        "m": M,
        "n": 1 << M,
        "engine": "batch",
        "batch_window": 1,
        "offered_load": LOAD,
        "cycles": CYCLES,
        "warmup": WARMUP,
        "rounds": ROUNDS,
        "clock": "thread_time",
        "samples_per_side": len(off_samples),
        "trace_sample_every": TRACE_SAMPLE,
        "baseline_fill": baseline["steady_fill"],
        "instrumented_fill": instrumented["steady_fill"],
        "baseline_words_per_sec": baseline["sustained_words_per_sec"],
        "instrumented_words_per_sec": instrumented["sustained_words_per_sec"],
        "baseline_median_cycle_seconds": off_median,
        "instrumented_median_cycle_seconds": on_median,
        "throughput_ratio": 1.0 - overhead,
        "overhead": overhead,
        "overhead_q1": q1,
        "overhead_q3": q3,
        "overhead_iqr": iqr,
        "overhead_budget": MAX_OVERHEAD,
    }
    write_artifact("obs_overhead.json", json.dumps(artifact, indent=2))
