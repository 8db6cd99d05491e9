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

Measuring a 5% budget is harder than meeting it: whole-run wall-clock
on a shared host jitters by 10-15% between runs, so comparing two run
totals (even best-of-N) manufactures both false failures and false
passes.  The bench therefore compares the **median per-cycle step
time** over several interleaved rounds per configuration — hundreds of
samples each, with the interleaving spreading slow host phases across
both sides and the median discarding the noise spikes outright.  Frame
fill is deterministic given the arrival seed, so it is asserted from
one ordinary ``drive_open_loop`` run per configuration.

The artifact (``benchmarks/out/obs_overhead.json``) is schema-checked
in CI by ``benchmarks/check_artifacts.py``.
"""

from __future__ import annotations

import json
import random
import statistics
import time

from repro.exceptions import AdmissionRejectedError
from repro.obs import GatewayInstrumentation, Registry
from repro.server import AsyncGateway, GatewayConfig

from bench_gateway_load import drive_open_loop

M = 8
LOAD = 1.0
CYCLES = 240
WARMUP = 40
ROUNDS = 4
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


def _cycle_times(gateway: AsyncGateway, seed: int = 1234) -> list:
    """Per-cycle wall-clock (admission + tick) after warmup.

    Same open-loop arrival process as ``drive_open_loop``, but timed
    per cycle so the comparison can use a median instead of a sum.
    """
    n = gateway.n
    rng = random.Random(seed)
    credit = 0.0
    samples = []
    for cycle in range(CYCLES):
        credit += LOAD * n
        start = time.perf_counter()
        while credit >= 1.0:
            credit -= 1.0
            try:
                gateway.voqs.admit(rng.randrange(n), gateway.cycle)
            except AdmissionRejectedError:
                pass
        gateway.tick()
        elapsed = time.perf_counter() - start
        if cycle >= WARMUP:
            samples.append(elapsed)
    return samples


def test_metrics_overhead_under_budget(write_artifact):
    """Metrics on: fill >= 0.9 at load 1.0, <5% throughput overhead."""
    # Fill is deterministic given the seed — one run per configuration.
    baseline = drive_open_loop(_new_gateway(False), LOAD, CYCLES, WARMUP)
    instrumented = drive_open_loop(_new_gateway(True), LOAD, CYCLES, WARMUP)
    assert baseline["steady_fill"] >= 0.9
    assert instrumented["steady_fill"] >= 0.9

    # Throughput: median per-cycle step time, interleaved rounds.
    _cycle_times(_new_gateway(False))  # untimed warmup of both configs
    _cycle_times(_new_gateway(True))
    off_samples, on_samples = [], []
    for _ in range(ROUNDS):
        off_samples.extend(_cycle_times(_new_gateway(False)))
        on_samples.extend(_cycle_times(_new_gateway(True)))
    off_median = statistics.median(off_samples)
    on_median = statistics.median(on_samples)

    # Throughput is 1/cycle-time, so the ratio inverts the medians.
    ratio = off_median / on_median
    overhead = 1.0 - ratio
    assert overhead < MAX_OVERHEAD, (
        f"metrics overhead {overhead:.1%} >= {MAX_OVERHEAD:.0%} budget "
        f"(median cycle {on_median * 1e6:.0f}us instrumented vs "
        f"{off_median * 1e6:.0f}us baseline)"
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
        "samples_per_side": len(off_samples),
        "trace_sample_every": TRACE_SAMPLE,
        "baseline_fill": baseline["steady_fill"],
        "instrumented_fill": instrumented["steady_fill"],
        "baseline_words_per_sec": baseline["sustained_words_per_sec"],
        "instrumented_words_per_sec": instrumented["sustained_words_per_sec"],
        "baseline_median_cycle_seconds": off_median,
        "instrumented_median_cycle_seconds": on_median,
        "throughput_ratio": ratio,
        "overhead": overhead,
        "overhead_budget": MAX_OVERHEAD,
    }
    write_artifact("obs_overhead.json", json.dumps(artifact, indent=2))
