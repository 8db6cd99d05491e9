"""Percentiles, the end-to-end metrics, and the per-layer budget.

Percentiles are nearest-rank over every sample, with a failed request
counted as ``inf`` so it lies beyond every percentile.  A tail
percentile is only reported when at least :data:`MIN_BEYOND` samples
lie beyond it.  End-to-end times are scaled to the reference host by
the speed probed around the cycle they were measured in (``speed``);
per-layer times are as measured.
"""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Any, Callable, Dict, List, Sequence, Tuple

from .speed import factor
from .spans import Spans

MIN_BEYOND = 10
#: A percentile that lands on a failed request reports this many ms.
FAILED_MS = 1e9

Metric = Tuple[float, str]


def rank(count: int, q: float) -> int:
    """1-based nearest rank of the *q*-th percentile among *count* samples."""
    if count < 1:
        raise ValueError("a percentile needs at least one sample")
    return min(count, max(1, math.ceil(q / 100.0 * count)))


def beyond(count: int, q: float) -> int:
    """How many of *count* samples lie strictly beyond the *q*-th percentile."""
    return count - rank(count, q)


def percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


class TooFewSamples(ValueError):
    """A tail percentile was asked of too short a run."""


def tail_percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile, refused unless :data:`MIN_BEYOND` samples lie beyond."""
    if beyond(len(values), q) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {len(values)} samples leaves {beyond(len(values), q)} "
            f"beyond it; at least {MIN_BEYOND} are needed"
        )
    return percentile(values, q)


def _ms(seconds: float) -> float:
    return FAILED_MS if math.isinf(seconds) else seconds * 1000.0


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------
def cycle_of(obs) -> Callable[[float], int]:
    """Map a start time in the window to the index of its cycle."""
    starts = [start for start, *_rest in obs.cycles]
    return lambda t: max(0, bisect.bisect_right(starts, t) - 1)


def factors(obs) -> List[float]:
    """Reference seconds per measured second, per cycle (see ``speed``)."""
    return [factor(before, after) for _s, _d, before, after in obs.cycles]


def words_per_s(obs, scaled: bool) -> float:
    """Median over cycles of words delivered per second under load.

    Closed loop, the rate is the server's speed and is *scaled* to the
    reference host; open loop, it is the schedule's and is not.
    """
    which = cycle_of(obs)
    words = [0] * len(obs.cycles)
    for started, _done, delivered, _failed in obs.requests:
        words[which(started)] += delivered
    rates = []
    for count, (start, drained, _b, _a), scale in zip(words, obs.cycles, factors(obs)):
        rates.append(count / ((drained - start) * (scale if scaled else 1.0)))
    return statistics.median(rates)


def _scaled(obs, samples) -> List[float]:
    """Reference seconds of each (start, end) sample; ``inf`` stays ``inf``."""
    which, scale = cycle_of(obs), factors(obs)
    return [(end - start) * scale[which(start)] for start, end in samples]


def latencies(obs) -> List[float]:
    """From due (open loop) or sent (closed loop) to the answer."""
    return _scaled(
        obs,
        [(started, math.inf if failed else done) for started, done, _w, failed in obs.requests],
    )


def poll_latencies(obs) -> List[float]:
    return _scaled(obs, obs.polls)


def end_to_end(obs, setup_s: float, open_loop: bool) -> Dict[str, Metric]:
    """The seven end-to-end metrics of one untraced window."""
    lat = latencies(obs)
    polls = poll_latencies(obs)
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (obs.peak_rss_mib, "MiB"),
        "words_per_s": (words_per_s(obs, scaled=not open_loop), "1/s"),
        "latency_p50_ms": (_ms(percentile(lat, 50)), "ms"),
        "latency_p95_ms": (_ms(tail_percentile(lat, 95)), "ms"),
        "poll_p50_ms": (_ms(percentile(polls, 50)), "ms"),
        "poll_p95_ms": (_ms(tail_percentile(polls, 95)), "ms"),
    }


def busy_share(obs) -> float:
    """Server CPU seconds per second under load."""
    return (obs.cpu_end - obs.cpu_start) / obs.load_seconds


# ----------------------------------------------------------------------
# Per layer
# ----------------------------------------------------------------------
#: Layer -> the span names whose self time is that layer's.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "framing": ("framing.codec.data", "framing.codec.ctl"),
    "ops": ("ops.dispatch.data", "ops.dispatch.ctl"),
    "gateway.request": ("gateway.request",),
    "gateway.tick": ("gateway.tick",),
    "gateway.stats": ("gateway.stats",),
    "voq.admit": ("voq.admit",),
    "voq.pop": ("voq.pop",),
    "scheduler": ("scheduler.next_frame",),
    "coalesce": ("coalesce",),
    "planes": ("planes.offer", "planes.step"),
    "kernel": ("kernel",),
    "obs": ("obs.hook", "obs.render"),
    "gc": ("gc", "gc.gen2"),
}


def _delta(end: Dict[str, Any], start: Dict[str, Any], *path: str) -> float:
    for key in path:
        end, start = end[key], start[key]
    return float(end - start)


def _batches_routed(stats: Dict[str, Any]) -> float:
    return float(sum(plane.get("batches_routed", 0) for plane in stats["planes"]))


def _rescues(stats: Dict[str, Any]) -> float:
    tenants = stats.get("tenants") or {}
    return float(sum(row["starvation_rescues"] for row in tenants.values()))


def _per(total: float, count: float, scale: float) -> float:
    return total * scale / count if count else 0.0


def layer_metrics(
    spans: Spans,
    client: Spans,
    obs,
    n: int,
) -> Tuple[Dict[str, Metric], List[Tuple[str, float, int]]]:
    """Per-layer metrics of one traced window, and the layer budget rows.

    The budget rows are ``(layer, self seconds, calls)`` for every layer
    with spans in the window; their self seconds over the window's time
    under load are the layer's share of the server.  Times here are as
    measured, not scaled to the reference host.
    """
    t0, t1 = obs.t0, obs.t1
    wall = obs.load_seconds
    start, end = obs.stats_start, obs.stats_end
    frames = _delta(end, start, "delivered_frames")
    words = _delta(end, start, "delivered_words")
    offered = _delta(end, start, "queues", "offered")
    rejected = _delta(end, start, "queues", "rejected")
    scheduled_frames = _delta(end, start, "scheduler", "frames")
    scheduled_words = _delta(end, start, "scheduler", "words")
    batches = _batches_routed(end) - _batches_routed(start)
    cycles = _delta(end, start, "cycle")
    data_requests = sum(1 for r in obs.requests if t0 <= r[1] < t1)

    def self_s(*names: str) -> float:
        return sum(spans.total_self(name, t0, t1) for name in names)

    budget = []
    for layer, names in LAYERS.items():
        calls = sum(spans.calls(name, t0, t1) for name in names)
        if calls:
            budget.append((layer, self_s(*names), calls))
    attributed = sum(seconds for _layer, seconds, _calls in budget)

    kernel_calls = spans.calls("kernel", t0, t1)
    kernel_s = self_s("kernel")
    stats_calls = spans.calls("gateway.stats", t0, t1)
    render_calls = spans.calls("obs.render", t0, t1)
    gc_pause = sum(spans.total_duration(name, t0, t1) for name in ("gc", "gc.gen2"))
    late = [seconds for due, seconds in obs.lateness if t0 <= due < t1]
    data_bytes = client.counts.get("bytes.data", 0.0)
    tracing_s = spans.tracing_cost(
        t0, t1, spans.marks.get("span_cost.call_s", 0.0), spans.marks.get("span_cost.step_s", 0.0)
    )

    metrics: Dict[str, Metric] = {
        "boot.import_s": (spans.marks.get("boot.import_s", 0.0), "s"),
        "boot.gateway_init_s": (spans.marks.get("boot.gateway_init_s", 0.0), "s"),
        "client.codec_us": (
            _per(client.total_self("client.codec.data", t0, t1), data_requests, 1e6), "us"
        ),
        "framing.codec_us": (_per(self_s("framing.codec.data"), data_requests, 1e6), "us"),
        "framing.bytes_per_word": (_per(data_bytes, words, 1.0), "B/word"),
        "ops.self_us": (_per(self_s("ops.dispatch.data"), data_requests, 1e6), "us"),
        "gateway.request_self_us": (_per(self_s("gateway.request"), data_requests, 1e6), "us"),
        "gateway.ticks_per_request": (_per(cycles, data_requests, 1.0), "count"),
        "gateway.tick_self_us_per_frame": (_per(self_s("gateway.tick"), frames, 1e6), "us"),
        "gateway.stats_ms": (
            _per(spans.total_duration("gateway.stats", t0, t1), stats_calls, 1e3), "ms"
        ),
        "voq.admit_ns_per_word": (_per(self_s("voq.admit"), offered, 1e9), "ns"),
        "voq.pop_us_per_frame": (_per(self_s("voq.pop"), frames, 1e6), "us"),
        "voq.rejected_share": (_per(rejected, offered, 1.0), "ratio"),
        "voq.max_depth": (float(end["queues"]["max_depth"]), "count"),
        "voq.starvation_rescues": (_rescues(end) - _rescues(start), "count"),
        "voq.wait_cycles_p50": (float(end["latency_cycles"]["p50"] or 0), "cycles"),
        "voq.wait_cycles_p99": (float(end["latency_cycles"]["p99"] or 0), "cycles"),
        "scheduler.self_us_per_frame": (_per(self_s("scheduler.next_frame"), frames, 1e6), "us"),
        "scheduler.fill": (_per(scheduled_words, scheduled_frames * n, 1.0), "ratio"),
        "coalesce.us_per_frame": (_per(self_s("coalesce"), frames, 1e6), "us"),
        "planes.self_us_per_frame": (
            _per(self_s("planes.offer", "planes.step"), frames, 1e6), "us"
        ),
        "planes.frames_per_call": (_per(frames, batches, 1.0), "count"),
        "kernel.us_per_call": (_per(kernel_s, kernel_calls, 1e6), "us"),
        "kernel.ns_per_line": (_per(kernel_s, frames * n, 1e9), "ns"),
        "kernel.share": (kernel_s / wall, "ratio"),
        "obs.hook_us_per_frame": (_per(self_s("obs.hook"), frames, 1e6), "us"),
        "obs.render_ms": (
            _per(spans.total_duration("obs.render", t0, t1), render_calls, 1e3), "ms"
        ),
        "gc.pause_ms_per_s": (gc_pause * 1e3 / wall, "ms/s"),
        "gc.gen2_per_s": (spans.calls("gc.gen2", t0, t1) / wall, "1/s"),
        "server.busy_share": (busy_share(obs), "ratio"),
        "server.unattributed_share": (1.0 - attributed / wall, "ratio"),
        "client.lateness_p50_ms": (percentile(late, 50) * 1e3 if late else 0.0, "ms"),
        "client.lateness_max_ms": (max(late) * 1e3 if late else 0.0, "ms"),
        "trace.overhead_share": (tracing_s / wall, "ratio"),
    }
    return metrics, budget


def absent_metrics(spans: Spans, open_loop: bool) -> List[str]:
    """Per-layer metrics whose entry point never ran in this workload."""
    absent = []
    for metric, name in (
        ("coalesce.us_per_frame", "coalesce"),
        ("obs.hook_us_per_frame", "obs.hook"),
        ("obs.render_ms", "obs.render"),
    ):
        if not spans.calls(name, -math.inf, math.inf):
            absent.append(metric)
    if not open_loop:
        absent += ["client.lateness_p50_ms", "client.lateness_max_ms"]
    return absent
