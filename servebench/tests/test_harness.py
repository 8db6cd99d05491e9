"""Self-tests of the benchmark harness (no server needed).

Run from the repository root: ``python3 -m pytest servebench/tests -q``.
"""

import asyncio
import math
import os
import sys
import time

import numpy as np
import pytest

sys.path[:0] = [
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
]

from servebench.gate import GateError, check_batch, check_final_stats, check_unicast  # noqa: E402
from servebench.metrics import (  # noqa: E402
    beyond,
    latencies,
    percentile,
    poll_latencies,
    tail_percentile,
    words_per_s,
)
from servebench.spans import SpanRecorder, parents, self_times, span_costs  # noqa: E402
from servebench.speed import REF_UNITS_PER_S, factor, probe  # noqa: E402
from servebench.workloads import WORKLOADS, Driver, Observations, cycles  # noqa: E402


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def test_self_time_of_synthetic_nested_spans():
    # tick [0, 10) holds pop [1, 3) and kernel [4, 9); kernel holds gc [5, 6).
    # A separate root [12, 13) follows; a span touching its sibling's end
    # ([3, 4) right after pop) is a sibling, not a child.
    start = np.array([0.0, 1.0, 4.0, 5.0, 12.0, 3.0])
    end = np.array([10.0, 3.0, 9.0, 6.0, 13.0, 4.0])
    parent = parents(start, end)
    assert parent.tolist() == [-1, 0, 0, 2, -1, 0]
    assert self_times(start, end, parent).tolist() == [2.0, 2.0, 4.0, 1.0, 1.0, 1.0]


def test_enclosing_span_with_same_start_is_the_parent():
    start = np.array([5.0, 5.0])
    end = np.array([6.0, 9.0])
    assert parents(start, end).tolist() == [1, -1]


def test_recorded_spans_nest_like_the_calls():
    recorder = SpanRecorder()

    def inner():
        return sum(range(1000))

    timed_inner = recorder.wrap("inner", inner)

    def outer():
        return timed_inner() + timed_inner()

    recorder.wrap("outer", outer)()
    spans = recorder.snapshot()
    outer_mask = spans.select("outer")
    inner_mask = spans.select("inner")
    assert spans.calls("outer") == 1 and spans.calls("inner") == 2
    (outer_index,) = np.flatnonzero(outer_mask)
    assert (spans.parent[inner_mask] == outer_index).all()
    duration = spans.end - spans.start
    assert spans.self_time[outer_index] == pytest.approx(
        duration[outer_index] - duration[inner_mask].sum()
    )


def test_async_spans_cover_only_the_steps_not_the_wait():
    recorder = SpanRecorder()

    async def slow():
        await asyncio.sleep(0.05)
        return 7

    timed = recorder.wrap_async("slow", slow)
    assert asyncio.run(timed()) == 7
    spans = recorder.snapshot()
    assert spans.calls("slow") == 2  # call to the sleep, resume to the return
    assert spans.total_duration("slow", -math.inf, math.inf) < 0.04


def test_tracing_cost_counts_calls_and_coroutine_steps_apart():
    recorder = SpanRecorder()

    async def twice():
        await asyncio.sleep(0)
        return 1

    timed_call = recorder.wrap("call", lambda: None)
    timed_steps = recorder.wrap_async("steps", twice)
    timed_call()
    timed_call()
    asyncio.run(timed_steps())
    spans = recorder.snapshot()
    assert spans.steps == ["steps"]
    # two calls at 1 s and two steps at 10 s each
    assert spans.tracing_cost(-math.inf, math.inf, 1.0, 10.0) == 22.0
    call_s, step_s = span_costs(calls=2000, repeats=3)
    assert 0 <= call_s < 1e-4 and 0 <= step_s < 1e-4


def test_missing_entry_point_is_recorded_not_fatal():
    recorder = SpanRecorder()

    class Holder:
        pass

    assert recorder.patch(Holder(), "absent", "x") is False
    assert recorder.missing == ["Holder.absent"]


# ----------------------------------------------------------------------
# Percentiles and the samples-beyond rule
# ----------------------------------------------------------------------
def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 95) == 95
    assert percentile([3.0], 99) == 3.0


def test_failed_requests_lie_beyond_every_percentile():
    values = [1.0] * 90 + [math.inf] * 10
    assert percentile(values, 90) == 1.0
    assert math.isinf(percentile(values, 91))


def test_tail_percentile_needs_ten_samples_beyond():
    assert beyond(100, 90) == 10
    assert tail_percentile(list(range(100)), 90) == 89
    assert beyond(99, 90) == 9
    with pytest.raises(ValueError, match="at least 10"):
        tail_percentile(list(range(99)), 90)
    assert beyond(200, 95) == 10
    with pytest.raises(ValueError):
        tail_percentile(list(range(150)), 95)


# ----------------------------------------------------------------------
# Scaling to the reference host
# ----------------------------------------------------------------------
def test_times_are_scaled_by_the_speed_probed_around_their_cycle():
    ref = REF_UNITS_PER_S
    obs = Observations()
    # Cycle 0 ran at the reference speed, cycle 1 at twice it (probed
    # 1.5x before and 8/3x after: geometric mean 2x).
    obs.cycles = [(0.0, 1.0, ref, ref), (2.0, 3.0, 1.5 * ref, 8 / 3 * ref)]
    obs.requests = [(0.1, 0.3, 100, 0), (0.5, math.inf, 0, 7), (2.1, 2.3, 200, 0)]
    obs.polls = [(0.2, 0.25), (2.5, 2.55)]
    assert factor(1.5 * ref, 8 / 3 * ref) == pytest.approx(2.0)
    # The same 0.2 s round trip is 0.4 reference seconds on the fast host;
    # a failed request stays beyond every percentile.
    assert latencies(obs) == pytest.approx([0.2, math.inf, 0.4])
    assert poll_latencies(obs) == pytest.approx([0.05, 0.1])
    # Closed loop, each cycle did 100 words per reference second ...
    assert words_per_s(obs, scaled=True) == pytest.approx(100.0)
    # ... open loop, the schedule's rate is reported as it ran.
    assert words_per_s(obs, scaled=False) == pytest.approx(150.0)


def test_polls_fall_one_in_each_slot_at_a_seeded_phase():
    workload = WORKLOADS["tenant_hotspot_m8"]
    inputs = workload.inputs(5, 30)
    times = Driver(workload, inputs, 5).poll_times(0.1, 10.0, 11.0)
    assert len(times) == 10
    slots = np.floor((times - 10.0) / 0.1 + 1e-9)
    assert slots.tolist() == list(range(10))
    assert np.array_equal(times, Driver(workload, inputs, 5).poll_times(0.1, 10.0, 11.0))
    assert not np.array_equal(times, Driver(workload, inputs, 6).poll_times(0.1, 10.0, 11.0))


def test_probe_reads_a_positive_speed_and_the_window_is_whole_cycles():
    assert 0 < probe(units=2) < math.inf
    warm, timed = cycles(30)
    assert sum(warm) == pytest.approx(2.0) and len(timed) == 30
    assert sum(cycles(0.3)[1]) == pytest.approx(0.3)


# ----------------------------------------------------------------------
# The correctness gate
# ----------------------------------------------------------------------
def _batch_response(count, rejected=()):
    statuses = np.ones(count, dtype=np.int64)
    statuses[list(rejected)] = 0
    ok = statuses == 1
    return {
        "ok": True,
        "count": count,
        "delivered": int(ok.sum()),
        "rejected": int((~ok).sum()),
        "statuses": statuses,
        "latencies": np.where(ok, 3, -1),
        "frames": np.where(ok, 0, -1),
        "planes": np.where(ok, 0, -1),
        "retry_after": np.where(ok, 0, 32),
        "modes": np.where(ok, 0, -1),
        "mode_table": ["clean"],
    }


def test_gate_accepts_a_full_delivery_and_counts_rejections_as_failed():
    assert check_batch(_batch_response(64), 64) == 0
    assert check_batch(_batch_response(64, rejected=[5, 9]), 64) == 2


def test_gate_rejects_a_dropped_word():
    # The response claims everything landed but one status is 0 ...
    doctored = _batch_response(64)
    doctored["statuses"] = doctored["statuses"].copy()
    doctored["statuses"][17] = 0
    with pytest.raises(GateError):
        check_batch(doctored, 64)
    # ... or the word is missing from the arrays altogether ...
    short = _batch_response(64)
    short["statuses"] = short["statuses"][:-1]
    with pytest.raises(GateError):
        check_batch(short, 64)
    # ... or it is marked undelivered without the rejection hint.
    silent = _batch_response(64, rejected=[3])
    silent["retry_after"] = np.zeros(64, dtype=np.int64)
    with pytest.raises(GateError, match="dropped"):
        check_batch(silent, 64)


def test_gate_rejects_a_wrong_destination():
    check_unicast({"ok": True, "dest": 5}, 5)
    with pytest.raises(GateError):
        check_unicast({"ok": True, "dest": 6}, 5)


def test_a_wrong_unicast_destination_fails_the_run_with_its_own_error():
    # Only the first send is misrouted; it finishes long before the last
    # one, and its error must still be raised as such, not lost with its task.
    class Misrouting:
        async def send(self, dest, payload):
            return {"ok": True, "dest": (dest + 1) % 16 if payload == 0 else dest}

    workload = WORKLOADS["unicast_open_m4"]
    driver = Driver(workload, workload.inputs(1, 1), 1)
    driver._request_error = RuntimeError

    async def run():
        start = time.perf_counter()
        await driver._unicast(Misrouting(), start, start + 0.02, driver.obs)

    with pytest.raises(GateError, match="delivered to"):
        asyncio.run(run())


def _stats(delivered=100, healthy=True, requeued=0, queued=0):
    return {
        "delivered_words": delivered,
        "planes": [{"id": 0, "healthy": healthy}],
        "queues": {"requeued": requeued, "queued": queued},
    }


def test_gate_checks_the_final_server_counters():
    check_final_stats(_stats(), 100)
    for doctored, seen in (
        (_stats(delivered=99), 100),
        (_stats(healthy=False), 100),
        (_stats(requeued=1), 100),
        (_stats(queued=1), 100),
    ):
        with pytest.raises(GateError):
            check_final_stats(doctored, seen)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _flat(inputs):
    return np.concatenate([np.ravel(np.asarray(value)) for value in inputs.values()])


def test_inputs_are_a_function_of_the_seed():
    for workload in WORKLOADS.values():
        first = _flat(workload.inputs(3, 30))
        assert np.array_equal(first, _flat(workload.inputs(3, 30)))
        assert not np.array_equal(first, _flat(workload.inputs(4, 30)))


def test_bulk_requests_are_permutation_bursts():
    workload = WORKLOADS["perm_bulk_m6"]
    for request in workload.inputs(1, 30)[None]:
        rounds = request.reshape(-1, workload.n)
        assert rounds.shape == (128, 64)
        assert (np.sort(rounds, axis=1) == np.arange(64)).all()


def test_hot_mix_sends_most_words_to_the_hot_outputs():
    workload = WORKLOADS["tenant_hotspot_m8"]
    words = np.concatenate(workload.inputs(1, 30)["gold"])
    hot_share = float((words < 32).mean())
    # 70% aimed at the 32 hot outputs, plus their 12.5% of the rest.
    assert hot_share == pytest.approx(0.7 + 0.3 * 0.125, abs=0.02)
