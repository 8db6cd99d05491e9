"""The observability layer: registry, tracing, instrumentation, JSON.

Golden-output tests pin the Prometheus text and JSON snapshot formats
exactly — exposition is an external contract (scrapers parse it), so a
formatting drift must fail loudly, not silently reshape dashboards.
"""

import asyncio
import json
import math
import pathlib
import random
import re

import numpy as np
import pytest

from repro.backends import compiled_backend
from repro.exceptions import AdmissionRejectedError
from repro.obs import (
    CYCLE_BUCKETS,
    Counter,
    FrameTrace,
    FrameTracer,
    Gauge,
    GatewayInstrumentation,
    Histogram,
    Registry,
    get_registry,
    set_registry,
)
from repro.obs.snapshot import dump_json, sanitize
from repro.server import AsyncGateway, BackendPlane, GatewayConfig


class TestRegistrySemantics:
    def test_counter_monotonic(self):
        counter = Registry().counter("repro_t_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_counter_sync_mirrors_and_enforces(self):
        counter = Registry().counter("repro_t_total")
        counter.sync(10)
        counter.sync(10)  # no movement is fine
        counter.sync(12)
        assert counter.value == 12
        with pytest.raises(ValueError):
            counter.sync(11)

    def test_gauge_goes_anywhere(self):
        gauge = Registry().gauge("repro_depth")
        gauge.set(5)
        gauge.dec(7)
        gauge.inc(1)
        assert gauge.value == -1

    def test_labels_are_independent_series(self):
        counter = Registry().counter("repro_t_total", labelnames=("plane",))
        counter.labels("0").inc()
        counter.labels("1").inc(2)
        counter.labels(plane="0").inc()  # keyword form, same series
        assert counter.labels("0").value == 2
        assert counter.labels("1").value == 2

    def test_labelled_metric_rejects_bare_instrument_calls(self):
        counter = Registry().counter("repro_t_total", labelnames=("plane",))
        with pytest.raises(ValueError):
            counter.inc()
        with pytest.raises(ValueError):
            counter.labels("0", "1")
        with pytest.raises(ValueError):
            counter.labels(wrong="0")

    def test_declare_is_create_or_return(self):
        registry = Registry()
        first = registry.counter("repro_t_total", labelnames=("a",))
        again = registry.counter("repro_t_total", labelnames=("a",))
        assert first is again
        with pytest.raises(ValueError):
            registry.gauge("repro_t_total")  # type mismatch
        with pytest.raises(ValueError):
            registry.counter("repro_t_total", labelnames=("b",))

    def test_metric_name_validation(self):
        registry = Registry()
        with pytest.raises(ValueError):
            registry.counter("bad name")
        with pytest.raises(ValueError):
            registry.counter("1leading")
        with pytest.raises(ValueError):
            registry.counter("")

    def test_collectors_run_on_every_scrape(self):
        registry = Registry()
        gauge = registry.gauge("repro_live")
        calls = []
        registry.register_collector(lambda: (calls.append(1), gauge.set(len(calls))))
        registry.snapshot()
        registry.render_prometheus()
        assert len(calls) == 2
        assert gauge.value == 2

    def test_global_registry_swap(self):
        fresh = Registry()
        old = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(old)
        assert get_registry() is old


class TestHistogramBucketing:
    def test_observations_land_in_first_fitting_bucket(self):
        hist = Registry().histogram("repro_h_cycles", buckets=(1.0, 4.0, 16.0))
        for value in (0.5, 1.0, 3, 16, 17):
            hist.observe(value)
        child = hist.labels()
        assert child.counts == [2, 1, 1, 1]  # (<=1, <=4, <=16, +Inf)
        assert child.count == 5
        assert child.sum == pytest.approx(37.5)

    def test_bucket_bounds_validated(self):
        registry = Registry()
        with pytest.raises(ValueError):
            registry.histogram("repro_h", buckets=())
        with pytest.raises(ValueError):
            registry.histogram("repro_h", buckets=(1.0, 1.0))

    def test_default_buckets_cover_cycle_range(self):
        hist = Registry().histogram("repro_h_cycles")
        assert hist.bounds == CYCLE_BUCKETS

    def test_observe_many_equals_a_loop_of_observe(self):
        rng = np.random.default_rng(3)
        values = np.concatenate(
            (
                rng.random(200) * 2000,
                rng.integers(0, 40, 100),
                [0.0, 1.0, 1024.0, 1024.5, -3.0, math.inf, math.nan],
            )
        )
        one, many = Registry(), Registry()
        looped = one.histogram("repro_h_cycles")
        batched = many.histogram("repro_h_cycles")
        looped.observe(0.1)
        batched.observe(0.1)
        for value in values:
            looped.observe(value)
        batched.observe_many(values)
        batched.observe_many([])
        assert batched.labels().counts == looped.labels().counts
        assert batched.labels().count == looped.labels().count
        # The sum is added in order, so it matches to the last bit.
        assert np.isnan(looped.labels().sum) and np.isnan(batched.labels().sum)
        finite = values[np.isfinite(values)]
        one, many = Registry(), Registry()
        one.histogram("repro_r_ratio", buckets=(0.25, 0.5))
        for value in finite:
            one.histogram("repro_r_ratio").observe(value / 7)
        many.histogram("repro_r_ratio", buckets=(0.25, 0.5)).observe_many(
            finite / 7
        )
        assert one.render_prometheus() == many.render_prometheus()

    @pytest.mark.parametrize("size", [1, 2, 19, 20, 21, 32])
    def test_observe_many_in_batches_equals_a_loop_of_observe(self, size):
        """Batches of up to 20 values take the per-value loop, larger
        ones numpy; any split matches the loop."""
        rng = np.random.default_rng(size)
        values = np.concatenate(
            (rng.random(60) * 1500, [0.0, 1024.0, -2.5, math.inf, 3.0])
        )
        looped = Registry().histogram("repro_h_cycles").labels()
        batched = Registry().histogram("repro_h_cycles").labels()
        for value in values:
            looped.observe(value)
        for start in range(0, len(values), size):
            batched.observe_many(values[start : start + size])
        assert batched.counts == looped.counts
        assert batched.count == looped.count
        assert batched.sum == looped.sum
        batched.observe_many([math.nan])
        assert batched.counts[-1] == looped.counts[-1] + 1
        assert math.isnan(batched.sum)


class TestGoldenOutputs:
    @pytest.fixture
    def registry(self):
        registry = Registry()
        counter = registry.counter(
            "repro_t_total", "Things done.", labelnames=("kind",)
        )
        counter.labels("a").inc()
        counter.labels("b").inc(2)
        registry.gauge("repro_depth", "Queue depth.").set(3)
        hist = registry.histogram(
            "repro_lat_cycles", "Latency.", buckets=(1.0, 2.0)
        )
        hist.observe(1)
        hist.observe(5)
        return registry

    def test_prometheus_text(self, registry):
        assert registry.render_prometheus() == (
            "# HELP repro_depth Queue depth.\n"
            "# TYPE repro_depth gauge\n"
            "repro_depth 3\n"
            "# HELP repro_lat_cycles Latency.\n"
            "# TYPE repro_lat_cycles histogram\n"
            'repro_lat_cycles_bucket{le="1"} 1\n'
            'repro_lat_cycles_bucket{le="2"} 1\n'
            'repro_lat_cycles_bucket{le="+Inf"} 2\n'
            "repro_lat_cycles_sum 6\n"
            "repro_lat_cycles_count 2\n"
            "# HELP repro_t_total Things done.\n"
            "# TYPE repro_t_total counter\n"
            'repro_t_total{kind="a"} 1\n'
            'repro_t_total{kind="b"} 2\n'
        )

    def test_json_snapshot(self, registry):
        assert registry.snapshot() == {
            "repro_depth": {
                "type": "gauge",
                "help": "Queue depth.",
                "samples": [{"labels": {}, "value": 3.0}],
            },
            "repro_lat_cycles": {
                "type": "histogram",
                "help": "Latency.",
                "samples": [
                    {
                        "labels": {},
                        "buckets": [["1", 1], ["2", 0], ["+Inf", 1]],
                        "sum": 6.0,
                        "count": 2,
                    }
                ],
            },
            "repro_t_total": {
                "type": "counter",
                "help": "Things done.",
                "samples": [
                    {"labels": {"kind": "a"}, "value": 1.0},
                    {"labels": {"kind": "b"}, "value": 2.0},
                ],
            },
        }

    def test_label_escaping(self):
        registry = Registry()
        registry.counter("repro_t_total", labelnames=("k",)).labels(
            'a"b\\c\nd'
        ).inc()
        assert 'k="a\\"b\\\\c\\nd"' in registry.render_prometheus()


class _MisroutesFrom:
    """The compiled BNB backend, except that from its *start*-th call
    on it rolls every routed row by one line, so every word of the
    frames it routes lands on the wrong output."""

    name = "bnb-misroutes"

    def __init__(self, m, start):
        self._bnb = compiled_backend("bnb", m)
        self._start = start
        self._calls = 0

    def route_frame(self, addresses):
        return self.route_frame_batch(addresses[None, :])[0]

    def route_frame_batch(self, addresses):
        self._calls += 1
        sources = self._bnb.route_frame_batch(addresses)
        if self._calls < self._start:
            return sources
        return np.roll(sources, 1, axis=1)


def _tenanted_exposition():
    """Prometheus text of a fixed tenanted run: rejections with
    retries, single sends, starvation rescues and a plane that dies
    with a frame inside, when its backend starts misrouting in its 7th
    cycle of traffic.  Per-process lines (uptime, node id) are
    dropped."""
    rng = random.Random(2024)
    n = 8
    mixes = [
        ("gold", [rng.randrange(n) for _ in range(120)], 6),
        ("bronze", [rng.randrange(n) for _ in range(90)], 6),
        ("gold", [rng.randrange(2) for _ in range(40)], 2),
        ("walkin", [rng.randrange(n) for _ in range(30)], 8),
    ]
    singles = [(rng.randrange(n), ("gold", "bronze")[k % 2]) for k in range(24)]

    async def scenario():
        config = GatewayConfig(
            m=3,
            planes=2,
            queue_capacity=6,
            engine="batch",
            batch_window=1,
            tenants={"gold": 5, "bronze": 2},
            starvation_cycles=3,
        )

        def factory(plane_id, m):
            backend = _MisroutesFrom(m, start=7) if plane_id == 0 else "bnb"
            return BackendPlane(
                plane_id, m, backend=backend, batch_window=config.batch_window
            )

        gateway = AsyncGateway(config, plane_factory=factory)
        instrumentation = GatewayInstrumentation(
            gateway, registry=Registry(), trace_sample_every=3
        ).attach()

        async def batch(tenant, dests, retry, delay):
            for _ in range(delay):
                await asyncio.sleep(0)
            await gateway.send_batch(
                np.array(dests, dtype=np.int64),
                retry_attempts=retry,
                tenant=tenant,
            )

        async def single(dest, tenant, delay):
            for _ in range(delay):
                await asyncio.sleep(0)
            await gateway.send_with_retry(dest, attempts=64, tenant=tenant)

        async with gateway:
            # Every class first queues at every destination in
            # registration order, so no credit tie depends on FIFO
            # creation order.
            await batch("gold", list(range(n)), 0, 0)
            await batch("bronze", list(range(n)), 0, 0)
            await asyncio.gather(
                *(
                    batch(tenant, dests, retry, 1 + k)
                    for k, (tenant, dests, retry) in enumerate(mixes)
                ),
                *(
                    single(dest, tenant, 2 + k % 3)
                    for k, (dest, tenant) in enumerate(singles)
                ),
            )
        return instrumentation.render_prometheus()

    text = asyncio.run(scenario())
    return "\n".join(
        line
        for line in text.splitlines()
        if "uptime" not in line and "node_info" not in line
    ) + "\n"


class TestExpositionParity:
    def test_tenanted_scenario_matches_the_per_word_dataplane(self):
        """Every ``repro_*`` series of a fixed tenanted scenario keeps
        its value: ``prometheus_tenanted.txt`` was rendered by the 2.5.0
        dataplane, and the 2.6.0 one (every plane routes its block in
        the cycle it takes it) reproduces it byte for byte — histogram
        buckets and sums included.  2.8.0 removed the always-zero
        ``repro_plane_in_flight`` gauge, and its 4 lines with it."""
        golden = pathlib.Path(__file__).parent / "data" / "prometheus_tenanted.txt"
        text = _tenanted_exposition()
        assert "repro_tenant_starvation_rescues_total" in text
        # Plane 0 misrouted the block it was handed and died, and the
        # block's words requeued.
        assert 'repro_gateway_plane_kills_total{plane="0"} 1' in text
        requeued = re.search(r"^repro_voq_requeued_total (\d+)$", text, re.M)
        assert requeued and int(requeued.group(1)) > 0
        assert text == golden.read_text()


class TestSnapshotSerialization:
    def test_nan_and_inf_become_null(self):
        np = pytest.importorskip("numpy")
        payload = {
            "nan": float("nan"),
            "inf": float("inf"),
            "npnan": np.float64("nan"),
            "npint": np.int64(7),
            "arr": np.array([1, 2]),
            3: "int-key",
        }
        assert sanitize(payload) == {
            "nan": None,
            "inf": None,
            "npnan": None,
            "npint": 7,
            "arr": [1, 2],
            "3": "int-key",
        }

    def test_dump_json_is_strict(self):
        text = dump_json({"x": float("nan")}, indent=None)
        assert text == '{"x": null}'
        assert json.loads(text) == {"x": None}

    def test_non_serializable_falls_back_to_str(self):
        class Weird:
            def __repr__(self):
                return "<weird>"

        assert sanitize({"w": Weird()}) == {"w": "<weird>"}


class TestFrameTracer:
    @staticmethod
    def _trace(tag, cycle=5, latency=2):
        return FrameTrace(
            tag=tag,
            plane=0,
            words=3,
            fill=0.75,
            enqueued_cycle=cycle - latency,
            delivered_cycle=cycle,
            latency_cycles=latency,
            mode="clean",
            requeues=0,
        )

    def test_stage_timeline_and_latency(self):
        tracer = FrameTracer(sample_every=1)
        tracer.record(self._trace(0, cycle=8, latency=5))
        [record] = tracer.records()
        # A plane routes in one cycle: one stamp besides the enqueue.
        assert "stage_cycles" not in record
        assert "dispatched_cycle" not in record
        assert "coalesced_cycle" not in record
        assert record["enqueued_cycle"] == 3
        assert record["delivered_cycle"] == 8
        assert record["latency_cycles"] == 5
        assert record["mode"] == "clean"

    def test_sampling(self):
        """The instrumentation traces the frames whose tag is a
        multiple of ``sample_every``, wherever they sit in a block:
        windows of 3 frames take tags 0-2, 3-5, ..., 15."""
        gateway = AsyncGateway(GatewayConfig(m=3, planes=1, batch_window=3))
        instr = GatewayInstrumentation(
            gateway, registry=Registry(), trace_sample_every=4
        ).attach()
        for _ in range(16):  # one frame per word
            gateway.voqs.admit(0, gateway.cycle)
        while gateway.voqs.total:
            gateway.tick()
        assert gateway.delivered_frames == 16
        assert instr.tracer.traced_frames == 4  # tags 0, 4, 8, 12
        assert [r["tag"] for r in instr.tracer.records()] == [0, 4, 8, 12]

    def test_ring_buffer_bounds_completed_records(self):
        tracer = FrameTracer(capacity=4, sample_every=1)
        for tag in range(10):
            tracer.record(self._trace(tag))
        assert len(tracer) == 4
        assert [r["tag"] for r in tracer.records()] == [6, 7, 8, 9]
        assert tracer.traced_frames == 10

    def test_snapshot_shape(self):
        tracer = FrameTracer(capacity=8, sample_every=2)
        snap = tracer.snapshot()
        assert snap == {
            "capacity": 8,
            "sample_every": 2,
            "traced_frames": 0,
            "records": [],
        }

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FrameTracer(capacity=0)


def _drive(gateway, words=64, seed=7):
    """Synchronously push random words through and drain (no event loop)."""
    import random

    rng = random.Random(seed)
    pushed = 0
    guard = 0
    while pushed < words and guard < 10_000:
        guard += 1
        try:
            gateway.voqs.admit(rng.randrange(gateway.n), gateway.cycle)
            pushed += 1
        except AdmissionRejectedError:
            pass
        gateway.tick()
    while gateway.voqs.total:
        gateway.tick()
    return pushed


class TestGatewayInstrumentation:
    def test_attach_wires_observer_and_counts_traffic(self):
        gateway = AsyncGateway(GatewayConfig(m=3, planes=1))
        instr = GatewayInstrumentation(
            gateway, registry=Registry(), trace_sample_every=1
        ).attach()
        assert gateway.observer is instr
        pushed = _drive(gateway, words=40)
        snap = instr.metrics_snapshot()
        words_total = sum(
            s["value"] for s in snap["repro_gateway_words_total"]["samples"]
        )
        assert words_total == pushed == gateway.delivered_words
        assert (
            sum(
                s["value"]
                for s in snap["repro_gateway_dispatches_total"]["samples"]
            )
            > 0
        )
        assert snap["repro_voq_accepted_total"]["samples"][0]["value"] == pushed

    def test_traces_follow_the_stage_timeline(self):
        gateway = AsyncGateway(GatewayConfig(m=3, planes=1))
        instr = GatewayInstrumentation(
            gateway, registry=Registry(), trace_sample_every=1
        ).attach()
        _drive(gateway, words=20)
        records = instr.tracer.records()
        assert records
        for record in records:
            # A plane routes and delivers a frame in the cycle it takes
            # it: one stamp after the enqueue, and the frame's worst
            # word waited from its enqueue to that cycle.
            assert "dispatched_cycle" not in record
            assert record["latency_cycles"] == (
                record["delivered_cycle"] - record["enqueued_cycle"]
            )
            assert record["mode"] == "clean"

    def test_metrics_off_gateway_has_no_observer(self):
        gateway = AsyncGateway(GatewayConfig(m=3, planes=1))
        assert gateway.observer is None
        _drive(gateway, words=10)  # no instrumentation, still delivers
        assert gateway.delivered_words == 10

    def test_plane_kill_counts_and_abandons(self, run_async):
        async def scenario():
            config = GatewayConfig(m=3, planes=2)
            gateway = AsyncGateway(config)
            instr = GatewayInstrumentation(
                gateway, registry=Registry(), trace_sample_every=1
            ).attach()
            async with gateway:
                await gateway.send(3)
                gateway.kill_plane(0, reason="test")
                await gateway.send_with_retry(5)
            return instr

        instr = run_async(scenario())
        snap = instr.metrics_snapshot()
        kills = snap["repro_gateway_plane_kills_total"]["samples"]
        assert [(s["labels"]["plane"], s["value"]) for s in kills] == [
            ("0", 1.0)
        ]
        healthy = {
            s["labels"]["plane"]: s["value"]
            for s in snap["repro_plane_healthy"]["samples"]
        }
        assert healthy == {"0": 0.0, "1": 1.0}

    def test_reject_counts_and_retry_after_histogram(self, run_async):
        async def scenario():
            config = GatewayConfig(m=2, planes=1, queue_capacity=1)
            gateway = AsyncGateway(config)
            instr = GatewayInstrumentation(
                gateway, registry=Registry()
            ).attach()
            async with gateway:
                # Fill destination 1's single slot, then send to it with
                # no intervening await: the clock task cannot run in
                # between, so the rejection is deterministic.
                gateway.voqs.admit(1, gateway.cycle)
                with pytest.raises(AdmissionRejectedError):
                    await gateway.send(1)
            return instr

        instr = run_async(scenario())
        snap = instr.metrics_snapshot()
        assert snap["repro_gateway_rejects_total"]["samples"][0]["value"] == 1
        assert (
            snap["repro_gateway_retry_after_cycles"]["samples"][0]["count"]
            == 1
        )

    def test_combined_snapshot_shape(self):
        gateway = AsyncGateway(GatewayConfig(m=3, planes=1))
        instr = GatewayInstrumentation(gateway, registry=Registry()).attach()
        _drive(gateway, words=8)
        snap = instr.snapshot()
        assert set(snap) == {"gateway", "metrics", "traces"}
        assert snap["gateway"]["n"] == 8
        assert "repro_gateway_cycle" in snap["metrics"]
        # The whole thing must survive strict-JSON serialization.
        json.loads(dump_json(snap))

    def test_resilient_plane_service_metrics(self):
        gateway = AsyncGateway(
            GatewayConfig(m=2, planes=1, resilient=True, engine="batch")
        )
        instr = GatewayInstrumentation(gateway, registry=Registry()).attach()
        plane = gateway.planes[0]
        plane.policy.check()  # proactive BIST pass fires the probe hook
        snap = instr.metrics_snapshot()
        probes = snap["repro_service_bist_probes_total"]["samples"]
        assert probes and all(
            s["labels"]["clean"] == "yes" for s in probes
        )
        assert sum(s["value"] for s in probes) > 0
        quarantined = snap["repro_service_quarantined"]["samples"]
        assert [(s["labels"]["plane"], s["value"]) for s in quarantined] == [
            ("0", 0.0)
        ]

    def test_prometheus_render_includes_pull_metrics(self):
        gateway = AsyncGateway(GatewayConfig(m=3, planes=1))
        instr = GatewayInstrumentation(gateway, registry=Registry()).attach()
        _drive(gateway, words=8)
        text = instr.render_prometheus()
        assert "# TYPE repro_gateway_cycle gauge" in text
        assert "repro_scheduler_fill_ratio_mean" in text
        assert 'repro_plane_healthy{plane="0"} 1' in text
