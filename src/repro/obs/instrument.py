"""Wire an :class:`~repro.server.gateway.AsyncGateway` into a registry.

:class:`GatewayInstrumentation` is the one place that knows both sides:
which hooks the dataplane offers and which metrics the catalog
(``docs/observability.md``) promises.  It splits the work by cost:

* **push** — it installs itself as the gateway's *observer* (the
  ``on_*`` methods below, called from ``send``/``tick``/``_resolve``).
  The gateway calls them once per admission round (``on_reject``,
  with the round's retry-after hints) or once per block of frames
  (``on_dispatch``, ``on_frame_delivered``, ``on_requeue``), and each
  touches its instruments with array operations
  (:meth:`~repro.obs.registry.Histogram.observe_many`) — never once
  per word: at m=8 a frame carries 256 words, and a per-word
  histogram observe would cost more than the vector engine's whole
  routing step.
* **pull** — everything the components already count (VOQ admission
  totals, scheduler fill, plane health, a resilient plane's fault-policy
  counters) is copied in by a collector that runs only when somebody
  scrapes.

Construction never mutates the gateway; :meth:`attach` does, and is
explicit so the metrics-off configuration stays byte-identical to the
pre-observability dataplane.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .registry import (
    CYCLE_BUCKETS,
    RATIO_BUCKETS,
    Registry,
    get_registry,
)
from .tracing import FrameTracer

#: Columns of a block's word rows (``repro.server.voq``'s layout).
CYCLE, REQUEUES = 2, 3

__all__ = ["GatewayInstrumentation"]


class GatewayInstrumentation:
    """Metrics + tracing for one gateway; see module docstring."""

    def __init__(
        self,
        gateway,
        registry: Optional[Registry] = None,
        trace_capacity: int = 256,
        trace_sample_every: int = 16,
    ) -> None:
        self.gateway = gateway
        self.registry = registry if registry is not None else get_registry()
        self.tracer = FrameTracer(
            gateway.config.m,
            capacity=trace_capacity,
            sample_every=trace_sample_every,
        )
        self._attached = False
        r = self.registry

        # -- push instruments (observer hooks fill these) ---------------
        self._frames = r.counter(
            "repro_gateway_frames_total",
            "Frames delivered, by plane and delivery mode.",
            labelnames=("plane", "mode"),
        )
        self._words = r.counter(
            "repro_gateway_words_total",
            "Client words delivered, by delivery mode.",
            labelnames=("mode",),
        )
        self._fill = r.histogram(
            "repro_gateway_frame_fill_ratio",
            "Coalesced fill ratio of each delivered frame.",
            buckets=RATIO_BUCKETS,
        )
        self._frame_latency = r.histogram(
            "repro_gateway_frame_latency_cycles",
            "Worst word latency per delivered frame, in gateway cycles.",
            buckets=CYCLE_BUCKETS,
        )
        self._rejects = r.counter(
            "repro_gateway_rejects_total",
            "Words refused at admission (VOQ full or bad destination).",
        )
        self._retry_after = r.histogram(
            "repro_gateway_retry_after_cycles",
            "Retry-after hints handed to rejected senders.",
            buckets=CYCLE_BUCKETS,
        )
        self._dispatches = r.counter(
            "repro_gateway_dispatches_total",
            "Frames offered to each plane.",
            labelnames=("plane",),
        )
        self._requeued = r.counter(
            "repro_gateway_requeued_words_total",
            "Admitted words pushed back to their VOQ by a plane failure.",
        )
        self._kills = r.counter(
            "repro_gateway_plane_kills_total",
            "Planes taken out of service, by plane.",
            labelnames=("plane",),
        )
        self._service_events = r.counter(
            "repro_service_events_total",
            "Resilient-fabric lifecycle events, by plane and event kind.",
            labelnames=("plane", "kind"),
        )
        self._bist_probes = r.counter(
            "repro_service_bist_probes_total",
            "BIST probes routed through resilient planes, by outcome.",
            labelnames=("plane", "clean"),
        )

        # -- pull instruments (the collector fills these) ---------------
        # Node identity rides as a label on the info/uptime pair (the
        # Prometheus join idiom), so a cluster scrape can tell the
        # nodes' series apart without stamping every metric.
        self._node_info = r.gauge(
            "repro_node_info",
            "Static node identity (the value is always 1); join on "
            "'node_id' to attribute a scrape to its cluster node.",
            labelnames=("node_id",),
        )
        self._node_uptime = r.gauge(
            "repro_node_uptime_seconds",
            "Seconds since this node's gateway first started.",
            labelnames=("node_id",),
        )
        self._backend_info = r.gauge(
            "repro_backend_info",
            "Routing backend serving this gateway's planes (the value "
            "is always 1): the arena winner under engine=auto, the "
            "pinned backend otherwise.",
            labelnames=("backend", "m"),
        )
        self._cycle = r.gauge(
            "repro_gateway_cycle", "Current gateway cycle."
        )
        self._accepting = r.gauge(
            "repro_gateway_accepting",
            "1 while the gateway admits new words, else 0.",
        )
        self._latency_q = r.gauge(
            "repro_gateway_latency_cycles_quantile",
            "Delivery latency quantiles over the recent sample window.",
            labelnames=("q",),
        )
        self._voq_counters = {
            field: r.counter(
                f"repro_voq_{field}_total",
                f"Cumulative words {field} at the admission boundary.",
            )
            for field in ("offered", "accepted", "rejected", "requeued")
        }
        self._voq_queued = r.gauge(
            "repro_voq_queued_words", "Words currently queued across all VOQs."
        )
        self._voq_depth_max = r.gauge(
            "repro_voq_depth_max",
            "High-watermark depth of any single VOQ since start.",
        )
        self._sched_frames = r.counter(
            "repro_scheduler_frames_total", "Frames coalesced by the scheduler."
        )
        self._sched_words = r.counter(
            "repro_scheduler_words_total",
            "Client words placed onto frames by the scheduler.",
        )
        self._sched_fill = r.gauge(
            "repro_scheduler_fill_ratio_mean",
            "Mean coalesced fill ratio over all scheduled frames.",
        )
        self._plane_healthy = r.gauge(
            "repro_plane_healthy",
            "1 while the plane serves traffic, 0 once killed.",
            labelnames=("plane",),
        )
        self._plane_in_flight = r.gauge(
            "repro_plane_in_flight",
            "Frames currently inside the plane.",
            labelnames=("plane",),
        )
        self._plane_frames = r.counter(
            "repro_plane_frames_delivered_total",
            "Frames the plane has delivered and verified.",
            labelnames=("plane",),
        )
        self._plane_words = r.counter(
            "repro_plane_words_delivered_total",
            "Client words the plane has delivered.",
            labelnames=("plane",),
        )
        self._service_quarantined = r.gauge(
            "repro_service_quarantined",
            "1 once the plane's primary fabric is quarantined.",
            labelnames=("plane",),
        )
        self._service_retries = r.counter(
            "repro_service_retries_total",
            "Repair passes the plane's resilient fabric has run.",
            labelnames=("plane",),
        )
        self._tenant_weight = r.gauge(
            "repro_tenant_weight",
            "Configured scheduling weight of each QoS tenant class.",
            labelnames=("tenant",),
        )
        self._tenant_queued = r.gauge(
            "repro_tenant_queued_words",
            "Words currently queued across all VOQs, by tenant class.",
            labelnames=("tenant",),
        )
        self._tenant_counters = {
            field: r.counter(
                f"repro_tenant_{field}_total",
                f"Cumulative words {field}, by tenant class.",
                labelnames=("tenant",),
            )
            for field in (
                "offered", "accepted", "rejected", "requeued",
                "served", "delivered",
            )
        }
        self._tenant_rescues = r.counter(
            "repro_tenant_starvation_rescues_total",
            "Head words served by the starvation age override instead "
            "of the weighted pick, by tenant class.",
            labelnames=("tenant",),
        )
        self._tenant_latency_q = r.gauge(
            "repro_tenant_latency_cycles_quantile",
            "Per-tenant delivery latency quantiles over the recent "
            "sample window.",
            labelnames=("tenant", "q"),
        )
        self._trace_frames = r.counter(
            "repro_trace_frames_total", "Frames sampled into the tracer."
        )
        self._trace_retained = r.gauge(
            "repro_trace_retained",
            "Completed trace records currently in the ring buffer.",
        )

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self) -> "GatewayInstrumentation":
        """Install the observer hooks and the scrape-time collector."""
        if self._attached:
            return self
        self._attached = True
        self.gateway.observer = self
        self.registry.register_collector(self._collect)
        for plane in self.gateway.planes:
            policy = getattr(plane, "policy", None)
            if policy is not None:
                policy.registry.add_listener(
                    self._service_listener(plane.plane_id)
                )
                policy.probe_hook = self._probe_hook(plane.plane_id)
        return self

    def _service_listener(self, plane_id: int):
        counter = self._service_events

        def listener(event) -> None:
            counter.labels(str(plane_id), event.kind).inc()

        return listener

    def _probe_hook(self, plane_id: int):
        counter = self._bist_probes

        def hook(_probe, observation) -> None:
            counter.labels(
                str(plane_id), "yes" if observation.clean else "no"
            ).inc()

        return hook

    # ------------------------------------------------------------------
    # Observer hooks (the gateway calls these once per admission round
    # or per block; keep them O(1) per frame, never per word)
    # ------------------------------------------------------------------
    def on_reject(self, hints) -> None:
        """One admission round's rejections, as their retry-after hints."""
        self._rejects.inc(len(hints))
        self._retry_after.observe_many(hints)

    def on_dispatch(self, block, plane, cycle: int) -> None:
        self._dispatches.labels(str(plane.plane_id)).inc(block.k)
        tracer = self.tracer
        every = tracer.sample_every
        n = block.addresses.shape[1]
        for j in range(-block.tag % every, block.k, every):
            rows = block.words[block.frame_slice(j)]
            count = int(block.counts[j])
            tracer.record_dispatch(
                block.tag + j,
                plane.plane_id,
                cycle,
                words=count,
                fill=count / n,
                enqueued_cycle=int(rows[:, CYCLE].min()),
                coalesced_cycle=block.scheduled_cycle,
                requeues=int(rows[:, REQUEUES].max()),
            )

    def on_frame_delivered(self, completion, cycle: int, worst) -> None:
        """One delivered block; *worst* is each frame's worst word
        latency in cycles."""
        block = completion.block
        self._frames.labels(str(completion.plane_id), completion.mode).inc(
            block.k
        )
        self._words.labels(completion.mode).inc(block.size)
        self._fill.observe_many(block.fills)
        self._frame_latency.observe_many(worst)
        tracer = self.tracer
        every = tracer.sample_every
        for j in range(-block.tag % every, block.k, every):
            tracer.record_delivery(
                block.tag + j,
                cycle,
                mode=completion.mode,
                latency_cycles=int(worst[j]),
            )

    def on_requeue(self, plane, blocks) -> None:
        self._requeued.inc(sum(block.size for block in blocks))

    def on_plane_killed(self, plane) -> None:
        self._kills.labels(str(plane.plane_id)).inc()
        self.tracer.abandon_plane(plane.plane_id)

    # ------------------------------------------------------------------
    # The collector (runs at scrape time only)
    # ------------------------------------------------------------------
    def _collect(self) -> None:
        gateway = self.gateway
        node = str(gateway.node_id)
        self._node_info.labels(node).set(1)
        self._node_uptime.labels(node).set(gateway.uptime_seconds)
        self._backend_info.labels(
            str(getattr(gateway, "backend_name", "bnb")),
            str(gateway.config.m),
        ).set(1)
        self._cycle.set(gateway.cycle)
        self._accepting.set(1 if gateway._accepting else 0)
        quantiles = gateway._quantiles(gateway._latencies)
        for q in ("p50", "p99", "max"):
            value = quantiles[q]
            if value is not None:
                self._latency_q.labels(q).set(value)
        voqs = gateway.voqs.snapshot()
        for field, counter in self._voq_counters.items():
            counter.sync(voqs[field])
        self._voq_queued.set(voqs["queued"])
        self._voq_depth_max.set(voqs["max_depth"])
        sched = gateway.scheduler.snapshot()
        self._sched_frames.sync(sched["frames"])
        self._sched_words.sync(sched["words"])
        self._sched_fill.set(sched["mean_fill"])
        for plane in gateway.planes:
            label = str(plane.plane_id)
            self._plane_healthy.labels(label).set(1 if plane.healthy else 0)
            self._plane_in_flight.labels(label).set(plane.in_flight)
            self._plane_frames.labels(label).sync(plane.frames_delivered)
            self._plane_words.labels(label).sync(plane.words_delivered)
            policy = getattr(plane, "policy", None)
            if policy is not None:
                self._service_quarantined.labels(label).set(
                    1 if policy.registry.is_quarantined else 0
                )
                self._service_retries.labels(label).sync(
                    policy.counters.retries
                )
        tenants = getattr(gateway, "tenant_snapshot", lambda: None)()
        if tenants is not None:
            for tenant, row in tenants.items():
                self._tenant_weight.labels(tenant).set(row["weight"])
                self._tenant_queued.labels(tenant).set(row["queued"])
                for field, counter in self._tenant_counters.items():
                    counter.labels(tenant).sync(row[field])
                self._tenant_rescues.labels(tenant).sync(
                    row["starvation_rescues"]
                )
                latency = row["latency_cycles"]
                for q in ("p50", "p99", "max"):
                    value = latency[q]
                    if value is not None:
                        self._tenant_latency_q.labels(tenant, q).set(value)
        self._trace_frames.sync(self.tracer.traced_frames)
        self._trace_retained.set(len(self.tracer))

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        return self.registry.render_prometheus()

    def metrics_snapshot(self) -> Dict[str, Any]:
        return self.registry.snapshot()

    def snapshot(self) -> Dict[str, Any]:
        """The combined JSON payload every CLI/wire surface exposes."""
        return {
            "gateway": self.gateway.stats(),
            "metrics": self.metrics_snapshot(),
            "traces": self.tracer.snapshot(),
        }
