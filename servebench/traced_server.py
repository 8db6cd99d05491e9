"""Run ``repro serve`` with timers on its layer entry points.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python servebench/traced_server.py SPANS.npz serve 64 --engine batch ...

Everything after the output path is handed unchanged to
``repro.cli.main``, so the served program is the same one
``python -m repro serve`` runs.  Before that call the wrapper installs a
garbage-collector callback and times its own ``import repro.cli``;
``AsyncGateway.__init__`` and ``GatewayServer.start`` are timed as the
boot of the gateway.  Once the server has started, the layers are
wrapped *by role*, through the public attributes of the gateway and
the server (``voqs``, ``scheduler``, ``planes``, ``observer``,
``instrumentation``) and the modules their objects come from, so the
wrapping follows whichever classes fill those roles.  An entry point
that is not there is recorded as missing, not fatal.

On exit (``repro serve`` returns 130 on SIGINT) the wrapper measures
what one timed call and one timed coroutine step cost in this process
(so the tracing overhead can be estimated from the span count), writes
the spans to ``SPANS.npz`` and exits with the served program's code.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from servebench.spans import SpanRecorder, span_costs  # noqa: E402

#: Ops that read the gateway's state rather than carry words; their
#: spans are kept apart so per-request costs are per *data* request.
CONTROL_OPS = ("ping", "hello", "stats", "metrics")


def instrument(recorder: SpanRecorder, server) -> None:
    """Wrap every layer reachable from a started ``GatewayServer``."""
    gateway = server.gateway
    protocol = sys.modules[type(server).__module__]
    ops = getattr(protocol, "ops", None)
    control_codes = set()
    if ops is not None:
        control_codes = {
            spec.code for name, spec in ops.REGISTRY.items() if name in CONTROL_OPS
        }

    def by_opcode(prefix: str, opcode) -> str:
        return f"{prefix}.ctl" if opcode in control_codes else f"{prefix}.data"

    # framing, as called by the protocol module
    recorder.patch(
        protocol, "encode_frame", lambda a, k: by_opcode("framing.codec", a[0])
    )
    recorder.patch(
        protocol, "decode_body", lambda a, k: by_opcode("framing.codec", a[0].opcode)
    )
    # ops: the dispatch both framings call
    if ops is not None:
        recorder.patch(
            ops,
            "dispatch",
            lambda a, k: "ops.dispatch.ctl"
            if isinstance(a[1], dict) and a[1].get("op") in CONTROL_OPS
            else "ops.dispatch.data",
            is_async=True,
        )
    else:
        recorder.missing.append("protocol.ops")
    # gateway: the request calls, the clock tick and the stats snapshot
    for attr in ("send", "send_with_retry", "send_batch"):
        recorder.patch(gateway, attr, "gateway.request", is_async=True)
    recorder.patch(gateway, "tick", "gateway.tick")
    recorder.patch(gateway, "stats", "gateway.stats")
    # voq
    voqs = getattr(gateway, "voqs", None)
    if voqs is not None:
        recorder.patch(voqs, "admit_batch", "voq.admit")
        recorder.patch(voqs, "admit", "voq.admit")
        recorder.patch(voqs, "pop_heads", "voq.pop")
    else:
        recorder.missing.append("gateway.voqs")
    # scheduler, and frame completion as the scheduler calls it
    scheduler = getattr(gateway, "scheduler", None)
    if scheduler is not None:
        recorder.patch(scheduler, "next_frame", "scheduler.next_frame")
        recorder.patch(
            sys.modules[type(scheduler).__module__], "coalesce_frame", "coalesce"
        )
    else:
        recorder.missing.append("gateway.scheduler")
    # planes, and the routing kernel as each plane calls it
    kernel_modules = set()
    for plane in getattr(gateway, "planes", ()):
        recorder.patch(plane, "offer", "planes.offer")
        recorder.patch(plane, "step", "planes.step")
        backend = getattr(plane, "backend", None)
        if backend is not None:
            recorder.patch(backend, "route_frame_batch", "kernel")
        else:
            kernel_modules.add(type(plane).__module__)
    for module in sorted(kernel_modules):
        recorder.patch(sys.modules[module], "route_frame_batch", "kernel")
    # obs: per-frame hooks and the Prometheus exposition
    observer = getattr(gateway, "observer", None)
    if observer is not None:
        for hook in (
            "on_reject",
            "on_dispatch",
            "on_frame_delivered",
            "on_requeue",
            "on_plane_killed",
        ):
            recorder.patch(observer, hook, "obs.hook")
    instrumentation = getattr(server, "instrumentation", None)
    if instrumentation is not None:
        recorder.patch(instrumentation, "render_prometheus", "obs.render")


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: traced_server.py SPANS.npz serve N [options]", file=sys.stderr)
        return 2
    out_path, serve_argv = argv[0], argv[1:]
    recorder = SpanRecorder()
    recorder.install_gc_callback()
    started = time.perf_counter()
    import repro.cli
    from repro.server import AsyncGateway, GatewayServer

    recorder.marks["boot.import_s"] = time.perf_counter() - started
    recorder.marks["boot.gateway_init_s"] = 0.0

    original_init = AsyncGateway.__init__
    original_start = GatewayServer.start

    def timed_init(self, *args, **kwargs):
        began = time.perf_counter()
        try:
            original_init(self, *args, **kwargs)
        finally:
            recorder.marks["boot.gateway_init_s"] += time.perf_counter() - began

    async def timed_start(self, *args, **kwargs):
        began = time.perf_counter()
        try:
            return await original_start(self, *args, **kwargs)
        finally:
            recorder.marks["boot.gateway_init_s"] += time.perf_counter() - began
            instrument(recorder, self)

    AsyncGateway.__init__ = timed_init
    GatewayServer.start = timed_start
    try:
        code = repro.cli.main(serve_argv)
    finally:
        call_s, step_s = span_costs()
        recorder.marks["span_cost.call_s"] = call_s
        recorder.marks["span_cost.step_s"] = step_s
        recorder.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
