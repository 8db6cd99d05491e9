"""Serving benchmark: drive ``repro serve`` subprocesses over the binary wire.

Run from the repository root::

    python3 servebench/run.py --workload perm_bulk_m6 --seed 1 --seconds 30 --trace 0

The client and every server it starts share one vCPU.  ``--trace 0``
spawns the server three times to time set-up (spawn to first answered
``hello``), keeps the third, offers the workload's load in cycles for a
warm-up and then ``--seconds`` of timed window, checks every answer,
and prints the end-to-end metrics, with times scaled to the reference
host by the speed probed between cycles (``speed.py``).  ``--trace 1``
serves the same load from a server run under ``traced_server.py`` and
prints the per-layer metrics of its window, as measured, with the share
of the server's time the timers themselves cost.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

The workloads, the reasons for them and the metric bounds are recorded
in ``BENCHMARK.json`` at the repository root and in ``README.md`` here.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import math
import os
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from servebench.gate import GateError  # noqa: E402
from servebench.metrics import (  # noqa: E402
    TooFewSamples,
    absent_metrics,
    busy_share,
    end_to_end,
    layer_metrics,
)
from servebench.proc import ServerProcess, cpu_awake  # noqa: E402
from servebench.spans import SpanRecorder, load_spans  # noqa: E402
from servebench.speed import factor, probe  # noqa: E402
from servebench.traced_server import CONTROL_OPS  # noqa: E402
from servebench.workloads import WORKLOADS, Driver  # noqa: E402

#: Where traced runs leave their span dumps (ignored by git).
RUNS = os.path.join(HERE, ".runs")
#: Spawns per untraced run; ``setup_s`` is their median.
SETUP_SPAWNS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


async def _boot(server):
    """Spawn *server* and open the data connection.

    Returns the connection and the set-up time in reference seconds,
    scaled by the host speed probed just before and just after.
    """
    from repro.client import GatewayClient

    before = probe()
    port = await server.spawn()
    client = GatewayClient("127.0.0.1", port)
    await client.connect()
    setup = time.perf_counter() - server.spawned_at
    return client, setup * factor(before, probe())


async def _serve_window(server, driver, seconds, setups=None):
    """Boot *server*, run *driver* against it for *seconds*, stop it."""
    from repro.client import GatewayClient

    clients = []
    try:
        client, setup = await _boot(server)
        clients.append(client)
        if setups is not None:
            setups.append(setup)
        poll = GatewayClient("127.0.0.1", server.port)
        await poll.connect()
        clients.append(poll)
        obs = await driver.run(server, client, poll, seconds)
    finally:
        for client in clients:
            await client.aclose()
        await server.stop()
    return obs


async def _untraced(workload, inputs, seed, seconds):
    setups = []
    for _ in range(SETUP_SPAWNS - 1):
        server = ServerProcess(ROOT, workload.serve_args)
        try:
            client, setup = await _boot(server)
            await client.aclose()
        finally:
            await server.stop()
        setups.append(setup)
    server = ServerProcess(ROOT, workload.serve_args)
    obs = await _serve_window(server, Driver(workload, inputs, seed), seconds, setups)
    metrics = end_to_end(obs, statistics.median(setups), workload.open_loop)
    speeds = sorted(math.sqrt(b * a) for _s, _d, b, a in obs.cycles)
    notes = {
        "server.busy_share": busy_share(obs),
        "setup_s runs": setups,
        "host speed, probe units/s (min, median, max)": [
            round(speeds[0]), round(statistics.median(speeds)), round(speeds[-1])
        ],
    }
    return obs.attempted(), obs.failed(), metrics, notes


def _instrument_client(recorder, obs):
    """Time the client's codec calls and count data frame bytes in *obs*'s window."""
    import repro.client as client_module
    from repro.server.framing import HEADER
    from repro.server.ops import REGISTRY

    control = {REGISTRY[name].code for name in CONTROL_OPS}
    encode, decode = client_module.encode_frame, client_module.decode_body

    def in_window() -> bool:
        return obs.t0 <= time.perf_counter() < obs.t1

    def counted_encode(opcode, body, *args, **kwargs):
        frame = encode(opcode, body, *args, **kwargs)
        if opcode not in control and in_window():
            recorder.count("bytes.data", len(frame))
        return frame

    def counted_decode(header, body):
        if header.opcode not in control and in_window():
            recorder.count("bytes.data", HEADER.size + len(body))
        return decode(header, body)

    def kind(opcode) -> str:
        return "client.codec.ctl" if opcode in control else "client.codec.data"

    client_module.encode_frame = recorder.wrap(lambda a, k: kind(a[0]), counted_encode)
    client_module.decode_body = recorder.wrap(lambda a, k: kind(a[0].opcode), counted_decode)


async def _traced(workload, inputs, seed, seconds):
    os.makedirs(RUNS, exist_ok=True)
    out = os.path.join(RUNS, f"spans-{os.getpid()}.npz")
    driver = Driver(workload, inputs, seed)
    recorder = SpanRecorder()
    _instrument_client(recorder, driver.obs)
    try:
        traced = await _serve_window(
            ServerProcess(ROOT, workload.serve_args, out), driver, seconds
        )
        spans = load_spans(out)
    finally:
        if os.path.exists(out):
            os.remove(out)
    metrics, budget = layer_metrics(spans, recorder.snapshot(), traced, workload.n)
    notes = {
        "absent": absent_metrics(spans, workload.open_loop),
        "missing entry points": spans.missing,
        "budget": budget,
        "load_s": traced.load_seconds,
        "span cost (call, step) us": [
            round(spans.marks.get(key, 0.0) * 1e6, 3)
            for key in ("span_cost.call_s", "span_cost.step_s")
        ],
    }
    return traced.attempted(), traced.failed(), metrics, notes


def _print_table(metrics, notes) -> None:
    absent = set(notes.get("absent", ()))
    for name, (value, unit) in metrics.items():
        shown = "absent" if name in absent else f"{value:.6g} {unit}"
        print(f"  {name:34s} {shown}")
    if "budget" in notes:
        wall = notes["load_s"]
        print("  layer budget (self time / the traced window's time under load):")
        for layer, seconds, calls in sorted(notes["budget"], key=lambda row: -row[1]):
            print(f"    {layer:18s} {seconds / wall:7.1%}  {calls:8d} calls")
        if notes["missing entry points"]:
            print(f"  missing entry points: {', '.join(notes['missing entry points'])}")
    for key, value in notes.items():
        if key not in ("absent", "budget", "load_s", "missing entry points"):
            print(f"  {key}: {value}")


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no repro source tree under {src}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # A server inherits an ignored SIGINT (as from a background job) and
    # could then not be stopped; a handled one is reset to the default.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, args.seconds)
    # One vCPU for the client and (inherited) every server: the probe
    # then reads the speed of the CPU that did the work it scales.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run = _traced if args.trace else _untraced
    awake = cpu_awake() if workload.open_loop else contextlib.nullcontext()
    try:
        with awake:
            attempted, failed, metrics, notes = asyncio.run(
                run(workload, inputs, args.seed, args.seconds)
            )
    except TooFewSamples as error:
        print(f"error: {error}; run longer", file=sys.stderr)
        return 1
    except GateError as error:
        print(f"correctness gate failed: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    if not all(math.isfinite(value) for value, _unit in metrics.values()):
        print("error: a metric is not finite", file=sys.stderr)
        return 1
    print(f"{workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    _print_table(metrics, notes)
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
