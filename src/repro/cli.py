"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``route``    route a (seeded) random permutation through a chosen network
``verify``   run the Theorem-2 verification harness
``tables``   print the paper's Table 1 and Table 2 at a given size
``figures``  print the ASCII renderings of Figs. 1-5
``report``   print the full paper-vs-measured experiments report
``faults``   BIST schedule, fault localization and the resilient service
``serve``    host the async traffic gateway (TCP JSON-lines, or --demo)
``cluster``  run a sharded multi-node gateway cluster with failover
``stats``    scrape a running gateway, or one-shot an in-process snapshot
``replay``   replay a traffic scenario or recorded trace, gate on SLOs

Every command writes plain text to stdout and exits non-zero on
failure, so the CLI is scriptable; ``route``/``verify``/``serve`` take
``--json`` for machine-readable output (all JSON surfaces share the
:func:`repro.obs.snapshot.dump_json` serializer, so numeric formatting
and NaN handling are identical everywhere).  Library failures
(:class:`~repro.exceptions.ReproError`) exit with code 2 and a
one-line ``error:`` message on stderr — never a traceback; Ctrl-C
exits 130 cleanly; anything else escaping is a genuine bug and is
allowed to crash loudly.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List, Optional

from .analysis.tables import render_table1, render_table2
from .analysis.verification import ROUTERS, verify_router
from .bits import require_power_of_two
from .exceptions import FaultError, InputError, ReproError
from .permutations.generators import random_permutation

__all__ = ["main", "build_parser"]


def _backend_choices() -> List[str]:
    """Registered backend names plus ``auto`` — the single source the
    ``route --backend`` choices derive from, so the argparse surface can
    never drift from the backend registry."""
    from .backends import backend_names

    return backend_names() + ["auto"]


def build_parser() -> argparse.ArgumentParser:
    # Every subcommand's --engine choices are the engines GatewayConfig
    # accepts, so no flag can drift from the gateway.
    from .server import engine_names

    parser = argparse.ArgumentParser(
        prog="repro",
        description="BNB self-routing permutation network (Lee & Lu, ICDCS 1991)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    route = sub.add_parser("route", help="route one random permutation")
    route.add_argument("n", type=int, help="network size (power of two)")
    route.add_argument("--seed", type=int, default=0)
    route.add_argument(
        "--network", choices=sorted(ROUTERS), default="bnb"
    )
    route.add_argument(
        "--backend",
        choices=_backend_choices(),
        default=None,
        help="route through a registered compiled backend instead of "
        "--network ('auto' runs the arena calibration and picks the "
        "measured-fastest; see docs/backends.md)",
    )
    route.add_argument(
        "--json", action="store_true", help="emit a JSON object, not prose"
    )

    verify = sub.add_parser("verify", help="verify permutation delivery")
    verify.add_argument("n", type=int)
    verify.add_argument("--network", choices=sorted(ROUTERS), default="bnb")
    verify.add_argument(
        "--mode", choices=["auto", "exhaustive", "sampled"], default="auto"
    )
    verify.add_argument("--samples", type=int, default=200)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--json", action="store_true", help="emit a JSON object, not prose"
    )

    tables = sub.add_parser("tables", help="print Tables 1 and 2")
    tables.add_argument("n", type=int)
    tables.add_argument("--data-width", type=int, default=0, dest="w")

    figures = sub.add_parser("figures", help="print Figs. 1-5 renderings")
    figures.add_argument("--m", type=int, default=3)

    sub.add_parser("report", help="print the experiments report")

    faults = sub.add_parser(
        "faults",
        help="run the resilient fabric: BIST probes, localization, failover",
    )
    faults.add_argument(
        "n",
        type=int,
        nargs="?",
        default=None,
        help="network size (power of two; omit when using --connect)",
    )
    faults.add_argument(
        "--stuck",
        metavar="I,L,J,BOX,SW",
        default=None,
        help="inject a stuck switch at this coordinate "
        "(main stage, nested, nested stage, box, switch)",
    )
    faults.add_argument(
        "--stuck-value", type=int, choices=(0, 1), default=1
    )
    faults.add_argument("--batches", type=int, default=3)
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument(
        "--engine",
        choices=("object", "vector"),
        default="object",
        help="run the resilient service on the reference object fabric "
        "or on the compiled kernels (the serving planes' fault policy)",
    )
    faults.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="smoke-test a running 'repro serve --resilient' gateway: "
        "inject the fault over the wire, drive traffic, and verify the "
        "plane quarantines while delivery continues",
    )
    faults.add_argument(
        "--plane",
        type=int,
        default=0,
        help="gateway plane to inject into (with --connect)",
    )
    faults.add_argument(
        "--words",
        type=int,
        default=256,
        help="traffic words to drive through the gateway (with --connect)",
    )
    faults.add_argument(
        "--report",
        action="store_true",
        help="print the fault-tolerance markdown report instead",
    )

    serve = sub.add_parser(
        "serve",
        help="host the async traffic gateway over the BNB fabric",
    )
    serve.add_argument("n", type=int, help="network size (power of two)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="0 picks a free port"
    )
    serve.add_argument(
        "--planes", type=int, default=1, help="fabric planes in the pool"
    )
    serve.add_argument(
        "--capacity", type=int, default=32, help="per-destination queue bound"
    )
    serve.add_argument(
        "--resilient",
        action="store_true",
        help="give each plane a fault policy: verify, retry, diagnose "
        "with BIST and fail over to a Benes spare (engines whose backend "
        "supports fault masks: batch, bnb)",
    )
    serve.add_argument(
        "--engine",
        choices=engine_names(),
        default="batch",
        help="routing backend of every plane: batch (the compiled BNB "
        "dataplane, backend bnb), 'auto' to calibrate the backend arena "
        "at boot and serve the measured-fastest registered backend, or "
        "a backend name to pin one (bnb-object is the reference object "
        "model)",
    )
    serve.add_argument(
        "--demo",
        type=int,
        metavar="WORDS",
        default=None,
        help="skip the socket: serve WORDS synthetic words in-process, "
        "print the stats and exit",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--json", action="store_true", help="emit stats as JSON (with --demo)"
    )
    serve.add_argument(
        "--metrics",
        action="store_true",
        help="instrument the gateway: enables the 'metrics' wire op, "
        "GET /metrics scrapes, and frame tracing",
    )
    serve.add_argument(
        "--trace-sample",
        type=int,
        default=16,
        metavar="K",
        help="trace every K-th frame (with --metrics; 1 traces all)",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve for SECONDS, then print a final snapshot and exit "
        "instead of running until Ctrl-C",
    )
    serve.add_argument(
        "--node-id",
        default=None,
        metavar="ID",
        help="stable identity reported in stats and on exported metrics "
        "(defaults to gw-<pid>; the cluster supervisor sets node-K names)",
    )
    serve.add_argument(
        "--tenants",
        metavar="SPEC",
        default=None,
        help="QoS classes as 'name:weight,...' (e.g. gold:8,bronze:1); "
        "enables the deficit-weighted per-tenant scheduler in the "
        "admission path (see docs/traffic.md)",
    )
    serve.add_argument(
        "--starvation-cycles",
        type=int,
        default=1024,
        metavar="C",
        help="with --tenants: serve a queue head that is older than the "
        "scheduler's weighted pick by more than C cycles first",
    )

    replay = sub.add_parser(
        "replay",
        help="replay a traffic scenario or recorded trace through a "
        "gateway and gate on per-tenant latency SLOs",
    )
    replay.add_argument(
        "n",
        type=int,
        nargs="?",
        default=None,
        help="network size (power of two) for the in-process gateway "
        "(omit when using --connect)",
    )
    replay.add_argument(
        "--scenario",
        default="mixed",
        metavar="NAME",
        help="built-in scenario to synthesize (uniform, hotspot, "
        "multicast, tenants, mixed; see docs/traffic.md)",
    )
    replay.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="replay a recorded trace document instead of synthesizing "
        "--scenario",
    )
    replay.add_argument(
        "--events",
        type=int,
        default=1024,
        help="events to synthesize (ignored with --trace)",
    )
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument(
        "--engine",
        choices=engine_names(),
        default="batch",
        help="plane engine for the in-process gateway",
    )
    replay.add_argument(
        "--planes", type=int, default=1, help="fabric planes in the pool"
    )
    replay.add_argument(
        "--capacity", type=int, default=64,
        help="per-destination queue bound",
    )
    replay.add_argument(
        "--burst",
        type=int,
        default=32,
        help="words per send_batch burst; small bursts interleave the "
        "tenant classes within each queue (see docs/traffic.md)",
    )
    replay.add_argument(
        "--retry",
        type=int,
        default=64,
        metavar="ATTEMPTS",
        help="re-admission rounds per burst under backpressure",
    )
    replay.add_argument(
        "--starvation-cycles",
        type=int,
        default=1024,
        metavar="C",
        help="starvation-rescue age bound for the tenant scheduler",
    )
    replay.add_argument(
        "--save-trace",
        metavar="FILE",
        default=None,
        help="save the replayed trace document for later exact replays",
    )
    replay.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="replay against a running 'repro serve' gateway over the "
        "wire instead of an in-process fabric",
    )
    replay.add_argument(
        "--slo-p50",
        type=int,
        default=None,
        metavar="CYCLES",
        help="fail (exit 1) if any tenant's p50 latency exceeds CYCLES",
    )
    replay.add_argument(
        "--slo-p99",
        type=int,
        default=None,
        metavar="CYCLES",
        help="fail (exit 1) if any tenant's p99 latency exceeds CYCLES",
    )
    replay.add_argument(
        "--require-delivery",
        action="store_true",
        help="fail (exit 1) if any admitted word went undelivered "
        "(the no-tenant-starves gate)",
    )
    replay.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )

    cluster = sub.add_parser(
        "cluster",
        help="run a sharded multi-node gateway cluster with failover",
    )
    cluster.add_argument(
        "n",
        type=int,
        help="per-node network size (power of two); the cluster serves "
        "a global destination space of nodes*n lines",
    )
    cluster.add_argument(
        "--nodes", type=int, default=3, metavar="K",
        help="gateway nodes in the cluster",
    )
    cluster.add_argument(
        "--engine",
        choices=engine_names(),
        default="batch",
        help="plane engine for every node",
    )
    cluster.add_argument(
        "--capacity", type=int, default=256,
        help="per-destination queue bound on every node",
    )
    cluster.add_argument(
        "--smoke",
        type=int,
        metavar="WORDS",
        default=None,
        help="skip serving: soak WORDS through an in-process cluster, "
        "verify full delivery, print the accounting and exit",
    )
    cluster.add_argument(
        "--kill",
        type=int,
        choices=(0, 1),
        default=0,
        help="with --smoke: kill one node mid-run and require the "
        "cluster to reshard and still deliver every word",
    )
    cluster.add_argument(
        "--burst", type=int, default=4096,
        help="words per send_batch burst (with --smoke)",
    )
    cluster.add_argument(
        "--in-flight", type=int, default=4, metavar="W",
        help="concurrent burst senders (with --smoke)",
    )
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serving mode: run the cluster for SECONDS then exit "
        "instead of running until Ctrl-C",
    )
    cluster.add_argument(
        "--json", action="store_true",
        help="emit the smoke accounting (or cluster state) as JSON",
    )

    stats = sub.add_parser(
        "stats",
        help="telemetry snapshot: scrape a running gateway or run one-shot",
    )
    stats.add_argument(
        "n",
        type=int,
        nargs="?",
        default=None,
        help="network size for a one-shot in-process snapshot "
        "(omit when using --connect)",
    )
    stats.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="scrape a running 'repro serve --metrics' gateway over TCP",
    )
    stats.add_argument(
        "--words",
        type=int,
        default=256,
        help="synthetic words to drive in one-shot mode",
    )
    stats.add_argument(
        "--engine",
        choices=engine_names(),
        default="batch",
        help="plane engine for one-shot mode ('auto' or a registered "
        "backend name serves the arena path; see docs/backends.md)",
    )
    stats.add_argument(
        "--trace-sample", type=int, default=16, metavar="K",
        help="trace every K-th frame in one-shot mode (1 traces all)",
    )
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument(
        "--format",
        choices=("json", "prometheus"),
        default="json",
        help="json: the combined snapshot; prometheus: the text exposition",
    )
    return parser


def _command_route(args: argparse.Namespace) -> int:
    require_power_of_two(args.n, "network size")
    pi = random_permutation(args.n, rng=args.seed)
    m = args.n.bit_length() - 1
    backend_used = None
    if args.backend is not None:
        # The registered-backend path: --backend overrides --network,
        # and 'auto' asks the arena for the measured-fastest engine.
        import numpy as np

        from .backends import compiled_backend, select_backend

        backend_used = args.backend
        if backend_used == "auto":
            backend_used = select_backend(m, workload="single").backend
        engine = compiled_backend(backend_used, m)
        request = np.array(pi.to_list(), dtype=np.int64)
        sources = engine.route_frame(request)
        arrived = request[sources].tolist()
    else:
        route = ROUTERS[args.network](m)
        arrived = [word.address for word in route(pi.to_list())]
    delivered = arrived == list(range(args.n))
    if args.json:
        from .obs.snapshot import dump_json

        print(
            dump_json(
                {
                    "network": args.network,
                    "engine": "object" if backend_used is None else "backend",
                    "backend": backend_used,
                    "n": args.n,
                    "seed": args.seed,
                    "request": pi.to_list(),
                    "arrived": arrived,
                    "delivered": delivered,
                },
                indent=None,
            )
        )
    else:
        if backend_used is not None:
            label = f"backend {backend_used}"
            if args.backend == "auto":
                label += " (arena winner)"
        else:
            label = args.network
        print(f"network : {label} (N={args.n})")
        print(f"request : {pi.to_list()}")
        print(f"arrived : {arrived}")
        print(f"delivered: {delivered}")
    return 0 if delivered else 1


def _command_verify(args: argparse.Namespace) -> int:
    report = verify_router(
        args.network, args.n, mode=args.mode, samples=args.samples, seed=args.seed
    )
    if args.json:
        print(
            json.dumps(
                {
                    "router": report.router,
                    "n": report.n,
                    "mode": report.mode,
                    "attempted": report.attempted,
                    "delivered": report.delivered,
                    "all_delivered": report.all_delivered,
                    "failures": [
                        failure.to_list() for failure in report.failures
                    ],
                }
            )
        )
    else:
        print(report.summary())
    return 0 if report.all_delivered else 1


def _command_tables(args: argparse.Namespace) -> int:
    print(render_table1(args.n, w=args.w))
    print()
    print(render_table2(args.n))
    return 0


def _command_figures(args: argparse.Namespace) -> int:
    from .viz import (
        render_bnb_profile,
        render_function_node,
        render_gbn,
        render_splitter,
    )

    print(render_gbn(args.m))
    print()
    print(render_bnb_profile(args.m))
    print()
    print(render_splitter(min(args.m, 3)))
    print()
    print(render_function_node())
    return 0


def _command_report(_args: argparse.Namespace) -> int:
    from .viz import experiments_report

    print(experiments_report())
    return 0


def _parse_coordinate(text: str):
    from .faults import SwitchCoordinate

    parts = text.split(",")
    if len(parts) != 5:
        raise FaultError(
            f"--stuck takes five comma-separated integers "
            f"(main stage, nested, nested stage, box, switch), got {text!r}"
        )
    try:
        fields = [int(part) for part in parts]
    except ValueError:
        raise FaultError(f"--stuck fields must be integers, got {text!r}")
    return SwitchCoordinate(*fields)


def _faults_connect(args: argparse.Namespace) -> int:
    """Live smoke against a running ``repro serve --resilient`` gateway.

    Injects one stuck control bit over the wire, drives traffic at the
    gateway, and succeeds (exit 0) only when the faulty plane walks the
    whole lifecycle — at least one non-clean delivery (``degraded`` or
    ``failover``) followed by ``service_state == "quarantined"`` — with
    every driven word still delivered.  Speaks the binary framing
    through :class:`repro.client.GatewayClient`.
    """
    import asyncio

    from .client import GatewayClient
    from .exceptions import GatewayRequestError, InputError

    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        raise InputError(f"--connect takes HOST:PORT, got {args.connect!r}")

    async def drill() -> int:
        try:
            client = await GatewayClient(host, int(port_text)).connect()
        except (OSError, ConnectionError) as error:
            raise InputError(
                f"cannot reach {args.connect}: {error}"
            ) from error
        try:
            try:
                stats = await client.stats()
            except GatewayRequestError as error:
                print(
                    f"error: stats failed: {error.response}", file=sys.stderr
                )
                return 2
            n = stats["stats"]["n"]
            m = n.bit_length() - 1
            planes = stats["stats"]["planes"]
            if not (0 <= args.plane < len(planes)):
                raise InputError(
                    f"--plane {args.plane} out of range; the gateway has "
                    f"{len(planes)} plane(s)"
                )
            if "service_state" not in planes[args.plane]:
                print(
                    f"error: plane {args.plane} is not resilient "
                    "(start the server with 'repro serve N --resilient')",
                    file=sys.stderr,
                )
                return 2
            if args.stuck is not None:
                coordinate = _parse_coordinate(args.stuck)
            else:
                from .faults import SwitchCoordinate

                coordinate = SwitchCoordinate(m, 0, 0, 0, 0)
            try:
                injected = await client.inject(
                    args.plane,
                    [
                        coordinate.main_stage,
                        coordinate.nested,
                        coordinate.nested_stage,
                        coordinate.box,
                        coordinate.switch,
                    ],
                    args.stuck_value,
                )
            except GatewayRequestError as error:
                print(
                    f"error: injection failed: {error.response}",
                    file=sys.stderr,
                )
                return 2
            print(
                f"injected : stuck-at-{args.stuck_value} at ({coordinate}) "
                f"into plane {args.plane} of {args.connect} "
                f"(backend {injected['plane']['backend']})"
            )
            modes: dict = {}
            delivered = 0
            for index in range(args.words):
                try:
                    receipt = await client.send(
                        index % n, payload=index, server_retry=True
                    )
                except GatewayRequestError as error:
                    print(
                        f"error: send {index} failed: {error.response}",
                        file=sys.stderr,
                    )
                    return 1
                delivered += 1
                modes[receipt["mode"]] = modes.get(receipt["mode"], 0) + 1
            stats = await client.stats()
            state = stats["stats"]["planes"][args.plane].get("service_state")
            mode_note = ", ".join(
                f"{mode}={count}" for mode, count in sorted(modes.items())
            )
            print(
                f"traffic  : {delivered}/{args.words} delivered ({mode_note})"
            )
            print(f"plane {args.plane}  : service_state={state}")
            degraded = sum(
                count for mode, count in modes.items() if mode != "clean"
            )
            if delivered < args.words:
                return 1
            if degraded == 0:
                print(
                    "error: the injected fault never degraded a delivery; "
                    "drive more --words or pick a --stuck the traffic "
                    "exercises",
                    file=sys.stderr,
                )
                return 1
            if state != "quarantined":
                print(
                    "error: the faulty plane never reached quarantine; "
                    f"it is still {state!r}",
                    file=sys.stderr,
                )
                return 1
            print(
                "verdict  : degraded, quarantined, and still delivering — ok"
            )
            return 0
        finally:
            await client.aclose()

    return asyncio.run(drill())


def _command_faults(args: argparse.Namespace) -> int:
    if args.connect is not None:
        return _faults_connect(args)
    if args.n is None:
        from .exceptions import InputError

        raise InputError(
            "faults needs a network size, or --connect HOST:PORT to "
            "smoke-test a running gateway"
        )
    require_power_of_two(args.n, "network size")
    m = args.n.bit_length() - 1
    if args.report:
        from .viz import fault_tolerance_report

        print(fault_tolerance_report(m))
        return 0

    from .faults import (
        enumerate_switch_coordinates,
        fault_mask_for,
        shared_bist_schedule,
    )
    from .service import FaultPolicy, HealthMonitor, ResilientFabric

    schedule = shared_bist_schedule(m)
    fault_mask = None
    if args.stuck is not None:
        coordinate = _parse_coordinate(args.stuck)
        if coordinate not in enumerate_switch_coordinates(m):
            raise FaultError(
                f"{coordinate} is not a switch of the N={args.n} BNB network"
            )
        fault_mask = fault_mask_for(m, [(coordinate, args.stuck_value)])
        print(
            f"injected : stuck-at-{args.stuck_value} at "
            f"({args.stuck}) in the primary plane"
        )
    if args.engine == "vector":
        service = FaultPolicy(m, mask=fault_mask, schedule=schedule)
        submit = service.submit
    else:
        service = ResilientFabric(m, mask=fault_mask, schedule=schedule)

        def submit(addresses, tag):
            result = service.submit(addresses, tag=tag)
            return result.mode, result.retries

    monitor = HealthMonitor(service.registry)
    for index in range(args.batches):
        pi = random_permutation(args.n, rng=args.seed + index)
        mode, retries = submit(pi.to_list(), f"batch-{index}")
        print(f"batch {index}  : mode={mode} retries={retries}")
        if index == 0 and not service.registry.is_quarantined:
            service.check(tag="scheduled-bist")
    print()
    print(service.summary())
    print()
    print("event log:")
    print(monitor.render())
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio
    import random

    require_power_of_two(args.n, "network size")
    m = args.n.bit_length() - 1

    from .server import AsyncGateway, GatewayServer

    tenants = None
    if args.tenants:
        from .traffic import parse_tenant_spec

        tenants = parse_tenant_spec(args.tenants)
    config = _gateway_config(
        m=m,
        planes=args.planes,
        queue_capacity=args.capacity,
        resilient=args.resilient,
        engine=args.engine,
        node_id=args.node_id,
        tenants=tenants,
        starvation_cycles=args.starvation_cycles,
    )

    def _instrument(gateway):
        """Attach telemetry when asked; ``None`` keeps the hot path bare."""
        if not args.metrics:
            return None
        from .obs import GatewayInstrumentation, Registry

        return GatewayInstrumentation(
            gateway,
            registry=Registry(),
            trace_sample_every=args.trace_sample,
        ).attach()

    async def _demo(words: int) -> dict:
        rng = random.Random(args.seed)
        async with AsyncGateway(config) as gateway:
            instrumentation = _instrument(gateway)
            receipts = await asyncio.gather(
                *(
                    gateway.send_with_retry(
                        rng.randrange(args.n), payload=index
                    )
                    for index in range(words)
                )
            )
            assert all(
                receipt.payload == index
                for index, receipt in enumerate(receipts)
            )
            if instrumentation is not None:
                return instrumentation.snapshot()
            # Metrics off: the bare stats dict, exactly as before the
            # observability layer existed.
            return gateway.stats()

    async def _serve() -> None:
        async with AsyncGateway(config) as gateway:
            instrumentation = _instrument(gateway)
            async with GatewayServer(
                gateway,
                host=args.host,
                port=args.port,
                instrumentation=instrumentation,
            ) as server:
                metrics_note = ", metrics on" if instrumentation else ""
                stop_note = (
                    f"{args.duration:g}s run"
                    if args.duration is not None
                    else "Ctrl-C stops"
                )
                print(
                    f"serving N={args.n} on {args.host}:{server.port} "
                    f"({args.planes} plane(s), capacity {args.capacity}"
                    f"{', resilient' if args.resilient else ''}"
                    f", engine {config.engine}{metrics_note}) — {stop_note}"
                )
                sys.stdout.flush()
                if args.duration is None:
                    await server.serve_forever()
                else:
                    try:
                        await asyncio.wait_for(
                            server.serve_forever(), timeout=args.duration
                        )
                    except asyncio.TimeoutError:
                        pass
                    _print_snapshot(
                        instrumentation.snapshot()
                        if instrumentation is not None
                        else gateway.stats(),
                        as_json=True,
                    )

    def _print_snapshot(snapshot: dict, as_json: bool) -> None:
        from .obs.snapshot import dump_json

        if as_json:
            print(dump_json(snapshot))
            return
        # With --metrics the snapshot nests the plain stats under
        # "gateway"; without, it *is* the plain stats.
        stats = snapshot.get("gateway", snapshot)
        queues = stats["queues"]
        latency = stats["latency_cycles"]
        print(f"gateway  : N={stats['n']} planes={len(stats['planes'])}")
        print(
            f"traffic  : {queues['offered']} offered, "
            f"{queues['accepted']} accepted, "
            f"{queues['rejected']} rejected"
        )
        print(
            f"frames   : {stats['delivered_frames']} delivered, "
            f"mean fill {stats['scheduler']['mean_fill']:.3f}"
        )
        print(
            f"latency  : p50={latency['p50']} p99={latency['p99']} "
            f"cycles (over {latency['samples']} words)"
        )
        if "traces" in snapshot:
            traces = snapshot["traces"]
            print(
                f"traces   : {traces['traced_frames']} frames traced "
                f"(1 in {traces['sample_every']}), "
                f"{len(traces['records'])} retained"
            )

    if args.demo is not None:
        snapshot = asyncio.run(_demo(args.demo))
        _print_snapshot(snapshot, as_json=args.json)
        return 0
    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\ninterrupted — gateway drained and closed", file=sys.stderr)
        return 130
    return 0


def _command_cluster(args: argparse.Namespace) -> int:
    """``repro cluster``: a sharded multi-node gateway deployment.

    Two modes: ``--smoke WORDS`` runs the in-process soak harness
    (optionally killing one node mid-run with ``--kill 1``) and exits
    non-zero unless every word was delivered with zero misdeliveries;
    without it, the command spawns ``--nodes`` real ``repro serve``
    processes, pushes the shard map, and runs the health loop until
    Ctrl-C or ``--duration``.
    """
    import asyncio

    from .exceptions import InputError

    require_power_of_two(args.n, "per-node network size")
    m = args.n.bit_length() - 1
    if args.nodes < 2:
        raise InputError(
            f"a cluster needs at least 2 nodes, got {args.nodes}"
        )

    if args.smoke is not None:
        from .cluster import run_soak
        from .cluster.soak import render_report

        report = asyncio.run(
            run_soak(
                nodes=args.nodes,
                m=m,
                words=args.smoke,
                kill=bool(args.kill),
                burst=args.burst,
                in_flight=args.in_flight,
                engine=args.engine,
                queue_capacity=args.capacity,
                seed=args.seed,
            )
        )
        if args.json:
            from .obs.snapshot import dump_json

            print(dump_json(report))
        else:
            print("\n".join(render_report(report)))
        return 0

    from .cluster import (
        ClusterRouter,
        NodeSpec,
        NodeSupervisor,
        SubprocessNode,
    )
    from .obs.snapshot import dump_json

    specs = [
        NodeSpec(
            node_id=f"node-{index}",
            m=m,
            engine=args.engine,
            queue_capacity=args.capacity,
        )
        for index in range(args.nodes)
    ]
    supervisor = NodeSupervisor(
        [SubprocessNode(spec) for spec in specs]
    )
    router = ClusterRouter(supervisor)

    async def _run() -> None:
        async with router:
            assert router.map is not None
            for node_id, (host, port) in sorted(
                supervisor.addresses.items()
            ):
                print(f"node {node_id}: {host}:{port}")
            stop_note = (
                f"{args.duration:g}s run"
                if args.duration is not None
                else "Ctrl-C stops"
            )
            print(
                f"cluster serving global N={router.map.n_global} "
                f"({args.nodes} node(s) x N={args.n}, engine "
                f"{args.engine}, map v{router.map.version}) — {stop_note}"
            )
            sys.stdout.flush()
            if args.duration is None:
                while True:
                    await asyncio.sleep(3600)
            await asyncio.sleep(args.duration)
            if args.json:
                print(dump_json(router.describe()))

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("\ninterrupted — cluster stopped", file=sys.stderr)
        return 130
    return 0


def _stats_connect(args: argparse.Namespace) -> int:
    """Scrape a running ``repro serve --metrics`` gateway over TCP.

    One :class:`repro.client.GatewayClient` ``metrics`` request over
    the binary framing; ``--format prometheus`` passes the exposition
    text through verbatim.
    """
    import asyncio

    from .client import GatewayClient
    from .exceptions import GatewayRequestError, InputError
    from .obs.snapshot import dump_json

    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        raise InputError(
            f"--connect takes HOST:PORT, got {args.connect!r}"
        )

    async def scrape() -> int:
        try:
            client = await GatewayClient(host, int(port_text)).connect()
        except (OSError, ConnectionError) as error:
            raise InputError(
                f"cannot scrape {args.connect}: {error}"
            ) from error
        try:
            response = await client.metrics(format=args.format)
        except GatewayRequestError as error:
            detail = error.response.get("detail", "")
            hint = (
                " (start the server with 'repro serve N --metrics')"
                if error.slug == "metrics-disabled"
                else ""
            )
            print(f"error: {error.slug}: {detail}{hint}", file=sys.stderr)
            return 2
        finally:
            await client.aclose()
        if args.format == "prometheus":
            sys.stdout.write(response["body"])
        else:
            print(dump_json(response["metrics"]))
        return 0

    return asyncio.run(scrape())


def _command_stats(args: argparse.Namespace) -> int:
    """``repro stats``: scrape a live gateway, or run a one-shot snapshot."""
    if args.connect is not None:
        return _stats_connect(args)
    from .exceptions import InputError

    if args.n is None:
        raise InputError(
            "stats needs a network size for one-shot mode, "
            "or --connect HOST:PORT to scrape a running gateway"
        )
    import asyncio
    import random

    require_power_of_two(args.n, "network size")
    m = args.n.bit_length() - 1

    from .obs import GatewayInstrumentation, Registry
    from .obs.snapshot import dump_json
    from .server import AsyncGateway

    config = _gateway_config(m=m, engine=args.engine)

    async def _one_shot() -> dict:
        rng = random.Random(args.seed)
        async with AsyncGateway(config) as gateway:
            instrumentation = GatewayInstrumentation(
                gateway,
                registry=Registry(),
                trace_sample_every=args.trace_sample,
            ).attach()
            await asyncio.gather(
                *(
                    gateway.send_with_retry(
                        rng.randrange(args.n), payload=index
                    )
                    for index in range(args.words)
                )
            )
            if args.format == "prometheus":
                return {"body": instrumentation.render_prometheus()}
            return instrumentation.snapshot()

    result = asyncio.run(_one_shot())
    if args.format == "prometheus":
        sys.stdout.write(result["body"])
    else:
        print(dump_json(result))
    return 0


def _print_replay_report(report, violations: List[str]) -> None:
    """Human-readable ``repro replay`` summary (violations to stderr)."""
    print(
        f"scenario : {report.scenario} "
        f"(N={report.n}, {report.events} events)"
    )
    print(
        f"words    : {report.words_offered} offered, "
        f"{report.words_delivered} delivered, "
        f"{report.words_rejected} rejected"
    )
    if report.multicast_requests:
        print(
            f"multicast: {report.multicast_requests} requests -> "
            f"{report.multicast_copies} copies in "
            f"{report.multicast_rounds} round(s), "
            f"{report.multicast_delivered} delivered"
        )
    if report.cycles is not None:
        load_note = (
            f", offered load {report.offered_load:.2f}"
            if report.offered_load is not None
            else ""
        )
        print(
            f"fabric   : {report.cycles} cycles{load_note}, "
            f"{report.starvation_rescues} starvation rescue(s)"
        )
    for tenant, row in sorted(report.per_tenant.items()):
        latency = row.to_document()["latency_cycles"]
        print(
            f"tenant   : {tenant} (weight {row.weight}) — "
            f"{row.offered} offered, {row.delivered} delivered, "
            f"p50={latency['p50']} p99={latency['p99']} cycles"
        )
    for violation in violations:
        print(f"SLO violation: {violation}", file=sys.stderr)


def _command_replay(args: argparse.Namespace) -> int:
    """``repro replay``: drive a gateway with a scenario or trace.

    Exit code 0 when every SLO gate passes, 1 on any violation — so a
    replay line drops straight into CI next to the benchmark gates.
    """
    import asyncio

    from .exceptions import InputError
    from .obs.snapshot import dump_json
    from .traffic import SCENARIOS, load_trace, replay_trace, synthesize

    trace = load_trace(args.trace) if args.trace is not None else None
    if trace is None and args.scenario not in SCENARIOS:
        raise InputError(
            f"unknown scenario {args.scenario!r}; choose one of "
            f"{sorted(SCENARIOS)} or pass --trace FILE"
        )

    async def _run(target, n: int):
        nonlocal trace
        if trace is None:
            trace = synthesize(
                SCENARIOS[args.scenario], n, args.events, args.seed
            )
        elif trace.n != n:
            raise InputError(
                f"trace was recorded for N={trace.n} but the gateway "
                f"serves N={n}"
            )
        if args.save_trace:
            trace.save(args.save_trace)
        return await replay_trace(
            target, trace, burst=args.burst, retry_attempts=args.retry
        )

    if args.connect is not None:
        from .client import GatewayClient

        host, _, port_text = args.connect.rpartition(":")
        if not host or not port_text.isdigit():
            raise InputError(
                f"--connect takes HOST:PORT, got {args.connect!r}"
            )

        async def _connected():
            try:
                client = await GatewayClient(host, int(port_text)).connect()
            except (OSError, ConnectionError) as error:
                raise InputError(
                    f"cannot reach {args.connect}: {error}"
                ) from error
            try:
                return await _run(client, client.n)
            finally:
                await client.aclose()

        report = asyncio.run(_connected())
    else:
        n = args.n if args.n is not None else (trace.n if trace else None)
        if n is None:
            raise InputError(
                "replay needs a network size (or a --trace, which "
                "records one), or --connect HOST:PORT for a running "
                "gateway"
            )
        require_power_of_two(n, "network size")
        m = n.bit_length() - 1

        from .server import AsyncGateway

        weights = (
            dict(trace.tenants)
            if trace is not None
            else SCENARIOS[args.scenario].tenant_weights
        )
        if len(weights) == 1 and all(w == 1 for w in weights.values()):
            weights = None  # one unweighted class: keep the bare hot path
        config = _gateway_config(
            m=m,
            planes=args.planes,
            queue_capacity=args.capacity,
            engine=args.engine,
            tenants=weights,
            starvation_cycles=args.starvation_cycles,
        )

        async def _in_process():
            async with AsyncGateway(config) as gateway:
                return await _run(gateway, n)

        report = asyncio.run(_in_process())

    violations = report.check_slos(
        args.slo_p50, args.slo_p99, require_delivery=args.require_delivery
    )
    if args.json:
        document = report.to_document()
        document["slo_violations"] = violations
        print(dump_json(document))
        for violation in violations:
            print(f"SLO violation: {violation}", file=sys.stderr)
    else:
        _print_replay_report(report, violations)
    return 1 if violations else 0


_HANDLERS = {
    "route": _command_route,
    "verify": _command_verify,
    "tables": _command_tables,
    "figures": _command_figures,
    "report": _command_report,
    "faults": _command_faults,
    "serve": _command_serve,
    "cluster": _command_cluster,
    "stats": _command_stats,
    "replay": _command_replay,
}


def _gateway_config(**fields: Any):
    """Build a :class:`~repro.server.GatewayConfig`; a combination it
    refuses (``--resilient`` on a backend without fault masks, say) is
    an input error — one ``error:`` line and exit 2 — not a
    traceback."""
    from .server import GatewayConfig

    try:
        return GatewayConfig(**fields)
    except ValueError as error:
        raise InputError(str(error)) from None


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except KeyboardInterrupt:
        # POSIX convention: 128 + SIGINT.  A clean line, never a traceback.
        print("interrupted", file=sys.stderr)
        return 130
    except ReproError as error:  # one-line message, never a traceback
        print(f"error: {error}", file=sys.stderr)
        return 2
