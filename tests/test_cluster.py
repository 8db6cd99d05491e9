"""The cluster tier: shard map, health, drain/rejoin, failover.

Unit tests pin the pure pieces (shard arithmetic, the health state
machine, the map document); the wire tests pin the cluster op family
and the two serving-stack satellites (drain-time admission, the stable
``gateway-disconnected`` slug); the end-to-end tests boot real
multi-node clusters over loopback TCP and exercise kill-mid-run
failover and the drain/rejoin rolling restart.
"""

import asyncio

import numpy as np
import pytest

from repro.client import GatewayClient
from repro.cluster import (
    ClusterClient,
    ClusterRouter,
    LocalNode,
    NodeHealth,
    NodeSpec,
    NodeSupervisor,
    ShardMap,
    run_soak,
)
from repro.exceptions import (
    AdmissionRejectedError,
    ClusterError,
    GatewayDisconnectedError,
    GatewayRequestError,
    InputError,
)
from repro.server import AsyncGateway, GatewayConfig, GatewayServer

pytestmark = pytest.mark.asyncio_suite


def make_map(nodes=3, node_n=8):
    return ShardMap.initial(
        {f"node-{k}": ("127.0.0.1", 9000 + k) for k in range(nodes)},
        node_n,
    )


async def start_stack(m=3, planes=1, capacity=8, node_id=None):
    gateway = await AsyncGateway(
        GatewayConfig(
            m=m, planes=planes, queue_capacity=capacity, node_id=node_id
        )
    ).start()
    server = await GatewayServer(gateway).start()
    return gateway, server


def make_cluster(nodes=3, m=3, **supervisor_kwargs):
    supervisor_kwargs.setdefault("poll_interval", 0.05)
    supervisor_kwargs.setdefault("failure_threshold", 2)
    specs = [
        NodeSpec(node_id=f"node-{k}", m=m, queue_capacity=64)
        for k in range(nodes)
    ]
    supervisor = NodeSupervisor(
        [LocalNode(spec) for spec in specs], **supervisor_kwargs
    )
    return ClusterRouter(supervisor)


class TestShardMap:
    def test_initial_layout_and_locate(self):
        shard_map = make_map(nodes=3, node_n=8)
        assert shard_map.n_global == 24
        assert shard_map.version == 1
        assert shard_map.serving_nodes() == ["node-0", "node-1", "node-2"]
        assert shard_map.locate(0) == ("node-0", 0)
        assert shard_map.locate(7) == ("node-0", 7)
        assert shard_map.locate(8) == ("node-1", 0)
        assert shard_map.locate(23) == ("node-2", 7)
        with pytest.raises(InputError):
            shard_map.locate(24)
        with pytest.raises(InputError):
            shard_map.locate(-1)

    def test_locate_batch_groups_match_scalar_locate(self):
        shard_map = make_map(nodes=3, node_n=8)
        dests = np.array([0, 8, 16, 7, 9, 23, 1], dtype=np.int64)
        groups = shard_map.locate_batch(dests)
        seen = np.zeros(dests.size, dtype=bool)
        for node_id, (positions, local_dests) in groups.items():
            for position, local in zip(positions, local_dests):
                expected_node, expected_local = shard_map.locate(
                    int(dests[position])
                )
                assert expected_node == node_id
                assert expected_local == int(local)
                seen[position] = True
        assert seen.all()

    def test_reassign_spreads_round_robin_and_bumps_version(self):
        shard_map = ShardMap.initial(
            {f"node-{k}": ("127.0.0.1", 9000 + k) for k in range(4)}, 4
        )
        twice = shard_map.reassign("node-1").reassign("node-3")
        assert twice.version == 3
        assert "node-1" not in twice.serving_nodes()
        assert "node-3" not in twice.serving_nodes()
        # Every destination still resolves, to a survivor.
        for dest in range(twice.n_global):
            node, local = twice.locate(dest)
            assert node in ("node-0", "node-2")
            assert 0 <= local < 4

    def test_restore_returns_home_after_any_sequence(self):
        shard_map = make_map()
        detour = shard_map.reassign("node-2").reassign("node-1")
        back = detour.restore("node-2").restore("node-1")
        assert [s.node for s in back.shards] == [
            s.node for s in shard_map.shards
        ]
        assert back.version > detour.version

    def test_reassign_with_no_survivors_raises(self):
        lone = ShardMap.initial({"only": ("127.0.0.1", 9000)}, 8)
        with pytest.raises(ClusterError):
            lone.reassign("only")

    def test_doc_round_trip(self):
        shard_map = make_map().reassign("node-0")
        doc = shard_map.to_doc()
        back = ShardMap.from_doc(doc)
        assert back.version == shard_map.version
        assert back.n_global == shard_map.n_global
        assert back.nodes == shard_map.nodes
        assert [s.to_doc() for s in back.shards] == [
            s.to_doc() for s in shard_map.shards
        ]

    def test_malformed_doc_raises_input_error(self):
        with pytest.raises(InputError):
            ShardMap.from_doc({"version": 1})


class TestNodeHealth:
    def test_starting_to_healthy_to_down(self):
        health = NodeHealth("node-0", failure_threshold=3)
        assert health.state == "starting"
        assert health.mark_ok({}) is True
        assert health.state == "healthy"
        assert health.mark_failure("boom") is False
        assert health.mark_failure("boom") is False
        assert health.mark_failure("boom") is True  # the flip, exactly once
        assert health.state == "down"
        assert health.mark_failure("boom") is False

    def test_success_resets_the_streak(self):
        health = NodeHealth("node-0", failure_threshold=2)
        health.mark_ok()
        health.mark_failure("x")
        health.mark_ok()
        assert health.mark_failure("x") is False
        assert health.state == "healthy"

    def test_draining_and_rejoin(self):
        health = NodeHealth("node-0")
        health.mark_ok()
        health.mark_draining()
        assert health.state == "draining"
        assert health.alive
        # A poll showing draining=False flips it back to healthy.
        health.mark_ok({"draining": False})
        assert health.state == "healthy"


class TestDrainAdmission:
    """Satellite: a draining gateway refuses new words, serves old ones."""

    def test_drain_rejects_new_sends_while_inflight_completes(
        self, run_async
    ):
        async def scenario():
            gateway = await AsyncGateway(
                GatewayConfig(m=3, queue_capacity=64)
            ).start()
            try:
                batch_task = asyncio.ensure_future(
                    gateway.send_batch(np.arange(512) % 8)
                )
                while gateway.voqs.total == 0:
                    await asyncio.sleep(0)
                backlog = gateway.drain()
                assert list(backlog) == ["queued"] and backlog["queued"] > 0
                assert gateway.draining
                with pytest.raises(AdmissionRejectedError) as rejected:
                    await gateway.send(3)
                assert rejected.value.retry_after_cycles >= 1
                burst = await gateway.send_batch([1, 2, 3])
                assert burst.delivered == 0
                assert (burst.retry_after >= 1).all()
                # Everything admitted before the drain still lands.
                batch = await batch_task
                assert batch.delivered == 512
                stats = gateway.stats()
                assert stats["draining"] is True
                gateway.rejoin()
                receipt = await gateway.send(3)
                assert receipt.destination == 3
            finally:
                await gateway.stop()

        run_async(scenario())

    def test_drain_rejects_over_the_wire_with_hints(self, run_async):
        async def scenario():
            gateway, server = await start_stack(m=3, capacity=8)
            try:
                async with GatewayClient(
                    "127.0.0.1", server.port
                ) as client:
                    drained = await client.drain()
                    assert drained["draining"] is True
                    with pytest.raises(GatewayRequestError) as rejected:
                        await client.send(2)
                    assert rejected.value.slug == "admission-rejected"
                    assert rejected.value.retry_after_cycles >= 1
                    burst = await client.send_batch([0, 1, 2])
                    assert burst["delivered"] == 0
                    assert (burst["retry_after"] >= 1).all()
                    rejoined = await client.rejoin()
                    assert rejoined["draining"] is False
                    receipt = await client.send(2)
                    assert receipt["dest"] == 2
            finally:
                await server.stop()
                await gateway.stop()

        run_async(scenario())


class TestDisconnectSlug:
    """Satellite: pending requests fail with ``gateway-disconnected``."""

    def test_pending_request_fails_with_stable_error(self, run_async):
        async def scenario():
            gateway, server = await start_stack(m=3, capacity=4096)
            client = await GatewayClient("127.0.0.1", server.port).connect()
            try:
                # One destination, thousands of words: the queue drains
                # one word per cycle, so this request is pending for
                # many cycles — long enough to yank the server.
                batch_task = asyncio.ensure_future(
                    client.send_batch(np.zeros(4096, dtype=np.int64))
                )
                while gateway.voqs.total == 0:
                    await asyncio.sleep(0)
                await server.stop()
                with pytest.raises(GatewayDisconnectedError) as failed:
                    await batch_task
                assert failed.value.slug == "gateway-disconnected"
                assert isinstance(failed.value, ConnectionError)
                # The client stays dead with the same stable error.
                with pytest.raises(GatewayDisconnectedError):
                    await client.ping()
            finally:
                await client.aclose()
                await gateway.stop(drain=False)

        run_async(scenario())


class TestNodeIdentity:
    """Satellite: node_id + uptime in stats and on exported metrics."""

    def test_stats_carry_node_id_uptime_draining(self, run_async):
        async def scenario():
            gateway, server = await start_stack(m=3, node_id="alpha")
            try:
                async with GatewayClient(
                    "127.0.0.1", server.port
                ) as client:
                    await client.send(1, server_retry=True)
                    stats = (await client.stats())["stats"]
            finally:
                await server.stop()
                await gateway.stop()
            return stats

        stats = run_async(scenario())
        assert stats["node_id"] == "alpha"
        assert stats["uptime_seconds"] > 0
        assert stats["draining"] is False

    def test_default_node_id_is_per_process(self, run_async):
        async def scenario():
            async with AsyncGateway(GatewayConfig(m=3)) as gateway:
                return gateway.node_id

        assert run_async(scenario()).startswith("gw-")

    def test_metrics_exposition_labels_the_node(self, run_async):
        from repro.obs import GatewayInstrumentation, Registry

        async def scenario():
            async with AsyncGateway(
                GatewayConfig(m=3, node_id="alpha")
            ) as gateway:
                instrumentation = GatewayInstrumentation(
                    gateway, registry=Registry()
                ).attach()
                await gateway.send_with_retry(1)
                return instrumentation.render_prometheus()

        text = run_async(scenario())
        assert 'repro_node_info{node_id="alpha"} 1' in text
        assert 'repro_node_uptime_seconds{node_id="alpha"}' in text


class TestClusterOps:
    def test_hello_advertises_cluster_feature(self, run_async):
        async def scenario():
            gateway, server = await start_stack()
            try:
                async with GatewayClient(
                    "127.0.0.1", server.port
                ) as client:
                    return client.features
            finally:
                await server.stop()
                await gateway.stop()

        assert "cluster" in run_async(scenario())

    def test_shard_map_install_fetch_and_version_precedence(
        self, run_async
    ):
        doc_v2 = make_map().reassign("node-0").to_doc()
        doc_v1 = make_map().to_doc()

        async def scenario():
            gateway, server = await start_stack()
            try:
                async with GatewayClient(
                    "127.0.0.1", server.port
                ) as client:
                    empty = await client.shard_map()
                    first = await client.shard_map(doc_v2)
                    stale = await client.shard_map(doc_v1)
                    fetched = await client.shard_map()
            finally:
                await server.stop()
                await gateway.stop()
            return empty, first, stale, fetched

        empty, first, stale, fetched = run_async(scenario())
        assert empty["map"] is None
        assert first["installed"] is True
        # An older version must not clobber the newer one.
        assert stale["installed"] is False
        assert stale["map"]["version"] == 2
        assert fetched["map"]["version"] == 2

    def test_shard_map_rejects_malformed_documents(self, run_async):
        async def scenario():
            gateway, server = await start_stack()
            try:
                async with GatewayClient(
                    "127.0.0.1", server.port
                ) as client:
                    failures = []
                    for bad in ([1, 2], {"nodes": {}}):
                        with pytest.raises(GatewayRequestError) as error:
                            await client.shard_map(bad)
                        failures.append(error.value.slug)
            finally:
                await server.stop()
                await gateway.stop()
            return failures

        assert run_async(scenario()) == ["bad-request", "bad-request"]


class TestClusterEndToEnd:
    def test_routes_by_destination_shard(self, run_async):
        async def scenario():
            async with make_cluster(nodes=3, m=3) as router:
                seeds = list(router.supervisor.addresses.values())
                async with ClusterClient(seeds) as client:
                    assert client.n_global == 24
                    served = []
                    for dest in (0, 8, 16, 23):
                        response = await client.send(dest, payload=dest)
                        served.append(
                            (
                                response["node_id"],
                                response["local_dest"],
                            )
                        )
                    batch = await client.send_batch(
                        np.arange(24, dtype=np.int64)
                    )
            return served, batch

        served, batch = run_async(scenario())
        assert served == [
            ("node-0", 0),
            ("node-1", 0),
            ("node-2", 0),
            ("node-2", 7),
        ]
        assert batch["delivered"] == 24
        assert set(batch["nodes"]) == {"node-0", "node-1", "node-2"}
        assert all(count == 8 for count in batch["nodes"].values())

    def test_kill_reshards_and_keeps_delivering(self, run_async):
        async def scenario():
            async with make_cluster(nodes=3, m=3) as router:
                seeds = list(router.supervisor.addresses.values())
                async with ClusterClient(seeds) as client:
                    before = await client.send_batch(
                        np.arange(24, dtype=np.int64)
                    )
                    await router.kill_node("node-1")
                    # Destinations of the dead node's shard still land,
                    # on a survivor, under the bumped map.
                    after = await client.send_batch(
                        np.arange(8, 16, dtype=np.int64)
                    )
                    assert router.map is not None
                    return (
                        before,
                        after,
                        router.map.version,
                        router.map.serving_nodes(),
                        list(router.events),
                        client.map.version,
                    )

        before, after, version, serving, events, client_version = run_async(
            scenario()
        )
        assert before["delivered"] == 24
        assert after["delivered"] == 8
        assert "node-1" not in after["nodes"]
        assert version == 2
        assert client_version == 2
        assert serving == ["node-0", "node-2"]
        assert [event["event"] for event in events] == [
            "start",
            "node-down",
        ]

    def test_health_loop_detects_silent_death(self, run_async):
        async def scenario():
            async with make_cluster(
                nodes=3, m=3, poll_interval=0.02
            ) as router:
                # Kill the node behind the supervisor's back: only the
                # health loop can notice this one.
                await router.supervisor.nodes["node-2"].kill()
                deadline = asyncio.get_running_loop().time() + 10
                assert router.map is not None
                while router.map.version == 1:
                    if asyncio.get_running_loop().time() > deadline:
                        raise AssertionError(
                            "health loop never flipped the dead node"
                        )
                    await asyncio.sleep(0.02)
                return (
                    router.map.serving_nodes(),
                    router.supervisor.health["node-2"].state,
                )

        serving, state = run_async(scenario())
        assert serving == ["node-0", "node-1"]
        assert state == "down"

    def test_rolling_restart_drain_then_rejoin(self, run_async):
        async def scenario():
            async with make_cluster(nodes=3, m=3) as router:
                seeds = list(router.supervisor.addresses.values())
                async with ClusterClient(seeds) as client:
                    drained = await router.drain_node("node-0")
                    assert drained["draining"] is True
                    await client.refresh_map()
                    detoured = await client.send(0, payload="detour")
                    rejoined = await router.rejoin_node("node-0")
                    assert rejoined["draining"] is False
                    await client.refresh_map()
                    restored = await client.send(0, payload="home")
                    assert router.map is not None
                    return (
                        detoured["node_id"],
                        restored["node_id"],
                        [s.node for s in router.map.shards],
                        [s.home for s in router.map.shards],
                    )

        detour_node, home_node, nodes, homes = run_async(scenario())
        assert detour_node != "node-0"
        assert home_node == "node-0"
        assert nodes == homes  # the layout converged back

    def test_soak_kill_one_node_full_delivery(self, run_async):
        report = run_async(
            run_soak(
                nodes=3,
                m=3,
                words=3000,
                burst=512,
                in_flight=2,
                kill=True,
            ),
            timeout=120,
        )
        assert report["delivered_words"] == 3000
        assert report["delivery_rate"] == 1.0
        assert report["misdeliveries"] == 0
        assert report["killed_node"] == "node-2"
        assert report["node_states"]["node-2"] == "down"
        assert report["map_version"] == 2

    def test_cluster_client_needs_a_running_router(self, run_async):
        async def scenario():
            gateway, server = await start_stack()
            try:
                with pytest.raises(ClusterError):
                    await ClusterClient(
                        [("127.0.0.1", server.port)]
                    ).connect()
            finally:
                await server.stop()
                await gateway.stop()

        run_async(scenario())


class TestClusterCli:
    def test_cluster_smoke_command(self, capsys):
        from repro.cli import main

        code = main(
            [
                "cluster",
                "8",
                "--nodes",
                "2",
                "--smoke",
                "600",
                "--kill",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "600/600 words delivered" in out
        assert "killed node-1" in out

    def test_cluster_rejects_single_node(self, capsys):
        from repro.cli import main

        assert main(["cluster", "8", "--nodes", "1", "--smoke", "10"]) == 2
        assert "at least 2 nodes" in capsys.readouterr().err

    def test_serve_node_id_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "8", "--node-id", "alpha"]
        )
        assert args.node_id == "alpha"
