"""Per-tenant QoS in the admission path: weighted scheduling, starvation
protection, accounting, and the wire/metrics surfaces (docs/traffic.md)."""

import asyncio

import pytest

from repro.exceptions import AdmissionRejectedError, InputError
from repro.server import (
    DEFAULT_TENANT,
    NO_OWNER,
    AsyncGateway,
    GatewayConfig,
    VirtualOutputQueues,
)
from repro.server.voq import OWNER


def admit(voqs, dest, tenant=DEFAULT_TENANT, cycle=0, owner=NO_OWNER):
    voqs.admit(dest, cycle, owner, tenant)


def pop_tenant(voqs):
    """Pop one frame holding a single word; return its tenant's name."""
    block = voqs.pop_heads(1)
    assert block.size == 1
    tid = 0 if block.tenants is None else int(block.tenants[0])
    return voqs.tenant_names[tid]


class TestTenantQueueScheduling:
    def test_swrr_serves_in_weight_ratio(self):
        voqs = VirtualOutputQueues(
            4, capacity=64, tenants={"gold": 3, "bronze": 1}
        )
        for k in range(16):
            admit(voqs, 0, "gold", cycle=k)
            admit(voqs, 0, "bronze", cycle=k)
        served = [pop_tenant(voqs) for _ in range(16)]
        # Smoothed weighted round-robin: exactly weight-proportional
        # service over any window while both classes stay backlogged.
        assert served.count("gold") == 12
        assert served.count("bronze") == 4
        # Interleaved, not batched: bronze is served inside the window.
        assert "bronze" in served[:5]

    def test_single_backlogged_class_bypasses_the_scheduler(self):
        voqs = VirtualOutputQueues(4, capacity=8, tenants={"gold": 7})
        admit(voqs, 1, "gold")
        assert pop_tenant(voqs) == "gold"

    def test_unknown_tenant_auto_registers_with_weight_one(self):
        voqs = VirtualOutputQueues(4, capacity=8, tenants={"gold": 2})
        admit(voqs, 2, "walkin")
        rows = voqs.tenant_snapshot()
        assert rows["walkin"]["weight"] == 1
        assert rows["walkin"]["queued"] == 1
        assert voqs.tenant_names == ["gold", "walkin"]

    def test_starvation_rescue_overrides_the_weighted_pick(self):
        voqs = VirtualOutputQueues(
            4,
            capacity=256,
            tenants={"gold": 100, "bronze": 1},
            starvation_cycles=10,
        )
        # One ancient bronze word behind a wall of much newer gold.
        admit(voqs, 0, "bronze", cycle=0)
        for k in range(64):
            admit(voqs, 0, "gold", cycle=100 + k)
        assert pop_tenant(voqs) == "bronze"
        assert voqs.tenant_snapshot()["bronze"]["starvation_rescues"] == 1

    def test_credit_ties_go_to_the_first_registered_class(self):
        """Equal weights tie on credit; the class registered first (in
        configuration order, then first seen) wins, whichever class
        first queued a word at that destination."""
        voqs = VirtualOutputQueues(4, capacity=8, tenants={"a": 1, "b": 1})
        admit(voqs, 0, "b")
        admit(voqs, 0, "a")
        admit(voqs, 0, "walkin")  # auto-registered third
        assert [pop_tenant(voqs) for _ in range(3)] == ["a", "b", "walkin"]

    def test_fifo_order_preserved_within_a_tenant(self):
        voqs = VirtualOutputQueues(4, capacity=16, tenants={"a": 1, "b": 1})
        for k in range(4):
            admit(voqs, 3, "a", cycle=k, owner=k)
        served = []
        while voqs.total:
            served.extend(voqs.pop_heads(1).words[:, OWNER].tolist())
        assert served == [0, 1, 2, 3]

    def test_requeue_front_returns_to_the_owning_tenant(self):
        voqs = VirtualOutputQueues(4, capacity=16, tenants={"a": 1, "b": 8})
        admit(voqs, 0, "a", cycle=0)
        admit(voqs, 1, "b", cycle=0)
        popped = voqs.pop_heads(1)
        voqs.requeue_front([popped])
        rows = voqs.tenant_snapshot()
        assert rows["a"]["requeued"] == 1
        assert rows["a"]["queued"] == 1
        assert rows["b"]["requeued"] == 1

    def test_tenant_mode_validates_weights(self):
        with pytest.raises(ValueError):
            VirtualOutputQueues(4, capacity=8, tenants={"bad": 0})
        with pytest.raises(ValueError):
            VirtualOutputQueues(4, capacity=8, tenants={"": 2})
        with pytest.raises(ValueError):
            VirtualOutputQueues(4, capacity=8, tenants={"b": True})

    def test_untenanted_mode_has_no_tenant_surface(self):
        voqs = VirtualOutputQueues(4, capacity=8)
        assert voqs.tenants is None
        assert voqs.tenant_snapshot() is None
        assert "tenants" not in voqs.snapshot()

    def test_snapshot_counts_offered_accepted_per_tenant(self):
        voqs = VirtualOutputQueues(2, capacity=1, tenants={"a": 1})
        admit(voqs, 0, "a")
        with pytest.raises(AdmissionRejectedError):
            admit(voqs, 0, "a")  # full -> reject
        rows = voqs.tenant_snapshot()
        assert rows["a"]["offered"] == 2
        assert rows["a"]["accepted"] == 1
        assert rows["a"]["rejected"] == 1


class TestGatewayTenants:
    def run(self, coro):
        return asyncio.run(coro)

    def test_config_validates_tenants(self):
        with pytest.raises(ValueError):
            GatewayConfig(m=2, tenants={"x": 0})
        with pytest.raises(ValueError):
            GatewayConfig(m=2, tenants={"x": 1}, starvation_cycles=0)

    def test_send_attributes_latency_to_the_tenant(self):
        async def scenario():
            config = GatewayConfig(
                m=2, queue_capacity=8, tenants={"gold": 4, "bronze": 1}
            )
            async with AsyncGateway(config) as gateway:
                await asyncio.gather(
                    *(
                        gateway.send_with_retry(k % 4, tenant="gold")
                        for k in range(8)
                    ),
                    *(
                        gateway.send_with_retry(k % 4, tenant="bronze")
                        for k in range(8)
                    ),
                )
                return gateway.tenant_snapshot()

        rows = self.run(scenario())
        for name in ("gold", "bronze"):
            assert rows[name]["delivered"] == 8
            latency = rows[name]["latency_cycles"]
            assert latency["samples"] == 8
            assert latency["p50"] is not None

    def test_stats_embeds_tenant_rows_only_in_tenant_mode(self):
        async def tenanted():
            config = GatewayConfig(m=2, tenants={"gold": 2})
            async with AsyncGateway(config) as gateway:
                await gateway.send_with_retry(1, tenant="gold")
                return gateway.stats()

        async def bare():
            async with AsyncGateway(GatewayConfig(m=2)) as gateway:
                await gateway.send_with_retry(1)
                return gateway.stats()

        stats = self.run(tenanted())
        assert stats["tenants"]["gold"]["delivered"] == 1
        assert self.run(bare())["tenants"] is None

    def test_send_batch_carries_the_tenant(self):
        async def scenario():
            config = GatewayConfig(
                m=2, queue_capacity=16, tenants={"gold": 2}
            )
            async with AsyncGateway(config) as gateway:
                result = await gateway.send_batch(
                    [0, 1, 2, 3], retry_attempts=8, tenant="gold"
                )
                return result.delivered, gateway.tenant_snapshot()

        delivered, rows = self.run(scenario())
        assert delivered == 4
        assert rows["gold"]["delivered"] == 4
        # The default class never carried a word, so it has no row
        # (rows appear on first use) or an all-zero one.
        assert rows.get(DEFAULT_TENANT, {"delivered": 0})["delivered"] == 0


class TestTenantMetrics:
    def test_repro_tenant_series_exported(self):
        from repro.obs import GatewayInstrumentation, Registry

        async def scenario():
            config = GatewayConfig(
                m=2, queue_capacity=16, tenants={"gold": 8, "bronze": 1}
            )
            async with AsyncGateway(config) as gateway:
                instrumentation = GatewayInstrumentation(
                    gateway, registry=Registry()
                ).attach()
                await asyncio.gather(
                    *(
                        gateway.send_with_retry(k % 4, tenant="gold")
                        for k in range(6)
                    )
                )
                return instrumentation.registry.render_prometheus()

        text = asyncio.run(scenario())
        assert 'repro_tenant_weight{tenant="gold"} 8' in text
        assert 'repro_tenant_delivered_total{tenant="gold"} 6' in text
        assert (
            'repro_tenant_latency_cycles_quantile{tenant="gold",q="p99"}'
            in text
        )


class TestWireTenantField:
    def test_send_and_batch_accept_tenant_over_the_wire(self):
        from repro.client import GatewayClient
        from repro.server import GatewayServer

        async def scenario():
            config = GatewayConfig(
                m=2, queue_capacity=16, tenants={"gold": 4}
            )
            async with AsyncGateway(config) as gateway:
                server = await GatewayServer(gateway).start()
                try:
                    async with GatewayClient(
                        "127.0.0.1", server.port
                    ) as client:
                        await client.send(1, tenant="gold", server_retry=True)
                        response = await client.send_batch(
                            [0, 1, 2], tenant="gold", retry=8
                        )
                        assert int(response["delivered"]) == 3
                        hello_features = client.features
                    return gateway.tenant_snapshot(), hello_features
                finally:
                    await server.stop()

        rows, features = asyncio.run(scenario())
        assert rows["gold"]["delivered"] == 4
        assert "tenants" in features

    def test_bad_tenant_field_is_rejected(self):
        from repro.server.ops import _tenant_field

        assert _tenant_field({}) is None
        assert _tenant_field({"tenant": "gold"}) == "gold"
        with pytest.raises(InputError):
            _tenant_field({"tenant": ""})
        with pytest.raises(InputError):
            _tenant_field({"tenant": 7})
