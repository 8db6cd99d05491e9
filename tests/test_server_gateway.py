"""The asyncio gateway end to end: delivery, backpressure, plane failure.

Every test runs on a stock event loop via the ``run_async`` fixture
(per-test timeout included), so the suite needs no pytest-asyncio.
"""

import asyncio
import random

import pytest

from repro.core.pipeline import PipelinedBNBFabric
from repro.exceptions import (
    AdmissionRejectedError,
    GatewayClosedError,
    InputError,
)
from repro.faults import SwitchCoordinate, fault_mask_for, stuck_override_set
from repro.server import AsyncGateway, BackendPlane, GatewayConfig
from repro.service import FaultPolicy, ResilientFabric

pytestmark = pytest.mark.asyncio_suite


class TestBasics:
    def test_single_send_round_trip(self, run_async):
        async def scenario():
            async with AsyncGateway(GatewayConfig(m=3)) as gateway:
                receipt = await gateway.send(5, payload="hello")
            return receipt

        receipt = run_async(scenario())
        assert receipt.destination == 5
        assert receipt.payload == "hello"
        assert receipt.mode == "clean"
        assert receipt.latency_cycles >= 1

    def test_bad_destination_raises_input_error(self, run_async):
        async def scenario():
            async with AsyncGateway(GatewayConfig(m=3)) as gateway:
                with pytest.raises(InputError):
                    await gateway.send(8)
                with pytest.raises(InputError):
                    await gateway.send(-1)

        run_async(scenario())

    def test_send_after_stop_raises_closed(self, run_async):
        async def scenario():
            gateway = AsyncGateway(GatewayConfig(m=3))
            await gateway.start()
            await gateway.stop()
            with pytest.raises(GatewayClosedError):
                await gateway.send(0)

        run_async(scenario())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GatewayConfig(m=0)
        with pytest.raises(ValueError):
            GatewayConfig(m=3, planes=0)
        with pytest.raises(ValueError):
            GatewayConfig(m=3, queue_capacity=0)
        with pytest.raises(ValueError):
            GatewayConfig(m=3, engine="simd")
        # Resilience is a fault policy on the bnb planes: the pipelined
        # and the windowed engine both take it, the object model not.
        for engine in ("vector", "batch"):
            assert GatewayConfig(m=3, resilient=True, engine=engine).resilient
        with pytest.raises(ValueError, match="no resilient variant"):
            GatewayConfig(m=3, resilient=True, engine="object")

    @pytest.mark.parametrize("length", [0, 1, 2, 3, 1000])
    def test_quantiles_follow_the_percentile_rule(self, length):
        """One sort gives what sorting once per quantile gave:
        ``ordered[min(L - 1, int(q * (L - 1) + 0.5))]``, and the max."""

        def percentile(samples, q):
            if not samples:
                return None
            ordered = sorted(samples)
            return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))]

        rng = random.Random(length)
        samples = [rng.randrange(50) for _ in range(length)]
        assert AsyncGateway._quantiles(samples) == {
            "samples": length,
            "p50": percentile(samples, 0.50),
            "p99": percentile(samples, 0.99),
            "max": max(samples) if samples else None,
        }

    def test_engine_selects_plane_kind(self, run_async):
        async def scenario(engine, resilient=False):
            config = GatewayConfig(m=3, engine=engine, resilient=resilient)
            async with AsyncGateway(config) as gateway:
                await gateway.send(2, payload="x")
                return gateway.stats()["planes"][0]

        def shape(plane):
            return (
                plane["kind"],
                plane["backend"],
                plane["batch_window"],
                plane["depth"],
            )

        # (backend, batch_window, depth) follows from the engine alone.
        assert shape(run_async(scenario("object"))) == (
            "BackendPlane", "bnb-object", 1, 3,
        )
        assert shape(run_async(scenario("vector"))) == (
            "BackendPlane", "bnb", 1, 3,
        )
        assert shape(run_async(scenario("batch"))) == (
            "BackendPlane", "bnb", 32, 0,
        )
        assert shape(run_async(scenario("krbenes"))) == (
            "BackendPlane", "krbenes", 32, 0,
        )
        # A resilient plane is the same plane carrying a fault policy.
        assert shape(run_async(scenario("vector", resilient=True))) == (
            "BackendPlane", "bnb", 1, 3,
        )
        plane = run_async(scenario("batch", resilient=True))
        assert shape(plane) == ("BackendPlane", "bnb", 32, 0)
        assert plane["service_state"] == "healthy"


class TestConcurrentDelivery:
    def test_many_clients_all_delivered_exactly(self, run_async):
        async def scenario():
            config = GatewayConfig(m=3, planes=2, queue_capacity=16)
            rng = random.Random(7)
            async with AsyncGateway(config) as gateway:
                receipts = await asyncio.gather(
                    *(
                        gateway.send_with_retry(
                            rng.randrange(8), payload=index
                        )
                        for index in range(400)
                    )
                )
                stats = gateway.stats()
            return receipts, stats

        receipts, stats = run_async(scenario())
        assert len(receipts) == 400
        # Zero misdelivery: every receipt echoes its own payload.
        assert all(
            receipt.payload == index for index, receipt in enumerate(receipts)
        )
        assert stats["delivered_words"] == 400
        assert stats["queues"]["max_depth"] <= 16

    @pytest.mark.slow
    @pytest.mark.parametrize("engine", ["object", "vector"])
    def test_acceptance_1000_clients_m4(self, run_async, engine):
        """ISSUE acceptance: 1000 concurrent clients at m=4, zero
        misdelivered words, bounded queues under overload — on both
        the reference object engine and the compiled vector engine."""

        async def client(gateway, rng, cid, receipts):
            for k in range(2):
                receipt = await gateway.send_with_retry(
                    rng.randrange(16), payload=(cid, k), attempts=64
                )
                receipts.append(((cid, k), receipt))

        async def scenario():
            config = GatewayConfig(
                m=4, planes=2, queue_capacity=64, engine=engine
            )
            receipts = []
            async with AsyncGateway(config) as gateway:
                seeder = random.Random(42)
                rngs = [
                    random.Random(seeder.random()) for _ in range(1000)
                ]
                await asyncio.gather(
                    *(
                        client(gateway, rngs[cid], cid, receipts)
                        for cid in range(1000)
                    )
                )
                stats = gateway.stats()
            return receipts, stats

        receipts, stats = run_async(scenario())
        assert len(receipts) == 2000
        assert all(
            receipt.payload == expected for expected, receipt in receipts
        )
        assert stats["delivered_words"] == 2000
        # Bounded queues: depth never exceeded the admission bound.
        assert stats["queues"]["max_depth"] <= 64
        assert stats["latency_cycles"]["p99"] is not None

    @pytest.mark.slow
    @pytest.mark.parametrize("engine", ["batch", "vector"])
    def test_acceptance_1000_clients_resilient_faulted(
        self, run_async, engine
    ):
        """ISSUE acceptance: 1000 clients at m=4 on resilient planes,
        with one plane killed outright and a stuck-control fault
        injected into another mid-flight — zero misdelivered words on
        either engine."""

        async def client(gateway, rng, cid, receipts):
            for k in range(2):
                receipt = await gateway.send_with_retry(
                    rng.randrange(16), payload=(cid, k), attempts=64
                )
                receipts.append(((cid, k), receipt))

        async def chaos(gateway):
            # Let traffic build, then kill one plane and break another.
            await gateway.wait_cycles(8)
            gateway.kill_plane(2, reason="acceptance plane-kill")
            gateway.inject_fault(0, (3, 0, 0, 0, 0), 1)

        async def scenario():
            config = GatewayConfig(
                m=4, planes=3, queue_capacity=64, engine=engine,
                resilient=True,
            )
            receipts = []
            async with AsyncGateway(config) as gateway:
                seeder = random.Random(42)
                rngs = [
                    random.Random(seeder.random()) for _ in range(1000)
                ]
                await asyncio.gather(
                    chaos(gateway),
                    *(
                        client(gateway, rngs[cid], cid, receipts)
                        for cid in range(1000)
                    ),
                )
                stats = gateway.stats()
            return receipts, stats

        receipts, stats = run_async(scenario())
        assert len(receipts) == 2000
        # Zero misdelivery despite the plane kill and the live fault.
        assert all(
            receipt.payload == expected for expected, receipt in receipts
        )
        assert stats["delivered_words"] == 2000
        assert stats["planes"][2]["healthy"] is False
        assert stats["planes"][0]["service_state"] == "quarantined"
        # The quarantined plane kept serving, on the Benes spare.
        assert stats["planes"][0]["backend"] == "krbenes"
        assert stats["planes"][1]["backend"] == "bnb"
        # Admission never passed the bound; only the killed plane's
        # in-flight words, requeued at the head, may sit above it.  A
        # vector plane (depth m = 4) holds up to m + 1 frames, each with
        # at most one word per destination; a batch plane (depth 0)
        # holds none between cycles, when the chaos task kills it.
        stranded = 4 + 1 if engine == "vector" else 0
        assert stats["queues"]["max_depth"] <= 64 + stranded

    def test_wait_cycles_advances_even_when_idle(self, run_async):
        async def scenario():
            async with AsyncGateway(GatewayConfig(m=3)) as gateway:
                start = gateway.cycle
                reached = await gateway.wait_cycles(5)
                return start, reached, gateway.cycle

        start, reached, now = run_async(scenario())
        assert reached >= start + 5
        assert now >= reached


class TestBackpressure:
    def test_overload_rejects_instead_of_buffering(self, run_async):
        async def scenario():
            config = GatewayConfig(m=3, planes=1, queue_capacity=2)
            async with AsyncGateway(config) as gateway:
                # Flood one destination without retry; the VOQ bound must
                # reject the excess at admission time.
                tasks = [
                    asyncio.ensure_future(gateway.send(3, payload=k))
                    for k in range(40)
                ]
                done = await asyncio.gather(*tasks, return_exceptions=True)
                stats = gateway.stats()
            return done, stats

        done, stats = run_async(scenario())
        delivered = [r for r in done if not isinstance(r, Exception)]
        rejected = [r for r in done if isinstance(r, AdmissionRejectedError)]
        assert delivered and rejected
        assert len(delivered) + len(rejected) == 40
        assert stats["queues"]["max_depth"] <= 2
        assert stats["queues"]["rejected"] == len(rejected)

    def test_retry_after_hint_is_positive_and_honoured(self, run_async):
        async def scenario():
            config = GatewayConfig(m=3, planes=1, queue_capacity=1)
            async with AsyncGateway(config) as gateway:
                first = asyncio.ensure_future(gateway.send(2, payload="a"))
                await asyncio.sleep(0)
                try:
                    hint = None
                    await gateway.send(2, payload="b")
                except AdmissionRejectedError as error:
                    hint = error.retry_after_cycles
                # With retries the same word eventually lands.
                second = await gateway.send_with_retry(2, payload="b")
                await first
                return hint, second

        hint, second = run_async(scenario())
        if hint is not None:  # first word may already have ridden a frame
            assert hint >= 1
        assert second.payload == "b"


class TestPlaneFailure:
    def test_operator_kill_mid_run_keeps_delivery_total(self, run_async):
        async def scenario():
            config = GatewayConfig(m=3, planes=2, queue_capacity=16)
            rng = random.Random(11)
            async with AsyncGateway(config) as gateway:
                tasks = [
                    asyncio.ensure_future(
                        gateway.send_with_retry(
                            rng.randrange(8), payload=index, attempts=64
                        )
                    )
                    for index in range(300)
                ]
                # Let traffic get airborne, then kill a plane under it.
                await gateway.wait_cycles(3)
                stranded = gateway.kill_plane(0, reason="test kill")
                receipts = await asyncio.gather(*tasks)
                stats = gateway.stats()
            return stranded, receipts, stats

        stranded, receipts, stats = run_async(scenario())
        assert all(
            receipt.payload == index for index, receipt in enumerate(receipts)
        )
        # The dead plane carried words; they were requeued, not dropped.
        assert stranded > 0
        assert stats["queues"]["requeued"] >= stranded
        healthy = [plane["healthy"] for plane in stats["planes"]]
        assert healthy == [False, True]
        # Everything after the kill rode the surviving plane.
        assert stats["planes"][1]["words_delivered"] > 0

    def test_faulty_plane_auto_quarantines_on_misdelivery(
        self, run_async, stuck_switch_backend
    ):
        async def scenario(window, depth):
            def factory(plane_id, m):
                # Plane 0 has a late-stage stuck switch: reliably
                # misroutes.
                backend = stuck_switch_backend(m) if plane_id == 0 else "bnb"
                return BackendPlane(
                    plane_id, m, backend=backend,
                    batch_window=window, depth=depth,
                )

            config = GatewayConfig(m=3, planes=2, queue_capacity=16)
            rng = random.Random(13)
            async with AsyncGateway(config, plane_factory=factory) as gateway:
                receipts = await asyncio.gather(
                    *(
                        gateway.send_with_retry(
                            rng.randrange(8), payload=index, attempts=64
                        )
                        for index in range(200)
                    )
                )
                stats = gateway.stats()
            return receipts, stats

        # Both plane shapes: the pipeline's timing and a window.
        for window, depth in ((1, 3), (8, 0)):
            receipts, stats = run_async(scenario(window, depth))
            # 100% delivery despite the physical fault...
            assert all(
                receipt.payload == index
                for index, receipt in enumerate(receipts)
            )
            # ...because the misdelivering plane was failed and drained.
            assert stats["planes"][0]["healthy"] is False
            assert "misdelivered" in stats["planes"][0]["failure"]
            assert stats["queues"]["requeued"] > 0

    def test_resilient_plane_absorbs_fault_without_dying(self, run_async):
        """A windowed (batch) resilient plane fed multi-frame blocks
        under a stuck fault delivers every word, quarantines, and
        confirms the class the object oracle confirms for that fault."""
        fault = [(SwitchCoordinate(2, 0, 0, 0, 0), 1)]

        def factory(plane_id, m):
            mask = fault_mask_for(m, fault) if plane_id == 0 else None
            return BackendPlane(
                plane_id, m, batch_window=8, policy=FaultPolicy(m, mask=mask)
            )

        async def scenario():
            config = GatewayConfig(
                m=3, planes=2, queue_capacity=16, resilient=True,
                engine="batch", batch_window=8,
            )
            async with AsyncGateway(config, plane_factory=factory) as gateway:
                result = await gateway.send_batch(
                    [line for _ in range(6) for line in range(8)],
                    retry_attempts=64,
                )
                planes = gateway.planes
                stats = gateway.stats()
            return result, planes, stats

        result, planes, stats = run_async(scenario())
        assert result.delivered == 48
        assert planes[0].batches_routed < planes[0].frames_delivered
        # The faulty plane stayed in the pool: its policy quarantined
        # the primary and rode the Benes spare instead.
        assert stats["planes"][0]["healthy"] is True
        assert stats["planes"][0]["service_state"] == "quarantined"
        oracle = ResilientFabric(
            3,
            pipeline=PipelinedBNBFabric(
                3, control_override=stuck_override_set(fault)
            ),
        )
        oracle.check()
        assert sorted(planes[0].policy.registry.confirmed_faults) == sorted(
            oracle.registry.confirmed_faults
        )
        modes = stats["delivery_modes"]
        assert modes.get("failover", 0) + modes.get("degraded", 0) > 0

    def test_resilient_vector_plane_absorbs_fault_without_dying(
        self, run_async
    ):
        """The pipelined twin of the test above: a window-1 resilient
        plane seeded with a fault mask quarantines its primary and keeps
        delivering via the Benes spare."""

        def factory(plane_id, m):
            mask = (
                fault_mask_for(m, [(SwitchCoordinate(2, 0, 0, 0, 0), 1)])
                if plane_id == 0
                else None
            )
            return BackendPlane(
                plane_id, m, batch_window=1, depth=m,
                policy=FaultPolicy(m, mask=mask),
            )

        async def scenario():
            config = GatewayConfig(
                m=3, planes=2, queue_capacity=16, resilient=True,
                engine="vector",
            )
            rng = random.Random(17)
            async with AsyncGateway(config, plane_factory=factory) as gateway:
                receipts = await asyncio.gather(
                    *(
                        gateway.send_with_retry(
                            rng.randrange(8), payload=index, attempts=64
                        )
                        for index in range(120)
                    )
                )
                stats = gateway.stats()
            return receipts, stats

        receipts, stats = run_async(scenario())
        assert all(
            receipt.payload == index for index, receipt in enumerate(receipts)
        )
        assert stats["planes"][0]["healthy"] is True
        assert stats["planes"][0]["depth"] == 3
        assert stats["planes"][0]["service_state"] == "quarantined"
        assert stats["planes"][1]["service_state"] == "healthy"
        modes = stats["delivery_modes"]
        assert modes.get("failover", 0) + modes.get("degraded", 0) > 0

    @pytest.mark.parametrize("engine", ["batch", "vector"])
    def test_inject_fault_quarantines_live_plane(self, run_async, engine):
        """Operator fault injection through the gateway API: the target
        plane walks detection -> quarantine -> failover while every
        word keeps getting delivered."""

        async def scenario():
            config = GatewayConfig(
                m=3, planes=2, queue_capacity=16, resilient=True,
                engine=engine,
            )
            rng = random.Random(23)
            async with AsyncGateway(config) as gateway:
                described = gateway.inject_fault(0, (2, 0, 0, 0, 0), 1)
                receipts = await asyncio.gather(
                    *(
                        gateway.send_with_retry(
                            rng.randrange(8), payload=index, attempts=64
                        )
                        for index in range(120)
                    )
                )
                stats = gateway.stats()
            return described, receipts, stats

        described, receipts, stats = run_async(scenario())
        assert described["backend"] == "bnb"
        assert all(
            receipt.payload == index for index, receipt in enumerate(receipts)
        )
        assert stats["planes"][0]["service_state"] == "quarantined"
        assert stats["planes"][1]["service_state"] == "healthy"

    def test_kill_plane_rejects_ids_outside_the_pool(self, run_async):
        async def scenario():
            config = GatewayConfig(m=3, planes=2)
            async with AsyncGateway(config) as gateway:
                for plane_id in (-1, 2):
                    with pytest.raises(InputError, match="out of range"):
                        gateway.kill_plane(plane_id)
                receipt = await gateway.send(4, payload="still served")
                return receipt, gateway.stats()

        receipt, stats = run_async(scenario())
        assert receipt.payload == "still served"
        # Neither refused id killed anything: -1 is not the last plane.
        assert [plane["healthy"] for plane in stats["planes"]] == [
            True,
            True,
        ]

    def test_inject_fault_rejects_bad_targets(self, run_async):
        async def scenario():
            async with AsyncGateway(GatewayConfig(m=3, planes=1)) as gateway:
                with pytest.raises(InputError):
                    gateway.inject_fault(5, (2, 0, 0, 0, 0), 1)
                # A plain (non-resilient) plane cannot take injections.
                with pytest.raises(InputError):
                    gateway.inject_fault(0, (2, 0, 0, 0, 0), 1)

        run_async(scenario())


class TestShutdown:
    def test_stop_drains_backlog(self, run_async):
        async def scenario():
            config = GatewayConfig(m=3, planes=1, queue_capacity=8)
            gateway = AsyncGateway(config)
            await gateway.start()
            rng = random.Random(19)
            tasks = [
                asyncio.ensure_future(
                    gateway.send_with_retry(rng.randrange(8), payload=k)
                )
                for k in range(40)
            ]
            await asyncio.sleep(0)
            await gateway.stop(drain=True)
            results = await asyncio.gather(*tasks, return_exceptions=True)
            return results, gateway.stats()

        results, stats = run_async(scenario())
        # Drained shutdown delivers everything already admitted; words
        # rejected by a full queue during the shutdown race surface as
        # backpressure or closed-gateway errors, never as silent loss.
        for result in results:
            assert not isinstance(result, Exception) or isinstance(
                result, (AdmissionRejectedError, GatewayClosedError)
            )
        assert stats["queues"]["queued"] == 0

    def test_stop_without_drain_fails_words_inside_planes(self, run_async):
        """A word riding a pipelined plane when the gateway stops
        without draining can never be delivered: its sender gets
        GatewayClosedError instead of waiting forever."""

        async def scenario():
            config = GatewayConfig(m=3, planes=1, engine="vector")
            gateway = AsyncGateway(config)
            await gateway.start()
            task = asyncio.ensure_future(gateway.send(5, payload="x"))
            await asyncio.sleep(0)  # admitted
            await gateway.wait_cycles(1)  # dispatched, m cycles to go
            assert gateway.planes[0].in_flight == 1
            await gateway.stop(drain=False)
            with pytest.raises(GatewayClosedError):
                await asyncio.wait_for(task, 5.0)

        run_async(scenario())

    def test_stats_are_json_safe(self, run_async):
        import json

        async def scenario():
            async with AsyncGateway(GatewayConfig(m=3, planes=2)) as gateway:
                await gateway.send(1)
                return gateway.stats()

        stats = run_async(scenario())
        encoded = json.loads(json.dumps(stats))
        assert encoded["delivered_words"] == 1
        assert encoded["planes"][0]["kind"] == "BackendPlane"
