"""The batch dataplane: ``send_batch``, the ``batch`` engine, the client.

The per-batch counterpart of ``test_server_gateway``: one call admits
thousands of words, the frame-axis kernel routes whole windows per
gather, and a single :class:`BatchResult` comes back — delivery,
backpressure, retry, and shutdown semantics all per batch.
"""

import asyncio

import numpy as np
import pytest

from repro.client import GatewayClient
from repro.exceptions import (
    GatewayClosedError,
    GatewayRequestError,
    InputError,
    PlaneUnavailableError,
)
from repro.server import (
    AsyncGateway,
    BackendPlane,
    GatewayConfig,
    GatewayServer,
)

pytestmark = pytest.mark.asyncio_suite


def _batch_config(m=6, capacity=256, window=32, planes=1):
    return GatewayConfig(
        m=m,
        planes=planes,
        queue_capacity=capacity,
        engine="batch",
        batch_window=window,
    )


def _permutation_burst(m, frames, seed=0):
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [rng.permutation(1 << m) for _ in range(frames)]
    ).astype(np.int64)


class TestSendBatch:
    def test_full_delivery_m6(self, run_async):
        async def scenario():
            async with AsyncGateway(_batch_config()) as gateway:
                dests = _permutation_burst(6, frames=50)
                result = await gateway.send_batch(dests)
            return dests, result

        dests, result = run_async(scenario())
        assert result.count == len(dests) == 3200
        assert result.delivered == 3200
        assert result.rejected == 0
        assert result.statuses.all()
        assert (result.latencies >= 1).all()
        assert (result.planes == 0).all()
        assert (result.frames >= 0).all()
        assert result.mode_table == ["clean"]
        assert (result.modes == 0).all()

    def test_empty_batch(self, run_async):
        async def scenario():
            async with AsyncGateway(_batch_config()) as gateway:
                return await gateway.send_batch(np.array([], dtype=np.int64))

        result = run_async(scenario())
        assert result.count == 0
        assert result.delivered == 0

    def test_single_send_rides_batch_plane(self, run_async):
        async def scenario():
            async with AsyncGateway(_batch_config(m=3)) as gateway:
                return await gateway.send(5, payload="solo")

        receipt = run_async(scenario())
        assert receipt.destination == 5
        assert receipt.payload == "solo"
        assert receipt.mode == "clean"

    def test_out_of_range_destination_raises(self, run_async):
        async def scenario():
            async with AsyncGateway(_batch_config(m=3)) as gateway:
                with pytest.raises(InputError, match="out of range"):
                    await gateway.send_batch(np.array([1, 2, 99]))
                with pytest.raises(InputError, match="one-dimensional"):
                    await gateway.send_batch(np.zeros((2, 2), dtype=np.int64))
                with pytest.raises(InputError, match="retry_attempts"):
                    await gateway.send_batch(
                        np.array([1]), retry_attempts=-1
                    )

        run_async(scenario())

    def test_overload_marks_rejects_with_hints(self, run_async):
        async def scenario():
            config = GatewayConfig(
                m=1,
                planes=1,
                queue_capacity=2,
                engine="batch",
                batch_window=4,
            )
            async with AsyncGateway(config) as gateway:
                # 10 words for one destination into a 2-deep queue,
                # admitted in one synchronous round: exactly 2 fit.
                return await gateway.send_batch(np.zeros(10, dtype=np.int64))

        result = run_async(scenario())
        assert result.delivered == 2
        assert result.rejected == 8
        accepted = result.statuses.astype(bool)
        assert (result.retry_after[~accepted] >= 1).all()
        assert (result.retry_after[accepted] == 0).all()
        assert (result.latencies[~accepted] == -1).all()

    def test_retry_attempts_drain_the_overload(self, run_async):
        async def scenario():
            config = GatewayConfig(
                m=1,
                planes=1,
                queue_capacity=2,
                engine="batch",
                batch_window=4,
            )
            async with AsyncGateway(config) as gateway:
                return await gateway.send_batch(
                    np.zeros(10, dtype=np.int64), retry_attempts=16
                )

        result = run_async(scenario())
        assert result.delivered == 10
        assert result.rejected == 0
        assert result.statuses.all()

    def test_no_healthy_plane_raises_upfront(self, run_async):
        async def scenario():
            async with AsyncGateway(_batch_config(m=3)) as gateway:
                gateway.kill_plane(0)
                with pytest.raises(PlaneUnavailableError):
                    await gateway.send_batch(np.array([1, 2]))

        run_async(scenario())

    def test_stop_fails_stranded_batch(self, run_async, monkeypatch):
        async def scenario():
            # Freeze dispatch so the batch stays queued, then stop: the
            # tracker must fail with GatewayClosedError, not hang.
            monkeypatch.setattr(
                BackendPlane, "ready", property(lambda self: False)
            )
            gateway = await AsyncGateway(_batch_config(m=3)).start()
            task = asyncio.ensure_future(
                gateway.send_batch(np.arange(8, dtype=np.int64))
            )
            await asyncio.sleep(0)  # run send_batch up to its await
            await gateway.stop(drain=False)
            with pytest.raises(GatewayClosedError):
                await task

        run_async(scenario())

    def test_concurrent_batches_interleave(self, run_async):
        async def scenario():
            async with AsyncGateway(_batch_config(m=4, window=8)) as gateway:
                bursts = [
                    _permutation_burst(4, frames=6, seed=seed)
                    for seed in range(5)
                ]
                results = await asyncio.gather(
                    *(gateway.send_batch(burst) for burst in bursts)
                )
            return bursts, results

        bursts, results = run_async(scenario())
        for burst, result in zip(bursts, results):
            assert result.delivered == len(burst)
            assert result.statuses.all()


class TestBatchEngine:
    def test_window_buffers_then_routes_in_one_step(self, run_async):
        async def scenario():
            async with AsyncGateway(
                _batch_config(m=3, window=16)
            ) as gateway:
                await gateway.send_batch(_permutation_burst(3, frames=32))
                return gateway.planes[0].describe()

        described = run_async(scenario())
        assert described["backend"] == "bnb"
        assert described["depth"] == 0
        assert described["batch_window"] == 16
        assert described["frames_delivered"] == 32
        # The window amortized: far fewer kernel calls than frames.
        assert described["batches_routed"] < 32

    def test_config_accepts_batch_resilient_combo(self):
        assert GatewayConfig(m=3, engine="batch", resilient=True).resilient
        with pytest.raises(Exception):
            GatewayConfig(m=3, engine="batch", batch_window=0)


class TestClientBatch:
    @pytest.mark.parametrize("binary", [False, True])
    def test_client_send_batch_round_trip(self, run_async, binary):
        async def scenario():
            gateway = await AsyncGateway(_batch_config()).start()
            server = await GatewayServer(gateway).start()
            try:
                async with GatewayClient(
                    "127.0.0.1", server.port, binary=binary
                ) as client:
                    dests = _permutation_burst(6, frames=16)
                    result = await client.send_batch(dests, retry=4)
            finally:
                await server.stop()
                await gateway.stop()
            return dests, result

        dests, result = run_async(scenario())
        assert result["count"] == len(dests)
        assert result["delivered"] == len(dests)
        assert isinstance(result["statuses"], np.ndarray)
        assert result["statuses"].dtype == np.int64
        assert result["statuses"].all()
        assert result["mode_table"] == ["clean"]

    def test_wire_payloads_field_is_an_ignored_unknown_field(self, run_async):
        """``send_batch`` carries no payloads; a request that still sends
        the field is served like one without it, under the protocol's
        ignore-what-you-don't-know rule."""

        async def scenario():
            gateway = await AsyncGateway(_batch_config()).start()
            server = await GatewayServer(gateway).start()
            try:
                async with GatewayClient("127.0.0.1", server.port) as client:
                    return await client.request(
                        "send_batch", dests=[1, 2, 3], payloads=["only-one"]
                    )
            finally:
                await server.stop()
                await gateway.stop()

        response = run_async(scenario())
        assert response["delivered"] == 3

    def test_client_side_send_retry_honours_hints(self, run_async):
        async def scenario():
            config = GatewayConfig(
                m=1, planes=1, queue_capacity=1, engine="batch",
                batch_window=2,
            )
            gateway = await AsyncGateway(config).start()
            server = await GatewayServer(gateway).start()
            try:
                async with GatewayClient(
                    "127.0.0.1",
                    server.port,
                    seconds_per_cycle=0.0005,
                ) as client:
                    responses = await asyncio.gather(
                        *(
                            client.send(k % 2, retry=True, max_attempts=64)
                            for k in range(12)
                        )
                    )
            finally:
                await server.stop()
                await gateway.stop()
            return responses

        responses = run_async(scenario())
        assert len(responses) == 12
        assert all(response["ok"] for response in responses)

    def test_client_hello_negotiation_and_version_refusal(self, run_async):
        async def scenario():
            gateway = await AsyncGateway(_batch_config(m=3)).start()
            server = await GatewayServer(gateway).start()
            try:
                async with GatewayClient(
                    "127.0.0.1", server.port
                ) as client:
                    negotiated = (
                        client.protocol_version,
                        client.features,
                        client.n,
                    )
                    with pytest.raises(GatewayRequestError) as excinfo:
                        await client.hello(version=[99])
            finally:
                await server.stop()
                await gateway.stop()
            return negotiated, excinfo.value

        negotiated, error = run_async(scenario())
        version, features, n = negotiated
        assert version == (2, 0)
        assert "batch" in features and "binary" in features
        assert n == 8
        assert error.slug == "unsupported-version"
        assert error.response["protocol_version"] == [2, 0]
