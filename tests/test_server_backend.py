"""Serving on registered backends: pinned engines, auto-select, prewarm.

The gateway half of the backend arena: ``engine="krbenes"`` /
``"msorter"`` pin a registered backend, ``engine="auto"`` serves the
measured winner, and either way the compile-once caches are warm
before the first frame — a server boot pays the cold start, traffic
never does.
"""

import numpy as np
import pytest

from repro.backends import backend_names, backend_specs, compiled_backend
from repro.backends.arena import clear_arena_cache
from repro.core.plan import compiled_plan
from repro.obs import GatewayInstrumentation, Registry
from repro.server import (
    AsyncGateway,
    BackendPlane,
    GatewayConfig,
    resilient_engines,
)

pytestmark = pytest.mark.asyncio_suite


def _config(engine, m=3, planes=1, capacity=64, window=8):
    return GatewayConfig(
        m=m,
        planes=planes,
        queue_capacity=capacity,
        engine=engine,
        batch_window=window,
    )


def _burst(m, frames, seed=0):
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [rng.permutation(1 << m) for _ in range(frames)]
    ).astype(np.int64)


class TestConfigValidation:
    def test_registered_backend_names_are_valid_engines(self):
        for name in backend_names():
            assert _config(name).engine == name

    def test_auto_is_a_valid_engine(self):
        assert _config("auto").engine == "auto"

    def test_unknown_engine_rejected(self):
        for engine in ("warp-drive", "object", "vector"):
            with pytest.raises(ValueError, match="registered"):
                _config(engine)

    def test_backend_engines_have_no_resilient_variant(self):
        for engine in ("auto", "msorter", "krbenes", "bnb-object"):
            with pytest.raises(ValueError, match="no resilient variant"):
                GatewayConfig(m=3, engine=engine, resilient=True)

    def test_fault_mask_support_decides_resilience(self):
        """``resilient=True`` is valid exactly for the engines whose
        backend's registry entry has ``supports_fault_mask``."""
        assert resilient_engines() == ["batch", "bnb"]
        for engine in resilient_engines():
            assert GatewayConfig(m=3, engine=engine, resilient=True).resilient
        masked = {spec.name for spec in backend_specs() if spec.supports_fault_mask}
        assert masked == {"bnb"}


class TestPinnedBackendServing:
    @pytest.mark.parametrize("engine", ["krbenes", "msorter"])
    def test_full_delivery_on_pinned_backend(self, run_async, engine):
        async def scenario():
            async with AsyncGateway(_config(engine)) as gateway:
                dests = _burst(3, frames=8)
                result = await gateway.send_batch(dests)
                return result, gateway.stats()

        result, stats = run_async(scenario())
        assert result.delivered == 64
        assert result.mode_table == ["clean"]
        assert stats["engine"] == engine
        assert stats["backend"] == engine
        assert stats["arena"] is None
        plane = stats["planes"][0]
        assert plane["engine"] == "backend"
        assert plane["backend"] == engine
        assert plane["batches_routed"] >= 1

    def test_planes_share_one_compiled_engine(self):
        gateway = AsyncGateway(_config("msorter", planes=3))
        engines = {id(plane.backend) for plane in gateway.planes}
        assert engines == {id(compiled_backend("msorter", 3))}


class TestAutoSelect:
    def test_auto_serves_the_measured_winner(self, run_async):
        async def scenario():
            async with AsyncGateway(_config("auto")) as gateway:
                result = await gateway.send_batch(_burst(3, frames=6))
                return result, gateway.stats(), gateway.arena_decision

        result, stats, decision = run_async(scenario())
        assert result.delivered == 48
        assert decision is not None
        assert decision.workload == "batch"
        assert decision.backend == min(
            decision.table, key=decision.table.__getitem__
        )
        assert stats["backend"] == decision.backend
        assert stats["arena"]["backend"] == decision.backend
        assert sorted(stats["arena"]["seconds_per_frame"]) == backend_names()
        assert stats["arena"]["spread"] >= 1.0
        assert stats["planes"][0]["backend"] == decision.backend

    def test_second_auto_gateway_reuses_the_calibration(self, monkeypatch):
        from repro.backends import arena as arena_module

        AsyncGateway(_config("auto"))  # pays the calibration

        def _boom(*_args, **_kwargs):
            raise AssertionError("auto boot re-timed a cached cell")

        monkeypatch.setattr(arena_module, "_time_single", _boom)
        monkeypatch.setattr(arena_module, "_time_batch", _boom)
        gateway = AsyncGateway(_config("auto"))
        assert gateway.backend_name in backend_names()


class TestObservability:
    def test_backend_info_gauge_exported(self, run_async):
        async def scenario():
            gateway = AsyncGateway(_config("msorter"))
            instr = GatewayInstrumentation(
                gateway, registry=Registry()
            ).attach()
            async with gateway:
                await gateway.send_batch(_burst(3, frames=2))
            return instr

        instr = run_async(scenario())
        snap = instr.metrics_snapshot()
        samples = snap["repro_backend_info"]["samples"]
        assert [
            (s["labels"]["backend"], s["labels"]["m"], s["value"])
            for s in samples
        ] == [("msorter", "3", 1.0)]
        text = instr.render_prometheus()
        assert 'repro_backend_info{backend="msorter",m="3"} 1' in text

    def test_object_gateway_reports_object_backend(self):
        gateway = AsyncGateway(GatewayConfig(m=3, engine="bnb-object"))
        instr = GatewayInstrumentation(
            gateway, registry=Registry()
        ).attach()
        snap = instr.metrics_snapshot()
        labels = snap["repro_backend_info"]["samples"][0]["labels"]
        assert labels["backend"] == "bnb-object"
        assert gateway.stats()["backend"] == "bnb-object"


class TestPrewarm:
    """Boot pays every compile; traffic hits only warm caches."""

    def test_backend_gateway_compiles_at_boot_not_under_traffic(
        self, run_async
    ):
        compiled_plan.cache_clear()
        compiled_backend.cache_clear()
        clear_arena_cache()
        gateway = AsyncGateway(_config("msorter"))
        # Construction compiled both the shared routing plan and the
        # chosen backend (the prewarm hook) — before any frame exists.
        assert compiled_plan.cache_info().currsize >= 1
        assert compiled_backend.cache_info().currsize >= 1
        plan_misses = compiled_plan.cache_info().misses
        backend_misses = compiled_backend.cache_info().misses

        async def scenario():
            async with gateway:
                return await gateway.send_batch(_burst(3, frames=8))

        result = run_async(scenario())
        assert result.delivered == 64
        # No compile happened while traffic flowed.
        assert compiled_plan.cache_info().misses == plan_misses
        assert compiled_backend.cache_info().misses == backend_misses

    def test_batch_gateway_prewarms_the_plan(self):
        compiled_plan.cache_clear()
        AsyncGateway(_config("batch"))
        assert compiled_plan.cache_info().currsize >= 1

    def test_first_frame_latency_shows_no_cold_start(self, run_async):
        # The serving-visible form of the prewarm contract: the first
        # frame's delivery latency (in cycles — the gateway's own
        # stage timeline) equals the steady state, no warm-up bubble.
        async def scenario():
            async with AsyncGateway(_config("msorter", window=1)) as gw:
                receipts = []
                for k in range(6):
                    receipts.append(await gw.send(k % gw.n, payload=k))
                return [r.latency_cycles for r in receipts]

        latencies = run_async(scenario())
        assert latencies[0] == min(latencies)

    def test_standalone_backend_plane_accepts_a_name(self):
        plane = BackendPlane(0, 3, backend="krbenes")
        assert plane.backend is compiled_backend("krbenes", 3)
        assert plane.describe()["backend"] == "krbenes"
