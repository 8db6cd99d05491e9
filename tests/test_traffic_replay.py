"""Scenario library, trace format round-trip, and the replay harness
(including the ``repro replay`` CLI surface)."""

import asyncio
import json

import pytest

from repro.cli import main
from repro.exceptions import InputError
from repro.server import AsyncGateway, GatewayConfig
from repro.traffic import (
    SCENARIOS,
    Scenario,
    TenantSpec,
    Trace,
    load_trace,
    parse_tenant_spec,
    replay_scenario,
    replay_trace,
    synthesize,
)


class TestScenarios:
    def test_builtin_library_shapes(self):
        assert set(SCENARIOS) == {
            "uniform", "hotspot", "multicast", "tenants", "mixed"
        }
        assert SCENARIOS["multicast"].multicast_fraction == 1.0
        assert SCENARIOS["tenants"].tenant_weights == {"gold": 8, "bronze": 1}

    def test_scenario_validation(self):
        with pytest.raises(InputError):
            Scenario(name="x", distribution="bursty")
        with pytest.raises(InputError):
            Scenario(name="x", multicast_fraction=1.5)
        with pytest.raises(InputError):
            Scenario(name="x", fanout=1)
        with pytest.raises(InputError):
            TenantSpec("gold", weight=0)

    def test_parse_tenant_spec(self):
        assert parse_tenant_spec("gold:8,bronze:1") == {
            "gold": 8, "bronze": 1
        }
        assert parse_tenant_spec("solo") == {"solo": 1}
        for bad in ("", "a:x", "a:0", "a:1,a:2"):
            with pytest.raises(InputError):
                parse_tenant_spec(bad)


class TestSynthesize:
    def test_deterministic_in_seed(self):
        scenario = SCENARIOS["mixed"]
        first = synthesize(scenario, 16, 200, seed=7)
        second = synthesize(scenario, 16, 200, seed=7)
        other = synthesize(scenario, 16, 200, seed=8)
        assert first.events == second.events
        assert first.events != other.events

    def test_respects_the_scenario_mix(self):
        trace = synthesize(SCENARIOS["multicast"], 16, 100, seed=3)
        assert trace.multicast_events == 100
        assert all(2 <= e.words <= 8 for e in trace.events)
        unicast = synthesize(SCENARIOS["hotspot"], 16, 100, seed=3)
        assert unicast.multicast_events == 0
        assert unicast.tenants == {"default": 1}

    def test_tenant_shares_drive_attribution(self):
        trace = synthesize(SCENARIOS["tenants"], 16, 400, seed=5)
        by_tenant = {}
        for event in trace.events:
            by_tenant[event.tenant] = by_tenant.get(event.tenant, 0) + 1
        # Equal shares: both classes appear in force (not exact halves).
        assert by_tenant["gold"] > 100
        assert by_tenant["bronze"] > 100


class TestTraceRoundTrip:
    def test_save_load_identity(self, tmp_path):
        trace = synthesize(SCENARIOS["mixed"], 16, 64, seed=2)
        path = tmp_path / "trace.json"
        trace.save(path)
        loaded = load_trace(path)
        assert loaded.n == trace.n
        assert loaded.scenario == trace.scenario
        assert loaded.tenants == trace.tenants
        assert loaded.seed == 2
        assert loaded.events == trace.events

    def test_loader_validates(self, tmp_path):
        def reject(document):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(document))
            with pytest.raises(InputError):
                load_trace(path)

        good = synthesize(SCENARIOS["uniform"], 4, 4, seed=0).to_document()
        reject({**good, "version": 99})  # newer than this build
        reject({**good, "n": 0})
        reject({**good, "events": [{"tenant": "a", "dests": [9]}]})
        reject({**good, "events": [{"tenant": "a", "dests": [1, 1]}]})
        reject({**good, "events": [{"tenant": "", "dests": [1]}]})
        reject({**good, "events": "nope"})
        with pytest.raises(InputError):
            load_trace(tmp_path / "missing.json")

    def test_document_defaults(self):
        trace = Trace.from_document(
            {"version": 1, "n": 4, "events": [{"dests": [2]}]}
        )
        assert trace.tenants == {"default": 1}
        assert trace.events[0].tenant == "default"
        assert trace.scenario == "recorded"


class TestReplay:
    def replay(self, scenario, *, tenants=None, events=256, **kwargs):
        config = GatewayConfig(
            m=3, queue_capacity=32, engine="batch", tenants=tenants
        )

        async def run():
            async with AsyncGateway(config) as gateway:
                return await replay_scenario(
                    gateway, scenario, events=events, seed=1, **kwargs
                )

        return asyncio.run(run())

    def test_uniform_full_delivery(self):
        report = self.replay("uniform")
        assert report.words_delivered == report.words_offered == 256
        assert report.check_slos(require_delivery=True) == []
        assert report.cycles and report.offered_load is not None

    def test_multicast_copies_accounted(self):
        report = self.replay("multicast", events=64)
        assert report.multicast_requests == 64
        assert report.multicast_copies == report.words_offered
        assert report.multicast_delivered == report.multicast_copies
        assert report.unicast_words == 0

    def test_tenant_classes_reported_separately(self):
        scenario = SCENARIOS["tenants"]
        report = self.replay(
            scenario, tenants=scenario.tenant_weights, events=300
        )
        assert set(report.per_tenant) == {"gold", "bronze"}
        for row in report.per_tenant.values():
            assert row.delivered == row.offered
            assert row.latencies

    def test_slo_violations_reported(self):
        report = self.replay("hotspot", events=200)
        # A 0-cycle SLO is unmeetable: every class must violate it.
        violations = report.check_slos(slo_p50=0, slo_p99=0)
        assert len(violations) == 2
        assert "p50" in violations[0] and "p99" in violations[1]
        assert report.check_slos() == []

    def test_replay_trace_rejects_bad_burst(self):
        trace = synthesize(SCENARIOS["uniform"], 8, 4, seed=0)

        async def run():
            async with AsyncGateway(GatewayConfig(m=3)) as gateway:
                return await replay_trace(gateway, trace, burst=0)

        with pytest.raises(InputError):
            asyncio.run(run())

    def test_unknown_scenario_rejected(self):
        with pytest.raises(InputError):
            self.replay("rush-hour")


class TestReplayCli:
    def test_replay_scenario_text(self, capsys):
        code = main(
            [
                "replay", "16", "--scenario", "uniform",
                "--events", "128", "--require-delivery",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario : uniform" in out
        assert "128 offered, 128 delivered" in out

    def test_replay_json_and_save_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        code = main(
            [
                "replay", "16", "--scenario", "multicast",
                "--events", "64", "--json",
                "--save-trace", str(trace_path),
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["multicast"]["delivered"] == (
            document["multicast"]["copies"]
        )
        assert document["slo_violations"] == []
        # The saved trace replays identically from disk.
        code = main(
            ["replay", "16", "--trace", str(trace_path), "--json"]
        )
        assert code == 0
        again = json.loads(capsys.readouterr().out)
        assert again["words_offered"] == document["words_offered"]

    def test_replay_slo_failure_exits_one(self, capsys):
        code = main(
            [
                "replay", "16", "--scenario", "hotspot",
                "--events", "64", "--slo-p99", "0",
            ]
        )
        assert code == 1
        assert "SLO violation" in capsys.readouterr().err

    def test_replay_input_errors_exit_two(self, capsys):
        assert main(["replay", "16", "--scenario", "nope"]) == 2
        assert main(["replay"]) == 2  # no size, no --connect
        assert main(["replay", "12"]) == 2  # not a power of two
        err = capsys.readouterr().err
        assert "error:" in err

    def test_replay_trace_size_mismatch(self, tmp_path, capsys):
        trace = synthesize(SCENARIOS["uniform"], 8, 4, seed=0)
        path = tmp_path / "small.json"
        trace.save(path)
        assert main(["replay", "16", "--trace", str(path)]) == 2
        assert "N=8" in capsys.readouterr().err
