"""CLI tests (direct invocation of repro.cli.main)."""

import argparse
import json

import pytest

from repro.cli import build_parser, main
from repro.server import engine_names


def _engine_flag_choices(command):
    """The ``--engine`` choices of one subcommand, read off the parser."""
    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    flag = next(
        action
        for action in subparsers.choices[command]._actions
        if "--engine" in action.option_strings
    )
    return list(flag.choices)


class TestRoute:
    def test_route_bnb(self, capsys):
        assert main(["route", "16", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "delivered: True" in out

    def test_route_other_networks(self, capsys):
        for network in ("batcher", "bitonic", "benes", "koppelman", "crossbar"):
            assert main(["route", "8", "--network", network]) == 0

    def test_route_bad_size(self, capsys):
        assert main(["route", "12"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_route_json(self, capsys):
        assert main(["route", "16", "--seed", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["network"] == "bnb"
        assert payload["engine"] == "object"
        assert payload["n"] == 16
        assert payload["delivered"] is True
        assert sorted(payload["request"]) == list(range(16))
        assert payload["arrived"] == list(range(16))

    def test_route_fast_prose(self, capsys):
        assert main(["route", "16", "--seed", "3", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "bnb [fast]" in out
        assert "delivered: True" in out

    def test_route_fast_json_matches_object_path(self, capsys):
        assert main(["route", "16", "--seed", "3", "--fast", "--json"]) == 0
        fast = json.loads(capsys.readouterr().out)
        assert main(["route", "16", "--seed", "3", "--json"]) == 0
        slow = json.loads(capsys.readouterr().out)
        assert fast["engine"] == "fast"
        # Same seed, same request, same verified outcome either engine.
        assert fast["request"] == slow["request"]
        assert fast["arrived"] == slow["arrived"]
        assert fast["delivered"] is True

    def test_route_fast_non_bnb_exits_2(self, capsys):
        assert main(["route", "8", "--network", "batcher", "--fast"]) == 2
        assert "cannot route" in capsys.readouterr().err

    def test_route_fast_bad_size_exits_2(self, capsys):
        assert main(["route", "12", "--fast"]) == 2
        assert "error:" in capsys.readouterr().err


class TestRouteBackend:
    def test_pinned_backend_json(self, capsys):
        assert main(
            ["route", "8", "--seed", "3", "--backend", "msorter", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "backend"
        assert payload["backend"] == "msorter"
        assert payload["delivered"] is True
        assert payload["arrived"] == list(range(8))

    def test_every_registered_backend_routes(self, capsys):
        from repro.backends import backend_names

        for name in backend_names():
            assert main(["route", "8", "--backend", name]) == 0
            out = capsys.readouterr().out
            assert f"backend {name}" in out
            assert "delivered: True" in out

    def test_auto_resolves_to_a_registered_winner(self, capsys):
        from repro.backends import backend_names

        assert main(["route", "8", "--backend", "auto", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] in backend_names()
        assert payload["delivered"] is True

    def test_auto_prose_names_the_winner(self, capsys):
        assert main(["route", "8", "--backend", "auto"]) == 0
        assert "(arena winner)" in capsys.readouterr().out

    def test_backend_and_fast_conflict_exits_2(self, capsys):
        assert main(["route", "8", "--backend", "bnb", "--fast"]) == 2
        assert "--backend" in capsys.readouterr().err

    def test_unknown_backend_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["route", "8", "--backend", "nope"])

    def test_backend_choices_cover_registry_plus_auto(self):
        from repro.backends import backend_names

        parser = build_parser()
        args = parser.parse_args(["route", "8", "--backend", "krbenes"])
        assert args.backend == "krbenes"
        for name in backend_names() + ["auto"]:
            parser.parse_args(["route", "8", "--backend", name])

    def test_stats_engine_accepts_backend_names(self):
        parser = build_parser()
        args = parser.parse_args(["stats", "8", "--engine", "msorter"])
        assert args.engine == "msorter"
        parser.parse_args(["stats", "8", "--engine", "auto"])

    def test_serve_engine_accepts_auto_and_backend_names(self):
        from repro.backends import backend_names

        parser = build_parser()
        for engine in ("object", "vector", "batch", "auto") + tuple(
            backend_names()
        ):
            args = parser.parse_args(["serve", "8", "--engine", engine])
            assert args.engine == engine
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "8", "--engine", "warp"])

    @pytest.mark.parametrize("command", ["serve", "stats", "replay", "cluster"])
    def test_every_engine_flag_offers_the_gateway_engines(self, command):
        assert _engine_flag_choices(command) == engine_names()


class TestVerify:
    def test_verify_exhaustive(self, capsys):
        assert main(["verify", "4", "--mode", "exhaustive"]) == 0
        assert "24/24" in capsys.readouterr().out

    def test_verify_sampled(self, capsys):
        assert main(["verify", "16", "--samples", "10"]) == 0
        assert "10/10" in capsys.readouterr().out

    def test_verify_json(self, capsys):
        assert main(
            ["verify", "4", "--mode", "exhaustive", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["router"] == "bnb"
        assert payload["attempted"] == 24
        assert payload["delivered"] == 24
        assert payload["all_delivered"] is True
        assert payload["failures"] == []


class TestTables:
    def test_tables(self, capsys):
        assert main(["tables", "256", "--data-width", "8"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 2" in out
        assert "This paper" in out


class TestFigures:
    def test_figures(self, capsys):
        assert main(["figures", "--m", "3"]) == 0
        out = capsys.readouterr().out
        assert "generalized baseline network" in out
        assert "function node" in out


class TestFaults:
    def test_healthy_service(self, capsys):
        assert main(["faults", "8", "--batches", "2"]) == 0
        out = capsys.readouterr().out
        assert "batch 0  : mode=clean" in out
        assert "state     : healthy" in out

    def test_injected_fault_fails_over(self, capsys):
        assert main(
            ["faults", "8", "--stuck", "0,0,1,1,1", "--stuck-value", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "injected : stuck-at-0" in out
        assert "state     : quarantined" in out
        assert "confirmed : (0,0,1,1,1)/stuck-0" in out
        assert "quarantine" in out  # event log

    def test_bad_coordinate_format_exits_2(self, capsys):
        assert main(["faults", "8", "--stuck", "1,2,3"]) == 2
        assert "five comma-separated" in capsys.readouterr().err

    def test_non_integer_coordinate_exits_2(self, capsys):
        assert main(["faults", "8", "--stuck", "a,b,c,d,e"]) == 2
        assert "integers" in capsys.readouterr().err

    def test_unknown_coordinate_exits_2(self, capsys):
        assert main(["faults", "8", "--stuck", "9,9,9,9,9"]) == 2
        assert "not a switch" in capsys.readouterr().err

    def test_bad_size_exits_2(self, capsys):
        assert main(["faults", "12"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_vector_engine_prints_what_the_oracle_prints(self, capsys):
        """``--engine vector`` drives the serving fault policy; for the
        same fault and traffic it prints the object service's summary
        and event log line for line."""
        argv = ["faults", "8", "--stuck", "2,0,0,0,0", "--batches", "4"]
        assert main([*argv, "--engine", "object"]) == 0
        object_out = capsys.readouterr().out
        assert main([*argv, "--engine", "vector"]) == 0
        assert capsys.readouterr().out == object_out
        assert "state     : quarantined" in object_out

    def test_report(self, capsys):
        assert main(["faults", "8", "--report"]) == 0
        out = capsys.readouterr().out
        assert "Exhaustive single stuck-at sweep" in out
        assert "48/48" in out


class TestServe:
    def test_demo_prose(self, capsys):
        assert main(["serve", "8", "--demo", "40", "--planes", "2"]) == 0
        out = capsys.readouterr().out
        assert "gateway  : N=8" in out
        assert "40 offered" in out

    def test_demo_json(self, capsys):
        assert main(
            ["serve", "8", "--demo", "60", "--capacity", "4", "--json"]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["n"] == 8
        assert stats["delivered_words"] == 60
        assert stats["queues"]["max_depth"] <= 4
        assert stats["latency_cycles"]["p50"] >= 1

    def test_demo_resilient(self, capsys):
        assert main(
            [
                "serve", "8", "--demo", "64",
                "--resilient", "--engine", "batch", "--json",
            ]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["delivered_words"] == 64
        plane = stats["planes"][0]
        assert (plane["kind"], plane["backend"], plane["batch_window"]) == (
            "BackendPlane",
            "bnb",
            32,
        )
        assert plane["service_state"] == "healthy"

    def test_demo_vector_engine(self, capsys):
        assert main(
            ["serve", "8", "--demo", "40", "--engine", "vector", "--json"]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["delivered_words"] == 40
        assert stats["engine"] == "vector"
        plane = stats["planes"][0]
        assert (plane["kind"], plane["backend"], plane["depth"]) == (
            "BackendPlane",
            "bnb",
            3,
        )

    def test_demo_resilient_vector_composes(self, capsys):
        assert main(
            [
                "serve", "8", "--demo", "24",
                "--resilient", "--engine", "vector", "--json",
            ]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["delivered_words"] == 24
        plane = stats["planes"][0]
        assert (plane["kind"], plane["backend"], plane["depth"]) == (
            "BackendPlane",
            "bnb",
            3,
        )
        assert plane["service_state"] == "healthy"

    @pytest.mark.parametrize("engine", engine_names())
    def test_demo_serves_on_every_engine(self, capsys, engine):
        assert main(
            ["serve", "8", "--demo", "64", "--engine", engine, "--json"]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["engine"] == engine
        assert stats["delivered_words"] == 64
        assert [plane["healthy"] for plane in stats["planes"]] == [True]

    def test_serve_bad_size_exits_2(self, capsys):
        assert main(["serve", "12"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "8", "--resilient"],
            ["serve", "8", "--resilient", "--engine", "msorter"],
            ["serve", "8", "--capacity", "0"],
            ["replay", "8", "--capacity", "0"],
        ],
        ids=[
            "serve-resilient-object",
            "serve-resilient-msorter",
            "serve-capacity",
            "replay-capacity",
        ],
    )
    def test_refused_gateway_config_is_one_line_exit_2(self, capsys, argv):
        """A configuration ``GatewayConfig`` refuses reaches the shell
        as one ``error:`` line with exit 2, never a traceback."""
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestKeyboardInterrupt:
    def test_sigint_exits_130(self, capsys, monkeypatch):
        import repro.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._HANDLERS, "report", interrupted)
        assert main(["report"]) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "Traceback" not in err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_network_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["route", "8", "--network", "warp"])
