"""Tests for the ``repro`` command-line interface."""

import argparse
import dataclasses
import re
import socket
from pathlib import Path

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.experiments.config import ExperimentConfig
from repro.fl import (
    ALGORITHMS,
    ExecutionOptions,
    ResilienceOptions,
    SchedulingOptions,
    TransportOptions,
    WireOptions,
)
from repro.models.registry import available_models


def subcommands():
    """``{name: subparser}`` of every ``repro`` subcommand."""
    actions = build_parser()._actions
    return next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices


#: Where each run flag must land: ``flag -> (config attribute holding the
#: group, or None for the configuration itself; option name; one valid
#: non-default value; other flags that value needs to be consistent)``.
RUN_FLAGS = {
    "--backend": ("execution", "backend", "thread", ()),
    "--workers": ("execution", "workers", 3, ()),
    "--blas-threads": ("execution", "blas_threads", 2, ()),
    "--checkpoint-dir": ("execution", "checkpoint_dir", "ckpt", ()),
    "--compression": ("transport", "compression", "topk", ()),
    "--compression-bits": ("transport", "compression_bits", 4, ()),
    "--topk-fraction": ("transport", "topk_fraction", 0.25, ()),
    "--participation": ("scheduling", "participation", 0.5, ()),
    "--clients-per-round": ("scheduling", "clients_per_round", 2, ()),
    "--sampler": ("scheduling", "sampler", "weighted", ()),
    "--availability": ("scheduling", "availability", "bernoulli", ()),
    "--availability-rate": ("scheduling", "availability_rate", 0.5, ("--availability", "bernoulli")),
    "--straggler-model": ("scheduling", "straggler_model", "heavytail", ()),
    "--round-policy": ("scheduling", "round_policy", "deadline", ("--deadline", "5")),
    "--deadline": ("scheduling", "deadline", 7.5, ("--round-policy", "deadline")),
    "--over-selection": (
        "scheduling",
        "over_selection",
        1.5,
        ("--round-policy", "deadline", "--deadline", "5"),
    ),
    "--buffer-size": ("scheduling", "buffer_size", 3, ("--round-policy", "fedbuff")),
    "--population": (
        None,
        "population",
        50,
        ("--clients-per-round", "2", "--algorithms", "fedavg"),
    ),
    "--quorum": ("resilience", "quorum", 0.5, ()),
    "--max-retries": ("resilience", "max_retries", 4, ()),
    "--task-timeout": ("resilience", "task_timeout", 30.0, ()),
    "--fault-crash-rate": ("resilience", "fault_crash_rate", 0.25, ()),
    "--fault-exception-rate": ("resilience", "fault_exception_rate", 0.25, ()),
    "--fault-timeout-rate": ("resilience", "fault_timeout_rate", 0.25, ()),
    "--fault-corruption-rate": ("resilience", "fault_corruption_rate", 0.25, ()),
    "--host": ("wire", "wire_host", "0.0.0.0", ()),
    "--port": ("wire", "wire_port", 7001, ()),
    "--heartbeat-interval": ("wire", "heartbeat_interval", 0.5, ()),
    "--client-timeout": ("wire", "client_timeout", 12.5, ()),
    "--journal-dir": ("wire", "wire_journal_dir", "journal", ()),
    "--wire-fault-disconnect-rate": ("wire", "wire_fault_disconnect_rate", 0.25, ()),
    "--wire-fault-delay-rate": ("wire", "wire_fault_delay_rate", 0.25, ()),
    "--wire-fault-corrupt-rate": ("wire", "wire_fault_corrupt_rate", 0.25, ()),
    "--wire-delay-seconds": ("wire", "wire_delay_seconds", 0.01, ()),
}

#: The option groups ``ExperimentConfig`` composes, by attribute.
GROUPS = {
    "execution": ExecutionOptions,
    "transport": TransportOptions,
    "scheduling": SchedulingOptions,
    "resilience": ResilienceOptions,
    "wire": WireOptions,
}

#: How each run subcommand turns its parsed flags into a configuration.
RUN_CONFIGS = {"reproduce": cli._reproduce_config, "serve": cli._serve_config}


def offered_run_flags():
    """``(subcommand, flag)`` for every RUN_FLAGS entry a run subcommand offers."""
    parsers = subcommands()
    return [
        (command, flag)
        for command in RUN_CONFIGS
        for flag in RUN_FLAGS
        if flag in parsers[command]._option_string_actions
    ]


def read_option(config, group, name):
    return getattr(config if group is None else getattr(config, group), name)


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_every_command_has_a_handler(self):
        parser = build_parser()
        commands = list(subcommands())
        assert len(commands) == 8
        for command in commands:
            args = parser.parse_args([command])
            assert callable(args.handler)

    def test_reproduce_arguments_parsed(self):
        args = build_parser().parse_args(
            ["reproduce", "--model", "routenet", "--preset", "smoke", "--algorithms", "local", "fedprox"]
        )
        assert args.model == "routenet"
        assert args.preset == "smoke"
        assert args.algorithms == ["local", "fedprox"]

    def test_reproduce_compression_arguments_parsed(self):
        args = build_parser().parse_args(
            ["reproduce", "--compression", "quantize", "--compression-bits", "4", "--topk-fraction", "0.05"]
        )
        assert args.compression == "quantize"
        assert args.compression_bits == 4
        assert args.topk_fraction == 0.05
        assert build_parser().parse_args(["reproduce"]).compression is None

    def test_reproduce_rejects_unknown_compression(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "--compression", "gzip"])

    def test_reproduce_state_digest_flag(self):
        args = build_parser().parse_args(["reproduce", "--state-digest"])
        assert args.state_digest is True
        assert build_parser().parse_args(["reproduce"]).state_digest is False

    def test_serve_arguments_parsed(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--preset",
                "smoke",
                "--port",
                "0",
                "--heartbeat-interval",
                "0.5",
                "--client-timeout",
                "4",
                "--wire-fault-disconnect-rate",
                "0.1",
                "--state-digest",
            ]
        )
        assert args.handler is not None
        assert args.port == 0
        assert args.heartbeat_interval == 0.5
        assert args.client_timeout == 4.0
        assert args.wire_fault_disconnect_rate == 0.1
        assert args.state_digest is True
        defaults = build_parser().parse_args(["serve"])
        assert defaults.port == 7733
        assert defaults.wait_clients == 60.0
        assert defaults.quorum == 1.0

    def test_join_arguments_parsed(self):
        args = build_parser().parse_args(
            ["join", "--port", "7001", "--clients", "1", "2", "--drop-after", "3", "--kill-after", "2"]
        )
        assert args.port == 7001
        assert args.clients == [1, 2]
        assert args.drop_after == 3
        assert args.kill_after == 2
        defaults = build_parser().parse_args(["join"])
        assert defaults.clients is None
        assert defaults.drop_after is None and defaults.kill_after is None
        assert defaults.max_reconnects == 60

    def test_serve_rejects_invalid_wire_options(self, capsys):
        # Validation happens at config time and must exit with code 2.
        assert main(["serve", "--heartbeat-interval", "5", "--client-timeout", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_reports_a_busy_port(self, capsys):
        # Fails at once (before any corpus is built) with one error line.
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            port = taken.getsockname()[1]
            assert main(["serve", "--preset", "smoke", "--port", str(port)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot listen on 127.0.0.1:{port}" in err
        assert "Traceback" not in err

    def test_serve_rejects_unknown_algorithms(self, capsys):
        assert main(["serve", "--algorithms", "fedsgdmax"]) == 2
        assert "unknown algorithms" in capsys.readouterr().err

    def test_join_rejects_unknown_client_ids(self, capsys, tmp_path):
        code = main(
            ["join", "--preset", "smoke", "--clients", "42", "--cache-dir", str(tmp_path)]
        )
        assert code == 2
        assert "unknown client ids" in capsys.readouterr().err


class TestDeclaredOptions:
    """Every run option is declared once; its flag is derived, not re-typed."""

    def test_every_declared_option_has_a_flag_case(self):
        declared = {
            (attribute, option.name)
            for attribute, group in [*GROUPS.items(), (None, ExperimentConfig)]
            for option in dataclasses.fields(group)
            if "help" in option.metadata
        }
        assert declared == {(group, name) for group, name, _, _ in RUN_FLAGS.values()}
        assert len(declared) == 34  # 33 in the five groups + population
        offered = offered_run_flags()
        assert {flag for _, flag in offered} == set(RUN_FLAGS)
        assert sum(command == "reproduce" for command, _ in offered) == 25
        assert sum(command == "serve" for command, _ in offered) == 12

    @pytest.mark.parametrize("command, flag", offered_run_flags())
    def test_flag_value_lands_in_its_group(self, command, flag):
        group, name, value, needs = RUN_FLAGS[flag]
        args = build_parser().parse_args([command, flag, str(value), *needs])
        config = RUN_CONFIGS[command](args)
        assert read_option(config, group, name) == value
        assert type(read_option(config, group, name)) is type(value)

    @pytest.mark.parametrize("command", sorted(RUN_CONFIGS))
    def test_omitted_flags_leave_the_declared_defaults(self, command):
        config = RUN_CONFIGS[command](build_parser().parse_args([command]))
        expected = ExperimentConfig(name="defaults")
        if command == "serve":
            expected = expected.with_execution(backend="wire").with_wire(wire_port=7733)
        for group in GROUPS:
            assert getattr(config, group) == getattr(expected, group)
        assert config.population is None
        assert config.fl.compute_dtype == "float64"

    def test_compute_dtype_lands_on_the_fl_config(self):
        for command, build in RUN_CONFIGS.items():
            args = build_parser().parse_args([command, "--compute-dtype", "float32"])
            assert build(args).fl.compute_dtype == "float32"

    def test_cli_reference_lists_every_flag(self):
        """docs/cli.md's option table of each subcommand names exactly its flags."""
        text = (Path(__file__).resolve().parents[1] / "docs" / "cli.md").read_text()
        sections = re.split(r"^## `repro ([a-z-]+)`$", text, flags=re.MULTILINE)
        documented = dict(zip(sections[1::2], sections[2::2]))
        for command, parser in subcommands().items():
            rows = re.search(
                r"^\| option \| default \| meaning \|\n\|[- |]+\|\n((?:\|.*\n)+)",
                documented[command],
                flags=re.MULTILINE,
            )
            cells = [row.split("|")[1] for row in rows.group(1).splitlines()] if rows else []
            flags = [flag for cell in cells for flag in re.findall(r"--[a-z0-9-]+", cell)]
            assert sorted(flags) == sorted(set(parser._option_string_actions) - {"-h", "--help"}), command


class TestListCommands:
    def test_list_models_prints_every_model(self, capsys):
        assert main(["list-models", "--channels", "3"]) == 0
        output = capsys.readouterr().out
        for name in available_models():
            assert name in output

    def test_list_algorithms_prints_registry(self, capsys):
        assert main(["list-algorithms"]) == 0
        output = capsys.readouterr().out
        for name in ALGORITHMS:
            assert name in output


class TestRouteCommand:
    def test_route_small_design(self, capsys):
        code = main(
            ["route", "--suite", "iscas89", "--seed", "3", "--cells", "260", "--grid", "12"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Placement quality" in output
        assert "Global routing quality" in output
        assert "wirelength_um" in output


class TestCommunicationCommand:
    def test_table_covers_every_algorithm(self, capsys):
        assert main(["communication", "--model", "flnet", "--rounds", "10"]) == 0
        output = capsys.readouterr().out
        for name in ALGORITHMS:
            assert name in output

    @pytest.mark.parametrize("flag, value", [("--clients", "0"), ("--rounds", "-1"), ("--channels", "0")])
    def test_a_refused_value_prints_one_line_and_no_table(self, flag, value, capsys):
        assert main(["communication", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro communication: error: ")


class TestReproduceCommand:
    def test_rejects_unknown_algorithm(self, capsys):
        code = main(["reproduce", "--preset", "smoke", "--algorithms", "not_an_algorithm"])
        assert code == 2
        assert "unknown algorithms" in capsys.readouterr().err

    def test_rejects_a_nan_deadline_before_building_anything(self, capsys):
        # Every `latency <= nan` is false: accepted, the run would fold and
        # drop nothing and print an AUC row for a model that never trained.
        code = main(
            [
                "reproduce",
                "--preset",
                "smoke",
                "--algorithms",
                "fedavg",
                "--participation",
                "0.67",
                "--straggler-model",
                "lognormal",
                "--round-policy",
                "deadline",
                "--deadline",
                "nan",
            ]
        )
        assert code == 2
        assert "error: deadline must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, needs", [
        (("--deadline", "5"), "deadline needs --round-policy deadline"),
        (("--over-selection", "1.3"), "over_selection needs --round-policy deadline"),
        (("--buffer-size", "4"), "buffer_size needs --round-policy fedbuff"),
        (("--availability-rate", "0.5"), "availability_rate needs --availability bernoulli or daynight"),
    ])
    def test_an_option_its_policy_would_ignore_exits_before_building_anything(
        self, flags, needs, capsys, tmp_path
    ):
        # Each was accepted and silently dropped: no scheduler was built, so
        # `--deadline 5` alone trained a plain synchronous run.
        code = main(["reproduce", "--preset", "smoke", "--cache-dir", str(tmp_path), *flags])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.endswith(f"error: {needs}")
        assert not any(tmp_path.iterdir())

    @pytest.mark.slow
    def test_smoke_preset_runs(self, tmp_path, capsys):
        output_file = tmp_path / "table.txt"
        code = main(
            [
                "reproduce",
                "--preset",
                "smoke",
                "--algorithms",
                "local",
                "fedprox",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--output",
                str(output_file),
            ]
        )
        assert code == 0
        assert output_file.exists()
        text = output_file.read_text()
        assert "FedProx" in text
