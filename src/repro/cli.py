"""Command-line interface.

Installs as the ``repro`` console script and exposes the library's main
entry points without writing any Python:

``repro list-models``
    The registered routability estimators and their parameter counts.
``repro list-algorithms``
    Every decentralized training algorithm in the registry.
``repro generate-data``
    Synthesize the 9-client corpus of Table 2 (or a reduced preset) and
    print the per-client design / placement statistics.
``repro route``
    Generate one synthetic design, place it, run the capacity-aware global
    router, and print placement / routing quality reports.
``repro reproduce``
    Re-run one of the paper's result tables (Table 3, 4, or 5) under a
    preset and print the per-client ROC AUC rows next to the paper's values.
    Its run options are the option groups ``ExperimentConfig`` composes
    (execution, transport, scheduling, population, resilience): each
    declared field becomes one flag, each active group a report section.
``repro serve`` / ``repro join``
    The same run over the framed TCP protocol: a federation server that
    dispatches each round's client tasks to joiner processes.
``repro communication``
    Print the analytic communication cost of every algorithm for a model.

Every command accepts ``--help`` for its full set of options; see
``docs/cli.md`` for a complete reference.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
import typing
from typing import Optional, Sequence

from repro.eda.benchmarks import generate_design, suite_names
from repro.eda.global_router import GlobalRouterConfig, route_placement
from repro.eda.placement import PlacementConfig, Placer
from repro.eda.quality import placement_quality, routing_quality
from repro.experiments.config import ExperimentConfig, preset
from repro.fl import (
    ALGORITHMS,
    ExecutionOptions,
    ResilienceOptions,
    SchedulingOptions,
    TransportOptions,
    WireOptions,
    estimate_communication,
)
from repro.models.registry import available_models, create_model


def _options(group, only=None) -> list:
    """The fields of an option group that declare a flag (``help`` metadata)."""
    return [
        option
        for option in dataclasses.fields(group)
        if "help" in option.metadata and (only is None or option.name in only)
    ]


def _flag(option) -> str:
    return option.metadata.get("flag", "--" + option.name.replace("_", "-"))


def _add_options(parser, group, only=None) -> None:
    """Add one flag per declared option of ``group`` (``only``: a subset).

    Everything comes from the declaration: the flag from the field name (or
    ``flag`` metadata), the value type from the annotation (``Optional``
    unwrapped; ``type`` metadata overrides), the rest from the field.
    """
    annotations = typing.get_type_hints(group)
    for option in _options(group, only):
        kind = annotations[option.name]
        if typing.get_origin(kind) is typing.Union:
            kind = next(arg for arg in typing.get_args(kind) if arg is not type(None))
        parser.add_argument(
            _flag(option),
            type=option.metadata.get("type", None if kind is str else kind),
            default=option.default,
            choices=option.metadata.get("choices"),
            metavar=option.metadata.get("metavar"),
            help=option.metadata["help"],
        )


def _picked(args, group) -> dict:
    """The ``with_<group>`` keywords parsed for the options this subcommand offers."""
    dests = {option.name: _flag(option)[2:].replace("-", "_") for option in _options(group)}
    return {name: getattr(args, dest) for name, dest in dests.items() if hasattr(args, dest)}


def _add_run_options(parser) -> None:
    """The flags `reproduce`, `serve` and `join` share: they name the run."""
    parser.add_argument("--model", choices=available_models(), default="flnet")
    parser.add_argument("--preset", choices=("paper", "default", "smoke"), default="smoke")
    parser.add_argument("--cache-dir", default=None, help="directory to cache the synthesized corpus")
    parser.add_argument(
        "--compute-dtype",
        choices=("float64", "float32"),
        default=None,
        help="local-training arithmetic dtype (default float64, bit-identical to "
        "previous releases; float32 is the fast path — states, aggregation, and "
        "checkpoints stay float64 either way; server and joiners must agree)",
    )


def _preset_config(args, algorithms=None) -> ExperimentConfig:
    """The preset named by the run flags, narrowed to ``algorithms``."""
    config = preset(args.preset, model=args.model)
    if algorithms:
        unknown = [name for name in algorithms if name not in ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms {unknown}; available: {sorted(ALGORITHMS)}")
        config = config.with_algorithms(algorithms)
    return config


def _add_list_models(subparsers) -> None:
    parser = subparsers.add_parser("list-models", help="list registered routability estimators")
    parser.add_argument("--channels", type=int, default=6, help="input feature channels used for sizing")
    parser.set_defaults(handler=_cmd_list_models)


def _cmd_list_models(args) -> int:
    print(f"{'Model':<12} {'Parameters':>12}")
    for name in available_models():
        model = create_model(name, in_channels=args.channels, seed=0)
        count = sum(param.data.size for _, param in model.named_parameters())
        print(f"{name:<12} {count:>12,d}")
    return 0


def _add_list_algorithms(subparsers) -> None:
    parser = subparsers.add_parser("list-algorithms", help="list decentralized training algorithms")
    parser.set_defaults(handler=_cmd_list_algorithms)


def _cmd_list_algorithms(args) -> int:
    print(f"{'Name':<22} {'Class':<22} Personalized result")
    for name, cls in sorted(ALGORITHMS.items()):
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        print(f"{name:<22} {cls.__name__:<22} {doc}")
    return 0


def _add_generate_data(subparsers) -> None:
    parser = subparsers.add_parser(
        "generate-data", help="synthesize the Table 2 corpus and print its statistics"
    )
    parser.add_argument("--preset", choices=("paper", "default", "smoke"), default="smoke")
    parser.add_argument("--cache-dir", default=None, help="directory to cache the synthesized corpus")
    parser.set_defaults(handler=_cmd_generate_data)


def _cmd_generate_data(args) -> int:
    from repro.data.clients import CorpusBuilder

    config = preset(args.preset)
    builder = CorpusBuilder(config.corpus)
    clients = builder.build_all(config.client_specs, args.cache_dir)
    print(f"{'Client':<10} {'Suite':<10} {'Train designs':>14} {'Train places':>13} {'Test designs':>13} {'Test places':>12}")
    for data in clients:
        spec = data.spec
        print(
            f"client{spec.client_id:<4d} {spec.suite:<10} {spec.train_designs:>14d} "
            f"{len(data.train):>13d} {spec.test_designs:>13d} {len(data.test):>12d}"
        )
    total_train = sum(len(data.train) for data in clients)
    total_test = sum(len(data.test) for data in clients)
    print(f"\nTotal placements: {total_train} train / {total_test} test")
    return 0


def _add_route(subparsers) -> None:
    parser = subparsers.add_parser(
        "route", help="place and globally route one synthetic design, printing quality reports"
    )
    parser.add_argument("--suite", choices=suite_names(), default="itc99")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cells", type=int, default=None, help="override the design's cell count")
    parser.add_argument("--grid", type=int, default=24, help="analysis grid size (bins per side)")
    parser.add_argument("--utilization", type=float, default=0.72)
    parser.add_argument("--max-ripup", type=int, default=4, help="negotiated rip-up iterations")
    parser.set_defaults(handler=_cmd_route)


def _cmd_route(args) -> int:
    design = generate_design(args.suite, f"{args.suite}_cli_{args.seed}", seed=args.seed, cell_count=args.cells)
    placement = Placer().place(
        design,
        PlacementConfig(
            grid_width=args.grid, grid_height=args.grid, utilization=args.utilization, seed=args.seed
        ),
    )
    place_report = placement_quality(placement)
    print("Placement quality")
    for key, value in place_report.to_dict().items():
        print(f"  {key:<22} {value}")

    routed = route_placement(placement, GlobalRouterConfig(max_ripup_iterations=args.max_ripup))
    route_report = routing_quality(routed)
    print("\nGlobal routing quality")
    for key, value in route_report.to_dict().items():
        print(f"  {key:<22} {value}")
    return 0


def _add_reproduce(subparsers) -> None:
    parser = subparsers.add_parser(
        "reproduce", help="re-run one of the paper's result tables (Tables 3-5)"
    )
    _add_run_options(parser)
    parser.add_argument(
        "--algorithms",
        nargs="*",
        default=None,
        help="subset of algorithms to run (default: the full table)",
    )
    # ExperimentConfig itself declares --population.
    for group in (
        ExecutionOptions,
        TransportOptions,
        SchedulingOptions,
        ExperimentConfig,
        ResilienceOptions,
    ):
        _add_options(parser, group)
    _add_report_options(parser)
    parser.set_defaults(handler=_cmd_reproduce)


def _reproduce_config(args) -> ExperimentConfig:
    """The configuration `repro reproduce` was asked for (``ValueError`` if invalid)."""
    return (
        _preset_config(args, args.algorithms)
        .with_execution(compute_dtype=args.compute_dtype, **_picked(args, ExecutionOptions))
        .with_transport(**_picked(args, TransportOptions))
        .with_scheduling(**_picked(args, SchedulingOptions))
        .with_population(**_picked(args, ExperimentConfig))
        .with_resilience(**_picked(args, ResilienceOptions))
    )


def _add_report_options(parser) -> None:
    parser.add_argument("--output", default=None, help="write the rendered table to this file")
    parser.add_argument(
        "--state-digest",
        action="store_true",
        help="print a SHA-256 digest of every final model state "
        "(`state digest <algorithm> <scope> <hex>`); two runs are "
        "bit-identical iff their digest lines match — the witness the "
        "wire-smoke CI job diffs between a wire and a serial run",
    )


def _print_state_digests(outcomes) -> None:
    from repro.fl.parameters import state_digest

    for outcome in outcomes:
        training = outcome.training
        if training.global_state is not None:
            print(f"state digest {outcome.algorithm} global {state_digest(training.global_state)}")
        for client_id in sorted(training.client_states):
            print(
                f"state digest {outcome.algorithm} client{client_id} "
                f"{state_digest(training.client_states[client_id])}"
            )


def _emit(args, text: str, outcomes) -> int:
    """Print a finished run's report, its digests and the ``--output`` copy; exit 0."""
    print(text)
    if args.state_digest:
        _print_state_digests(outcomes)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"\nwritten to {args.output}")
    return 0


def _quorum_failure(failure) -> int:
    """Report a round that could not gather its quorum; exit 3."""
    print(
        f"error: quorum failure at round {failure.round_index}: "
        f"{failure.arrived}/{failure.cohort_size} clients delivered an "
        f"update but {failure.required} were required",
        file=sys.stderr,
    )
    if failure.checkpoint_dir is not None:
        print(
            f"progress up to the failed round is checkpointed under "
            f"{failure.checkpoint_dir}; re-run the same command to resume",
            file=sys.stderr,
        )
    return 3


def _cmd_reproduce(args) -> int:
    from repro.experiments import (
        ExperimentRunner,
        communication_text,
        comparison_table,
        format_rows,
        resilience_text,
        scheduling_text,
    )
    from repro.fl import QuorumFailure

    try:
        config = _reproduce_config(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    runner = ExperimentRunner(config, cache_dir=args.cache_dir)
    try:
        result = runner.run()
    except QuorumFailure as failure:
        # Graceful degradation hit its floor: the round could not gather
        # enough updates even after retries and drops.  The run state up to
        # the failed round is already checkpointed (when --checkpoint-dir
        # is set), so re-running the same command resumes from there.
        return _quorum_failure(failure)
    except ValueError as error:
        # e.g. resuming from a checkpoint directory written by a different run
        print(f"error: {error}", file=sys.stderr)
        return 2
    title = f"ROC AUC on routability prediction with {args.model} ({args.preset} preset)"
    text = format_rows(result.rows, title=title)
    measured = {row.algorithm: row.average_auc for row in result.rows}
    text += "\n\nAverage AUC, paper vs. this reproduction (synthetic substrate):\n"
    text += comparison_table(args.model, measured)
    if args.compression is not None:
        text += f"\n\nMeasured communication (--compression {args.compression}):\n"
        text += communication_text(result)
    if config.scheduling.requested:
        text += f"\n\nClient scheduling (--round-policy {args.round_policy}):\n"
        text += scheduling_text(result)
    if config.resilience.requested:
        text += f"\n\nFault tolerance (--quorum {args.quorum}):\n"
        text += resilience_text(result)
    if config.fl.compute_dtype != "float64":
        text += (
            f"\n\ncompute dtype {config.fl.compute_dtype}: local training ran in the "
            "reduced-precision fast path (parameter states, aggregation, and "
            "checkpoints stay float64)"
        )
    if config.population is not None:
        text += f"\n\nPopulation-scale federation (--population {config.population}):\n"
        for outcome in result.outcomes:
            summary = outcome.population
            if summary is None:
                continue
            text += (
                f"  {outcome.algorithm}: population={summary['population']} "
                f"eager_before_sampling={summary['eager_clients_before_sampling']} "
                f"peak_materialized={summary['peak_materialized']} "
                f"total_materializations={summary['total_materializations']} "
                f"folded_updates={summary['folded_updates']}\n"
            )
    return _emit(args, text, result.outcomes)


def _add_serve(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="run a federation server: dispatch rounds to repro-join processes "
        "over the framed wire protocol (bit-identical to an in-process run)",
    )
    _add_run_options(parser)
    parser.add_argument(
        "--algorithms",
        nargs="*",
        default=None,
        help="algorithms to run over the wire (default: fedprox)",
    )
    _add_options(parser, WireOptions)
    parser.add_argument(
        "--wait-clients",
        type=float,
        default=60.0,
        help="seconds to wait for every roster client to connect before the "
        "first round (default 60; 0 starts dispatching immediately)",
    )
    _add_options(parser, ResilienceOptions, only=("quorum", "max_retries", "task_timeout"))
    _add_report_options(parser)
    # A library WireBackend picks a free port (0); the command has a well-known one.
    parser.set_defaults(handler=_cmd_serve, port=7733)


def _serve_config(args) -> ExperimentConfig:
    """The configuration `repro serve` was asked for (``ValueError`` if invalid)."""
    return (
        _preset_config(args, args.algorithms or ["fedprox"])
        .with_execution(backend="wire", compute_dtype=args.compute_dtype)
        .with_resilience(**_picked(args, ResilienceOptions))
        .with_wire(**_picked(args, WireOptions))
    )


def _cmd_serve(args) -> int:
    from repro.experiments import ExperimentRunner, format_rows, resilience_text
    from repro.experiments.report import wire_line
    from repro.experiments.runner import ExperimentResult
    from repro.fl import QuorumFailure

    try:
        config = _serve_config(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    runner = ExperimentRunner(config, cache_dir=args.cache_dir)
    backend = runner.execution_backend()
    result = ExperimentResult(config=config)
    client_ids = [spec.client_id for spec in config.client_specs]
    try:
        # Listen before the corpus is built, so a taken port fails at once.
        try:
            port = backend.listen(client_ids)
        except OSError as error:
            print(
                f"error: cannot listen on {backend.host}:{backend.port}: {error}", file=sys.stderr
            )
            return 2
        print(f"serving federation on {backend.host}:{port} for clients {client_ids}", flush=True)
        clients = runner.federated_clients()
        if args.wait_clients > 0:
            if not backend.wait_for_clients(args.wait_clients):
                print(
                    f"error: not every client connected within {args.wait_clients:g}s",
                    file=sys.stderr,
                )
                return 4
            print("all clients connected; starting training", flush=True)
        for name in config.algorithms:
            result.outcomes.append(runner.run_algorithm(name, clients, backend=backend))
    except QuorumFailure as failure:
        return _quorum_failure(failure)
    finally:
        network = backend.network_summary()
        backend.close()
    # One greppable line for the CI wire-smoke job.
    print(wire_line(network, "bytes_sent", "bytes_received"))
    title = f"ROC AUC over the wire with {args.model} ({args.preset} preset)"
    text = format_rows(result.rows, title=title)
    text += "\n\nFault tolerance (wire runtime):\n"
    text += resilience_text(result)
    return _emit(args, text, result.outcomes)


def _add_join(subparsers) -> None:
    parser = subparsers.add_parser(
        "join",
        help="join a federation as one or more clients: connect to a repro-serve "
        "process, train dispatched tasks, and resume over reconnects",
    )
    _add_run_options(parser)
    parser.add_argument("--host", default="127.0.0.1", help="server address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=7733, help="server port (default 7733)")
    parser.add_argument(
        "--clients",
        type=int,
        nargs="*",
        default=None,
        help="client ids this process hosts (default: every client of the preset)",
    )
    parser.add_argument(
        "--reconnect-delay",
        type=float,
        default=0.5,
        help="seconds between reconnect attempts (default 0.5)",
    )
    parser.add_argument(
        "--max-reconnects",
        type=int,
        default=60,
        help="consecutive reconnect attempts before giving up (default 60)",
    )
    parser.add_argument(
        "--drop-after",
        type=int,
        default=None,
        help="testing: close the connection once, upon receiving the N-th task "
        "(a seeded network blip; the run heals via journal replay)",
    )
    parser.add_argument(
        "--kill-after",
        type=int,
        default=None,
        help="testing: SIGKILL this process after sending the N-th update "
        "(no goodbye, no cleanup — a real host death)",
    )
    parser.set_defaults(handler=_cmd_join)


def _cmd_join(args) -> int:
    from repro.experiments import ExperimentRunner
    from repro.fl.net import HandshakeError, SessionLost, run_client

    config = _preset_config(args).with_execution(compute_dtype=args.compute_dtype)
    runner = ExperimentRunner(config, cache_dir=args.cache_dir)
    clients = runner.federated_clients()
    if args.clients:
        available = {client.client_id for client in clients}
        unknown = sorted(set(args.clients) - available)
        if unknown:
            print(
                f"error: unknown client ids {unknown}; preset has {sorted(available)}",
                file=sys.stderr,
            )
            return 2
        clients = [client for client in clients if client.client_id in set(args.clients)]
    print(
        f"joining {args.host}:{args.port} as clients "
        f"{[client.client_id for client in clients]}",
        flush=True,
    )
    try:
        report = run_client(
            clients,
            args.host,
            args.port,
            fingerprint=runner.wire_fingerprint(),
            reconnect_delay=args.reconnect_delay,
            max_reconnects=args.max_reconnects,
            drop_after=args.drop_after,
            kill_after=args.kill_after,
        )
    except HandshakeError as error:
        print(f"error: handshake rejected ({error.code}): {error.detail}", file=sys.stderr)
        return 2
    except (SessionLost, OSError) as error:
        print(f"error: session lost: {error}", file=sys.stderr)
        return 1
    print(
        "join: "
        f"tasks_run={report.tasks_run} "
        f"updates_sent={report.updates_sent} "
        f"cache_hits={report.cache_hits} "
        f"reconnects={report.reconnects} "
        f"replays_received={report.replays_received} "
        f"acks={report.acks} "
        f"heartbeats_answered={report.heartbeats_answered} "
        f"drops_simulated={report.drops_simulated}"
    )
    return 0


def _add_communication(subparsers) -> None:
    parser = subparsers.add_parser(
        "communication", help="analytic communication cost of every algorithm"
    )
    parser.add_argument("--model", choices=available_models(), default="flnet")
    parser.add_argument("--channels", type=int, default=6)
    parser.add_argument("--clients", type=int, default=9)
    parser.add_argument("--rounds", type=int, default=50)
    parser.set_defaults(handler=_cmd_communication)


def _cmd_communication(args) -> int:
    # Everything that can refuse an argument runs before the first line is
    # printed, so a bad value never leaves half a table on stdout.
    try:
        state = create_model(args.model, in_channels=args.channels, seed=0).state_dict()
        reports = [
            estimate_communication(name, state, args.clients, args.rounds)
            for name in sorted(ALGORITHMS)
        ]
    except ValueError as error:
        print(f"repro communication: error: {error}", file=sys.stderr)
        return 2
    print(
        f"Communication cost of {args.model} ({args.clients} clients, {args.rounds} rounds)\n"
        f"{'Algorithm':<22} {'Uplink/round':>14} {'Downlink/round':>16} {'Total (MB)':>12}"
    )
    for report in reports:
        total_mb = report.total_bytes / 1e6
        print(
            f"{report.algorithm:<22} {report.uplink_bytes_per_round:>14,d} "
            f"{report.downlink_bytes_per_round:>16,d} {total_mb:>12.2f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Federated routability estimation (DAC 2022 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_list_models(subparsers)
    _add_list_algorithms(subparsers)
    _add_generate_data(subparsers)
    _add_route(subparsers)
    _add_reproduce(subparsers)
    _add_serve(subparsers)
    _add_join(subparsers)
    _add_communication(subparsers)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    # Surface the library's informational logs (e.g. "resuming from
    # checkpoint round N") on stderr when running from the command line.
    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    return int(args.handler(args))


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
