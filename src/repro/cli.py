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
    ``--workers N`` fans each round's client updates out over N worker
    processes (bit-identical to serial execution); ``--checkpoint-dir``
    enables per-round checkpoint/resume; ``--compression`` routes every
    broadcast/upload through a wire codec (identity casts, packed
    quantization, top-k sparsification) and reports *measured* payload
    bytes per round; ``--participation`` / ``--straggler-model`` /
    ``--round-policy {sync,deadline,fedbuff}`` simulate a real client
    population (partial cohorts, availability, stragglers on a virtual
    clock, deadline drops, buffered-asynchronous aggregation) and report
    participation and simulated wall-clock time; ``--quorum`` /
    ``--max-retries`` / ``--task-timeout`` / ``--fault-*-rate`` run the
    round loop under the fault-tolerant supervisor (seeded chaos
    injection, retries with deterministic backoff, quorum commits with
    weight renormalization) and report the resilience accounting.
``repro communication``
    Print the analytic communication cost of every algorithm for a model.

Every command accepts ``--help`` for its full set of options; see
``docs/cli.md`` for a complete reference.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import List, Optional, Sequence

from repro.eda.benchmarks import generate_design, suite_names
from repro.eda.global_router import GlobalRouterConfig, route_placement
from repro.eda.placement import PlacementConfig, Placer
from repro.eda.quality import placement_quality, routing_quality
from repro.fl import (
    ALGORITHMS,
    AVAILABILITY_CHOICES,
    COMPRESSION_CHOICES,
    ROUND_POLICY_CHOICES,
    SAMPLER_CHOICES,
    STRAGGLER_CHOICES,
    estimate_communication,
)
from repro.models.registry import available_models, create_model
from repro.utils.threadpools import parse_blas_threads


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
    from repro.experiments import preset

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
    parser.add_argument("--model", choices=available_models(), default="flnet")
    parser.add_argument("--preset", choices=("paper", "default", "smoke"), default="smoke")
    parser.add_argument(
        "--algorithms",
        nargs="*",
        default=None,
        help="subset of algorithms to run (default: the full table)",
    )
    parser.add_argument("--cache-dir", default=None, help="directory to cache the synthesized corpus")
    parser.add_argument("--output", default=None, help="write the rendered table to this file")
    parser.add_argument(
        "--backend",
        choices=("auto", "serial", "process", "thread"),
        default="auto",
        help="execution backend for client updates (auto: process when --workers > 1; "
        "thread overlaps clients via GIL-releasing NumPy kernels with zero pickling)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="workers per round; 1 forces serial execution, >1 fans client "
        "updates out over the process/thread pool (results are bit-identical)",
    )
    parser.add_argument(
        "--blas-threads",
        type=parse_blas_threads,
        default="auto",
        metavar="{auto,N}",
        help="BLAS threads per worker: 'auto' (default) leaves serial runs to "
        "BLAS's own all-core threading and pins each pool worker to "
        "cores // workers threads so workers x BLAS-threads never "
        "oversubscribes; an integer pins every worker exactly",
    )
    parser.add_argument(
        "--compute-dtype",
        choices=("float64", "float32"),
        default=None,
        help="local-training arithmetic dtype (default float64, bit-identical to "
        "previous releases; float32 is the fast path — states, aggregation, and "
        "checkpoints stay float64 either way)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for per-round checkpoints; re-running with the same "
        "directory resumes interrupted global-state algorithms",
    )
    parser.add_argument(
        "--compression",
        choices=COMPRESSION_CHOICES,
        default=None,
        help="route every broadcast/upload through a wire codec and report "
        "measured bytes: none (bit-exact float64 identity), float32/float16 "
        "(cast), quantize (packed uniform quantization + DEFLATE, delta "
        "uploads), topk (sparsified delta uploads with error feedback)",
    )
    parser.add_argument(
        "--compression-bits",
        type=int,
        default=8,
        help="bits per value for --compression quantize (1-16, default 8)",
    )
    parser.add_argument(
        "--topk-fraction",
        type=float,
        default=0.1,
        help="fraction of entries kept by --compression topk (default 0.1)",
    )
    parser.add_argument(
        "--participation",
        type=float,
        default=None,
        help="fraction of clients sampled per round (partial participation; "
        "cohorts are seeded from the run seed and bit-reproducible)",
    )
    parser.add_argument(
        "--clients-per-round",
        type=int,
        default=None,
        help="absolute cohort size per round (alternative to --participation)",
    )
    parser.add_argument(
        "--sampler",
        choices=SAMPLER_CHOICES,
        default=None,
        help="cohort sampling rule: full, uniform, or weighted "
        "(importance sampling by client sample count)",
    )
    parser.add_argument(
        "--availability",
        choices=AVAILABILITY_CHOICES,
        default=None,
        help="per-client availability model: always (default), bernoulli "
        "(each query succeeds with --availability-rate), daynight "
        "(phased duty cycles on the virtual clock)",
    )
    parser.add_argument(
        "--availability-rate",
        type=float,
        default=0.9,
        help="bernoulli success probability / daynight duty fraction (default 0.9)",
    )
    parser.add_argument(
        "--straggler-model",
        choices=STRAGGLER_CHOICES,
        default=None,
        help="simulated round-trip latency per dispatched client: none, "
        "uniform, lognormal, heavytail (Pareto); drives the virtual clock "
        "and the deadline/fedbuff policies",
    )
    parser.add_argument(
        "--round-policy",
        choices=ROUND_POLICY_CHOICES,
        default="sync",
        help="what the server does with straggler updates: sync (barrier), "
        "deadline (drop updates later than --deadline, over-selecting by "
        "--over-selection), fedbuff (buffered-asynchronous aggregation)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="round cutoff in virtual seconds for --round-policy deadline",
    )
    parser.add_argument(
        "--over-selection",
        type=float,
        default=1.0,
        help="cohort inflation factor under the deadline policy (default 1.0; "
        "1.3 selects 30%% extra clients expecting drops)",
    )
    parser.add_argument(
        "--buffer-size",
        type=int,
        default=2,
        help="updates buffered per aggregation for --round-policy fedbuff (default 2)",
    )
    parser.add_argument(
        "--population",
        type=int,
        default=None,
        help="virtualize the roster to this many lazily constructed clients "
        "(each reusing one base data partition round-robin); requires "
        "--clients-per-round or --participation so only the sampled cohort "
        "is ever built",
    )
    parser.add_argument(
        "--quorum",
        type=float,
        default=1.0,
        help="fraction of the per-round cohort that must deliver an update "
        "before the round commits (default 1.0); clients that exhaust their "
        "retries are dropped permanently with the aggregation weights "
        "renormalized, and a sub-quorum round checkpoints and aborts",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="supervised retries per client task before it counts as failed "
        "(default 2 once any fault-tolerance option is active)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="wall-clock seconds allowed per client task before the "
        "supervisor retries it (process/thread backends)",
    )
    parser.add_argument(
        "--fault-crash-rate",
        type=float,
        default=0.0,
        help="chaos testing: per-attempt probability of a simulated worker "
        "crash (deterministic for a given seed)",
    )
    parser.add_argument(
        "--fault-exception-rate",
        type=float,
        default=0.0,
        help="chaos testing: per-attempt probability of a simulated client "
        "exception",
    )
    parser.add_argument(
        "--fault-timeout-rate",
        type=float,
        default=0.0,
        help="chaos testing: per-attempt probability of a simulated task "
        "timeout",
    )
    parser.add_argument(
        "--fault-corruption-rate",
        type=float,
        default=0.0,
        help="chaos testing: per-attempt probability of flipping one byte of "
        "the upload payload (caught by the transport CRC and retried; "
        "needs --compression for a wire payload to corrupt)",
    )
    _add_state_digest_option(parser)
    parser.set_defaults(handler=_cmd_reproduce)


def _add_state_digest_option(parser) -> None:
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


def _cmd_reproduce(args) -> int:
    from repro.experiments import (
        ExperimentRunner,
        communication_text,
        comparison_table,
        format_rows,
        preset,
        resilience_text,
        scheduling_text,
    )
    from repro.fl import QuorumFailure

    config = preset(args.preset, model=args.model)
    if args.algorithms:
        unknown = [name for name in args.algorithms if name not in ALGORITHMS]
        if unknown:
            print(f"error: unknown algorithms {unknown}; available: {sorted(ALGORITHMS)}", file=sys.stderr)
            return 2
        config = config.with_algorithms(args.algorithms)
    try:
        config = config.with_execution(
            backend=args.backend,
            workers=args.workers,
            blas_threads=args.blas_threads,
            checkpoint_dir=args.checkpoint_dir,
            compute_dtype=args.compute_dtype,
        ).with_transport(
            compression=args.compression,
            compression_bits=args.compression_bits,
            topk_fraction=args.topk_fraction,
        ).with_scheduling(
            participation=args.participation,
            clients_per_round=args.clients_per_round,
            sampler=args.sampler,
            availability=args.availability,
            availability_rate=args.availability_rate,
            straggler_model=args.straggler_model,
            round_policy=args.round_policy,
            deadline=args.deadline,
            over_selection=args.over_selection,
            buffer_size=args.buffer_size,
        ).with_population(
            population=args.population,
        ).with_resilience(
            quorum=args.quorum,
            max_retries=args.max_retries,
            task_timeout=args.task_timeout,
            fault_crash_rate=args.fault_crash_rate,
            fault_exception_rate=args.fault_exception_rate,
            fault_timeout_rate=args.fault_timeout_rate,
            fault_corruption_rate=args.fault_corruption_rate,
        )
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
    if config.scheduling_requested:
        text += f"\n\nClient scheduling (--round-policy {args.round_policy}):\n"
        text += scheduling_text(result)
    if config.resilience_requested:
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
    print(text)
    if args.state_digest:
        _print_state_digests(result.outcomes)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"\nwritten to {args.output}")
    return 0


def _add_serve(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="run a federation server: dispatch rounds to repro-join processes "
        "over the framed wire protocol (bit-identical to an in-process run)",
    )
    parser.add_argument("--model", choices=available_models(), default="flnet")
    parser.add_argument("--preset", choices=("paper", "default", "smoke"), default="smoke")
    parser.add_argument(
        "--algorithms",
        nargs="*",
        default=None,
        help="algorithms to run over the wire (default: fedprox)",
    )
    parser.add_argument("--cache-dir", default=None, help="directory to cache the synthesized corpus")
    parser.add_argument(
        "--compute-dtype",
        choices=("float64", "float32"),
        default=None,
        help="local-training arithmetic dtype (must match the joiners')",
    )
    parser.add_argument("--host", default="127.0.0.1", help="address to bind (default 127.0.0.1)")
    parser.add_argument(
        "--port",
        type=int,
        default=7733,
        help="TCP port to listen on (default 7733; 0 picks a free port, "
        "printed on the `serving federation` line)",
    )
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=2.0,
        help="seconds between liveness probes to each connected joiner (default 2)",
    )
    parser.add_argument(
        "--client-timeout",
        type=float,
        default=10.0,
        help="seconds of silence before a joiner counts as lost, and how long "
        "a lost joiner may take to reconnect before its in-flight tasks fail "
        "over to the retry machinery (default 10; must exceed the heartbeat "
        "interval)",
    )
    parser.add_argument(
        "--journal-dir",
        default=None,
        help="directory for the append-only dispatch journal backing "
        "reconnect-with-resume (default: a temporary directory)",
    )
    parser.add_argument(
        "--wait-clients",
        type=float,
        default=60.0,
        help="seconds to wait for every roster client to connect before the "
        "first round (default 60; 0 starts dispatching immediately)",
    )
    parser.add_argument(
        "--quorum",
        type=float,
        default=1.0,
        help="fraction of the cohort that must deliver an update per round "
        "(see `repro reproduce --quorum`)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="supervised retries per client task before it counts as failed",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="wall-clock seconds allowed per dispatched task before the "
        "supervisor abandons and retries it",
    )
    parser.add_argument(
        "--wire-fault-disconnect-rate",
        type=float,
        default=0.0,
        help="chaos testing: per-send probability of dropping the connection "
        "instead of delivering a task frame (seeded; heals via replay)",
    )
    parser.add_argument(
        "--wire-fault-delay-rate",
        type=float,
        default=0.0,
        help="chaos testing: per-send probability of withholding a task frame "
        "for up to --wire-delay-seconds",
    )
    parser.add_argument(
        "--wire-fault-corrupt-rate",
        type=float,
        default=0.0,
        help="chaos testing: per-send probability of flipping one byte of a "
        "task frame (rejected by the peer's CRC check; heals via replay)",
    )
    parser.add_argument(
        "--wire-delay-seconds",
        type=float,
        default=0.05,
        help="maximum hold time for injected delays (default 0.05)",
    )
    parser.add_argument("--output", default=None, help="write the rendered table to this file")
    _add_state_digest_option(parser)
    parser.set_defaults(handler=_cmd_serve)


def _cmd_serve(args) -> int:
    from repro.experiments import ExperimentRunner, format_rows, preset, resilience_text
    from repro.experiments.runner import ExperimentResult
    from repro.fl import QuorumFailure

    config = preset(args.preset, model=args.model)
    algorithms = args.algorithms if args.algorithms else ["fedprox"]
    unknown = [name for name in algorithms if name not in ALGORITHMS]
    if unknown:
        print(f"error: unknown algorithms {unknown}; available: {sorted(ALGORITHMS)}", file=sys.stderr)
        return 2
    try:
        config = config.with_algorithms(algorithms).with_execution(
            backend="wire",
            compute_dtype=args.compute_dtype,
        ).with_resilience(
            quorum=args.quorum,
            max_retries=args.max_retries,
            task_timeout=args.task_timeout,
        ).with_wire(
            wire_host=args.host,
            wire_port=args.port,
            heartbeat_interval=args.heartbeat_interval,
            client_timeout=args.client_timeout,
            wire_journal_dir=args.journal_dir,
            wire_fault_disconnect_rate=args.wire_fault_disconnect_rate,
            wire_fault_delay_rate=args.wire_fault_delay_rate,
            wire_fault_corrupt_rate=args.wire_fault_corrupt_rate,
            wire_delay_seconds=args.wire_delay_seconds,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    runner = ExperimentRunner(config, cache_dir=args.cache_dir)
    clients = runner.federated_clients()
    backend = runner.execution_backend()
    result = ExperimentResult(config=config)
    try:
        port = backend.listen([client.client_id for client in clients])
        print(
            f"serving federation on {config.wire_host}:{port} for clients "
            f"{[client.client_id for client in clients]}",
            flush=True,
        )
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
        print(
            f"error: quorum failure at round {failure.round_index}: "
            f"{failure.arrived}/{failure.cohort_size} clients delivered an "
            f"update but {failure.required} were required",
            file=sys.stderr,
        )
        return 3
    finally:
        network = backend.network_summary()
        backend.close()
    # One greppable line for the CI wire-smoke job.
    print(
        "wire: "
        f"dispatched={network.get('dispatched', 0)} "
        f"completed={network.get('completed', 0)} "
        f"disconnects={network.get('disconnects', 0)} "
        f"heartbeat_losses={network.get('heartbeat_losses', 0)} "
        f"reconnects={network.get('reconnects', 0)} "
        f"replays={network.get('replays', 0)} "
        f"decode_failures={network.get('decode_failures', 0)} "
        f"stale_updates={network.get('stale_updates', 0)} "
        f"bytes_sent={network.get('bytes_sent', 0)} "
        f"bytes_received={network.get('bytes_received', 0)}"
    )
    title = f"ROC AUC over the wire with {args.model} ({args.preset} preset)"
    text = format_rows(result.rows, title=title)
    text += "\n\nFault tolerance (wire runtime):\n"
    text += resilience_text(result)
    print(text)
    if args.state_digest:
        _print_state_digests(result.outcomes)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"\nwritten to {args.output}")
    return 0


def _add_join(subparsers) -> None:
    parser = subparsers.add_parser(
        "join",
        help="join a federation as one or more clients: connect to a repro-serve "
        "process, train dispatched tasks, and resume over reconnects",
    )
    parser.add_argument("--model", choices=available_models(), default="flnet")
    parser.add_argument("--preset", choices=("paper", "default", "smoke"), default="smoke")
    parser.add_argument("--cache-dir", default=None, help="directory to cache the synthesized corpus")
    parser.add_argument(
        "--compute-dtype",
        choices=("float64", "float32"),
        default=None,
        help="local-training arithmetic dtype (must match the server's)",
    )
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
    from repro.experiments import ExperimentRunner, preset
    from repro.fl.net import HandshakeError, SessionLost, run_client

    config = preset(args.preset, model=args.model)
    try:
        if args.compute_dtype is not None:
            config = config.with_execution(compute_dtype=args.compute_dtype)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
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
    model = create_model(args.model, in_channels=args.channels, seed=0)
    state = model.state_dict()
    print(
        f"Communication cost of {args.model} ({args.clients} clients, {args.rounds} rounds)\n"
        f"{'Algorithm':<22} {'Uplink/round':>14} {'Downlink/round':>16} {'Total (MB)':>12}"
    )
    for name in sorted(ALGORITHMS):
        if name == "dp_fedprox":
            report = estimate_communication("fedprox", state, args.clients, args.rounds)
            report = type(report)(
                algorithm=name,
                rounds=report.rounds,
                num_clients=report.num_clients,
                uplink_bytes_per_round=report.uplink_bytes_per_round,
                downlink_bytes_per_round=report.downlink_bytes_per_round,
            )
        else:
            report = estimate_communication(name, state, args.clients, args.rounds)
        total_mb = report.total_bytes / 1e6
        print(
            f"{name:<22} {report.uplink_bytes_per_round:>14,d} "
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
