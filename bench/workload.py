"""One workload run, in the fresh subprocess ``run.py`` spawns.

``python -m bench.workload --workload W --seed N --seconds S --trace 0|1``
from the repository root.  Everything from this module's first line to the
end of one untimed warm-up cycle is ``setup_s``; the timed cycles follow in
the same process.  The last line of standard output is the result object
the driver reads.
"""

import time

_ORIGIN = time.perf_counter()

import argparse  # noqa: E402
import copy  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
#: Liveness probing is time-driven; with the deployed 0.5 s cadence the
#: probes' bytes would make ``wire_mb_per_cycle`` differ between two runs of
#: the same code.  No probe fires within a run at this cadence (a stuck run
#: is killed by run.py's own deadline instead).
WIRE_HEARTBEAT_S = 120.0
WIRE_TIMEOUT_S = 240.0
#: Weight of the dispatch kernel in the calibration sample (bench/calib.py).
DISPATCH_SHARE = {"pipeline_smoke": 0.5}
#: Clients whose test data the final ``avg_auc`` is taken over (evaluating
#: all nine costs a first touch of nine more workspaces, 3 s a run).
EVALUATED_CLIENTS = 3


class Run:
    """State shared by the phases of one workload run."""

    def __init__(self, args, clock):
        self.args = args
        self.clock = clock
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.notes = {}

    def traced(self, index):
        """Whether cycle ``index`` records spans: every second one of a traced run.

        Alternating keeps the traced and the untraced cycles in the same
        stretch of the run, so their ratio is the overhead of tracing and not
        the run's own drift (wire rounds slow down as the run goes on).
        """
        return self.tracer is not None and index >= 1 and index % 2 == 0

    def boundary(self, index):
        """Cycle boundary: ``index`` 0 opens the warm-up, ``None`` ends the run."""
        traced = index is not None and self.traced(index)
        label = "end" if index is None else "warmup" if index == 0 else "traced" if traced else "cycle"
        if self.tracer is not None:
            self.tracer.close_cycle()
            self.tracer.restore()
        self.clock.boundary(label)
        if traced:
            self.tracer.open_cycle(index)
        return traced

    def check(self, name, ok, detail=""):
        self.checks.append({"check": name, "ok": bool(ok), "detail": str(detail)})
        print(f"check {name}: {'ok' if ok else 'FAILED'} {detail}")

    def plan_cycles(self, nominal_cycle_s):
        """Timed cycles of this run: a fixed function of ``--seconds``.

        Never a time budget, so two commits do identical work.  A traced
        run times a quarter of them without spans and a quarter with.
        """
        cycles = max(3, round(self.args.seconds / nominal_cycle_s))
        return 2 * max(2, round(cycles / 4)) if self.args.trace else cycles

    def ticked(self, func):
        """``func`` preceded by a calibration marker (see bench/calib.py)."""
        clock, delay = self.clock, self.args.inject_delay

        def with_tick(*args, **kwargs):
            clock.tick()
            if not delay:
                return func(*args, **kwargs)
            start = time.perf_counter()
            result = func(*args, **kwargs)
            # The sensitivity self-test's slowdown: busy, as slower code
            # would be (a sleep lets the core idle, and the next calibration
            # sample then reads a slower machine).
            deadline = time.perf_counter() + delay * (time.perf_counter() - start)
            while time.perf_counter() < deadline:
                pass
            return result

        return with_tick

    def tick_methods(self, target, *names):
        for name in names:
            setattr(target, name, self.ticked(getattr(target, name)))


# -- federated workloads -----------------------------------------------------------


def run_federated(run):
    from bench.inputs import FED_SPECS, build_roster
    from repro.fl import (
        ResilienceManager,
        SerialBackend,
        WireBackend,
        create_algorithm,
        create_channel,
        evaluate_result,
    )
    from repro.fl.parameters import state_digest

    spec = FED_SPECS[run.args.workload]
    cycles = run.plan_cycles(spec.nominal_cycle_s)
    started = time.perf_counter()
    clients, factory, config = build_roster(spec, run.args.seed, rounds=1 + cycles)
    run.notes["roster_s"] = time.perf_counter() - started
    wire = spec.backend == "wire"
    joiner = reference_digest = resilience = None
    if wire:
        reference_digest = serial_reference_round(spec, clients, copy.copy(factory), config)
        backend = WireBackend(
            heartbeat_interval=WIRE_HEARTBEAT_S,
            client_timeout=WIRE_TIMEOUT_S,
            journal_dir=tempfile.mkdtemp(prefix="journal_", dir=OUT_DIR),
        )
        # The experiment runner always supervises a wire run; so does this.
        resilience = ResilienceManager()
    else:
        backend = SerialBackend()
    channel = create_channel(spec.compression)
    algorithm = create_algorithm(
        spec.algorithm, clients, factory, config, backend=backend, channel=channel, resilience=resilience
    )
    if wire:
        joiner = start_joiner(run, backend)
    else:
        for client in clients:
            run.tick_methods(client, "local_train")

    observed = {"round": 0, "wire_bytes": [], "digest": None}
    map_client_updates = algorithm.map_client_updates

    def round_boundary(states, *args, **kwargs):
        index = observed["round"]
        observed["round"] += 1
        if wire:
            observed["wire_bytes"].append(backend.server.bytes_sent + backend.server.bytes_received)
            if index == 1:
                observed["digest"] = state_digest(states)
        if run.boundary(index):
            install_federated_tracing(run, algorithm, clients, channel, backend)
        updates = map_client_updates(states, *args, **kwargs)
        run.attempted += len(clients)
        run.failed += len(clients) - len(updates)
        return updates

    algorithm.map_client_updates = round_boundary
    try:
        result = algorithm.run()
        run.boundary(None)
        if wire:
            observed["wire_bytes"].append(backend.server.bytes_sent + backend.server.bytes_received)
            run.notes["network"] = backend.network_summary()
    finally:
        backend.close()
        if joiner is not None:
            finish_joiner(run, joiner)
        if wire:
            shutil.rmtree(backend.journal_dir, ignore_errors=True)
    if resilience is not None:
        run.failed += resilience.retries + resilience.gave_up
        run.notes["retries"] = resilience.retries
    started = time.perf_counter()
    evaluation = evaluate_result(result, clients[:EVALUATED_CLIENTS])
    run.notes["evaluate_s"] = time.perf_counter() - started

    losses = [record.mean_loss for record in result.history]
    per_client = [loss for record in result.history for loss in record.per_client_loss.values()]
    non_finite = sum(1 for loss in per_client if not math.isfinite(loss))
    run.failed += non_finite
    run.check("losses finite", non_finite == 0, f"{non_finite} non-finite client losses")
    run.check("rounds completed", len(losses) == 1 + cycles, f"{len(losses)} of {1 + cycles}")
    run.check("loss fell", losses[-1] < losses[1], f"first cycle {losses[1]:.4f} last {losses[-1]:.4f}")
    average_auc = evaluation.average_auc
    run.check("avg_auc above floor", average_auc > spec.auc_floor, f"{average_auc:.4f} > {spec.auc_floor}")
    if wire:
        run.check(
            "warm-up round equals serial",
            observed["digest"] == reference_digest,
            f"wire {str(observed['digest'])[:12]} serial {reference_digest[:12]}",
        )
        timed = observed["wire_bytes"][1:]
        wire_bytes = (timed[-1] - timed[0]) / cycles
    else:
        summary = channel.summary()
        wire_bytes = sum(
            summary.uplink_bytes_per_round[index] + summary.downlink_bytes_per_round[index]
            for index in range(1, 1 + cycles)
        ) / cycles
        run.notes["channel"] = summary.to_dict()
    run.notes.update(
        wire_mb_per_cycle=wire_bytes / 1e6,
        final_digest=state_digest(result.global_state),
        avg_auc=average_auc,
        clients=len(clients),
        steps_per_cycle=len(clients) * spec.local_steps,
    )
    if run.tracer is not None:
        from bench import drills

        drills.federated(run, spec, clients, config, result.global_state, OUT_DIR)


def serial_reference_round(spec, clients, factory, config):
    """Digest of round 1 run serially on the same roster (RNG restored after)."""
    from repro.fl import SerialBackend, create_algorithm
    from repro.fl.parameters import state_digest

    rng_states = [client.rng_state for client in clients]
    reference = create_algorithm(
        spec.algorithm, clients, factory, replace(config, rounds=1), backend=SerialBackend()
    ).run()
    for client, rng_state in zip(clients, rng_states):
        client.rng_state = rng_state
    return state_digest(reference.global_state)


def start_joiner(run, backend):
    """Listen, spawn the one joiner process hosting every client, await it."""
    started = time.perf_counter()
    port = backend.listen()
    report = OUT_DIR / f"joiner_{os.getpid()}.json"
    process = subprocess.Popen(
        [sys.executable, "-m", "bench.joiner", "--workload", run.args.workload,
         "--seed", str(run.args.seed), "--port", str(port), "--report", str(report)],
        cwd=ROOT,
    )
    if not backend.wait_for_clients(timeout=60.0):
        process.kill()
        process.wait()
        raise RuntimeError("the joiner did not connect within 60 s")
    run.notes["handshake_s"] = time.perf_counter() - started
    return process, report


def finish_joiner(run, joiner):
    process, report = joiner
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    if report.exists():
        payload = json.loads(report.read_text())
        report.unlink()
        run.clock.merge(payload["marks"])
        run.notes["joiner"] = payload
    run.check("joiner exited cleanly", process.returncode == 0, f"code {process.returncode}")


def install_federated_tracing(run, algorithm, clients, channel, backend):
    """Boundary spans on the objects this benchmark constructed."""
    tracer = run.tracer
    tracer.patch(backend, "imap_outcomes", "fl.execution.map", iterator=True)
    if backend.name == "serial":
        for client in clients:
            tracer.patch(client, "local_train", "fl.client.task")
    if channel is not None:
        # Both workload channels use one codec object for both directions.
        assert channel.uplink_codec is channel.downlink_codec
        tracer.patch(channel.uplink_codec, "encode", "fl.transport.encode")
        tracer.patch(channel.uplink_codec, "decode", "fl.transport.decode")
    make_accumulator = algorithm.server.accumulator

    def traced_accumulator():
        accumulator = make_accumulator()
        tracer.patch(accumulator, "fold", "fl.aggregation.fold")
        tracer.patch(accumulator, "result", "fl.aggregation.result")
        # FedProx asks the accumulator for its states, computes the
        # client-drift diagnostic over them, then asks for the result: the
        # interval between the two calls is that diagnostic.
        states, result, drift = accumulator.states, accumulator.result, []

        def states_then_drift():
            held = states()
            drift.append(tracer.begin("fl.parameters.drift"))
            return held

        def drift_then_result():
            if drift:
                tracer.end(drift.pop())
            return result()

        accumulator.states, accumulator.result = states_then_drift, drift_then_result
        return accumulator

    tracer.shadow(algorithm.server, "accumulator", traced_accumulator)


# -- the pipeline workload ---------------------------------------------------------

PIPELINE_NOMINAL_CYCLE_S = 6.5
PIPELINE_AUC_FLOOR = 0.25


def run_pipeline(run):
    from repro.experiments import smoke

    # The corpus is the preset's for every seed: design sizes are drawn from
    # the corpus seed, and a cycle's work would differ by +-20 % between
    # seeds.  The seed drives model initialisation and training order.
    config = smoke("flnet", seed=run.args.seed).with_transport(compression="none")
    cycles = run.plan_cycles(PIPELINE_NOMINAL_CYCLE_S)
    outcomes = []
    for index in range(1 + cycles):
        traced = run.boundary(index)
        outcomes.append(pipeline_cycle(run, config, traced))
        run.attempted += 1
    run.boundary(None)
    digests = {outcome["digest"] for outcome in outcomes}
    aucs = {outcome["auc"] for outcome in outcomes}
    run.check("cycles identical", len(digests) == 1 and len(aucs) == 1, f"{len(digests)} digests, {len(aucs)} AUCs")
    finite = all(math.isfinite(loss) for outcome in outcomes for loss in outcome["losses"])
    run.check("losses finite", finite)
    auc = outcomes[-1]["auc"]
    run.check("auc above floor", auc >= PIPELINE_AUC_FLOOR, f"{auc:.4f} >= {PIPELINE_AUC_FLOOR}")
    if len(digests) != 1 or len(aucs) != 1 or not finite or auc < PIPELINE_AUC_FLOOR:
        run.failed += 1
    run.notes.update(
        wire_mb_per_cycle=outcomes[-1]["wire_bytes"] / 1e6,
        final_digest=outcomes[-1]["digest"],
        avg_auc=auc,
        clients=outcomes[-1]["clients"],
        steps_per_cycle=outcomes[-1]["steps"],
        placements=outcomes[-1]["placements"],
    )
    if run.tracer is not None:
        from bench import drills

        drills.pipeline(run, config, outcomes[-1]["first_client_data"])


def pipeline_cycle(run, config, traced):
    """Corpus -> fedprox -> fedprox_finetune -> evaluation, from nothing."""
    from repro.data.clients import CorpusBuilder
    from repro.experiments import ExperimentRunner
    from repro.fl import FederatedClient, SerialBackend
    from repro.fl.parameters import state_digest

    tracer = run.tracer if traced else None
    builder = CorpusBuilder(config.corpus)
    run.tick_methods(builder, "build_design_samples")
    if tracer:
        tracer.patch(builder, "build_client", "data.build_client")
    data = [builder.build_client(spec) for spec in config.client_specs]
    runner = ExperimentRunner(config)
    factory = runner.model_factory()
    clients = [FederatedClient.from_client_data(item, factory, config.fl) for item in data]
    backend = SerialBackend()
    for client in clients:
        run.tick_methods(client, "local_train", "fine_tune", "evaluate_auc")
        if tracer:
            tracer.patch(client, "local_train", "fl.client.task")
            tracer.patch(client, "fine_tune", "fl.client.task")
            tracer.patch(client, "evaluate_auc", "fl.evaluation.predict")
    if tracer:
        tracer.patch(backend, "imap_outcomes", "fl.execution.map", iterator=True)
        tracer.patch(runner, "run_algorithm", "experiments.run_algorithm")
    first = runner.run_algorithm("fedprox", clients, backend=backend)
    second = runner.run_algorithm("fedprox_finetune", clients, backend=backend)
    digest = hashlib.sha256()
    digest.update(state_digest(first.training.global_state).encode())
    for client_id in sorted(second.training.client_states):
        digest.update(state_digest(second.training.client_states[client_id]).encode())
    fl = config.fl
    return {
        "digest": digest.hexdigest(),
        "auc": second.evaluation.average_auc,
        "losses": [record.mean_loss for out in (first, second) for record in out.training.history],
        "wire_bytes": first.communication.total_bytes + second.communication.total_bytes,
        "clients": len(clients),
        "steps": len(clients) * (2 * fl.rounds * fl.local_steps + fl.finetune_steps),
        "placements": sum(len(item.train) + len(item.test) for item in data),
        "first_client_data": data[0],
    }


# -- entry point -------------------------------------------------------------------


def main(argv=None):
    from bench.names import END_TO_END, PER_LAYER, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--inject-delay", type=float, default=0.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import numpy  # noqa: F401  (timed: part of setup_s)

    from bench.calib import MarkerClock, lower_quartile, quantile

    clock = MarkerClock(_ORIGIN, DISPATCH_SHARE.get(args.workload, 0.0))
    clock.tick()
    sys.path.insert(0, str(ROOT / "src"))
    import repro.experiments

    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro was imported from {repro.__file__}, not from this checkout")
    clock.tick()
    OUT_DIR.mkdir(exist_ok=True)
    run = Run(args, clock)
    if args.trace:
        from bench.spans import Tracer

        run.tracer = Tracer()
    if args.workload == "pipeline_smoke":
        run_pipeline(run)
    else:
        run_federated(run)

    phases = clock.phases()
    # Set-up counts the time the process itself worked or waited, not what the
    # kernel spent on its behalf: on this microVM that is the host backing
    # first-touched memory, 5-20 s for the same 1.4 GB from one run to the next.
    setup_s = sum(
        phase["calibrated_s"] * (1.0 - phase["kernel_s"] / phase["raw_s"])
        for phase in phases
        if phase["label"] in ("start", "warmup")
    )
    timed = [phase for phase in phases if phase["label"] == "cycle"]
    cycle_times = [phase["calibrated_s"] for phase in timed]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if "joiner" in run.notes:
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    end_to_end = {
        "setup_s": setup_s,
        "cycle_s": lower_quartile(cycle_times),
        "peak_rss_mb": rss_kb / 1024.0,
        "wire_mb_per_cycle": run.notes["wire_mb_per_cycle"],
    }
    correct = all(check["ok"] for check in run.checks)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "end_to_end": end_to_end, "phases": phases, "marks": clock.marks, "checks": run.checks,
        "notes": run.notes, "attempted": run.attempted, "failed": run.failed,
    }
    print(f"workload {args.workload} seed {args.seed}: {len(cycle_times)} timed cycles, "
          f"raw cycle median {quantile([p['raw_s'] for p in timed], 0.5):.4f} s")
    print(f"final digest {run.notes['final_digest']}  avg_auc {run.notes['avg_auc']:.6f}")
    if args.trace:
        from bench import layers

        values = layers.per_layer_metrics(run, phases)
        units = {name: unit for name, unit, _ in PER_LAYER}
        run.tracer.dump(OUT_DIR / f"trace_{args.workload}.json", {"marks": clock.marks, "phases": phases})
        detail["per_layer"] = values
    else:
        values = end_to_end
        units = {name: unit for name, unit, _, _ in END_TO_END}
    for name, unit in units.items():
        print(f"{name:36s} {values[name]:.6g} {unit}")
    (OUT_DIR / f"run_{args.workload}_t{args.trace}.json").write_text(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
