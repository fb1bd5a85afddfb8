"""Benchmark: serial vs. warm local joiners vs. warm thread-pool execution.

The execution engine's promise is twofold: the parallel backends must be
**bit-identical** to ``SerialBackend`` for the same seed (asserted
unconditionally), and on a multi-core machine they must turn the 9-client
round from a sequential scan into a parallel map that actually beats
serial (asserted when enough cores are available, always reported).  Both
are *warm*: joiners and threads are spawned once per backend lifetime
(``spawn_count``, asserted here too), so only steady-state rounds are
measured.

Every backend also carries a BLAS thread policy (default ``auto``), which
leaves NumPy's BLAS at its own thread count on every backend: BLAS sums a
long contraction in an order that depends on its thread count, so pinning
pool workers below a serial run's count would break bit-identity.  The
workers x BLAS-threads product each backend deploys is recorded per row as
``effective_parallelism``.

The 9 clients use synthetic feature/label grids rather than the EDA corpus:
the benchmark measures the execution engine, not data generation, and the
synthetic grids make it run in seconds.
"""

from __future__ import annotations

import os
import time

import numpy as np
from conftest import (
    BENCH_GRID as GRID,
    BENCH_LOCAL_STEPS as LOCAL_STEPS,
    BENCH_NUM_CLIENTS,
    BenchModelBuilder,
    fresh_clients,
    write_records,
    write_result,
)

from repro.fl import (
    FLConfig,
    ProcessPoolBackend,
    SeededModelFactory,
    SerialBackend,
    ThreadPoolBackend,
    create_algorithm,
)
from repro.fl.parameters import flatten_state
from repro.utils.threadpools import blas_info

WORKERS = 4

BENCH_CONFIG = FLConfig(
    rounds=1,
    local_steps=LOCAL_STEPS,
    finetune_steps=1,
    learning_rate=2e-3,
    batch_size=4,
    seed=0,
)


def run_round(backend):
    factory = SeededModelFactory(BenchModelBuilder(), base_seed=0)
    algorithm = create_algorithm(
        "fedavg", fresh_clients(BENCH_CONFIG), factory, BENCH_CONFIG, backend=backend
    )
    try:
        if isinstance(backend, ProcessPoolBackend):
            # Pay joiner spin-up outside the timed region: the joiners persist
            # across rounds in a real run, so only steady-state is measured.
            backend.wait_for_clients()
        elif isinstance(backend, ThreadPoolBackend):
            backend._ensure_executor()
        start = time.perf_counter()
        training = algorithm.run()
        elapsed = time.perf_counter() - start
        if not isinstance(backend, SerialBackend):
            assert backend.spawn_count == 1, "warm pool must spawn exactly once"
    finally:
        backend.close()
    return training, elapsed


def parallelism_fields(backend) -> dict:
    """The effective (workers x BLAS-threads) product one backend deploys."""
    cores = os.cpu_count() or 1
    if isinstance(backend, SerialBackend):
        # Serial + auto leaves BLAS alone: one client's GEMMs use the BLAS
        # pool's own thread count (all cores out of the box).
        blas_threads = blas_info().max_threads or cores
        return {
            "workers": 1,
            "effective_workers": 1,
            "blas_threads_per_worker": blas_threads,
            "effective_parallelism": blas_threads,
        }
    pool_size = max(1, min(backend.effective_workers, BENCH_NUM_CLIENTS))
    per_worker = backend.resolved_blas_threads()
    if per_worker is None:
        per_worker = blas_info().max_threads or 1
    return {
        "workers": backend.workers,
        "effective_workers": pool_size,
        "blas_threads_per_worker": per_worker,
        "effective_parallelism": pool_size * per_worker,
    }


def test_execution_backend_speedup(benchmark):
    backends = {
        "serial": SerialBackend,
        "process": lambda: ProcessPoolBackend(workers=WORKERS),
        "thread": lambda: ThreadPoolBackend(workers=WORKERS),
    }
    parallelism = {}

    def measure():
        results = {}
        for name, build in backends.items():
            backend = build()
            parallelism[name] = parallelism_fields(backend)
            results[name] = run_round(backend)
        return results

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    serial_training, serial_seconds = results["serial"]

    # Bit-identical aggregation is the hard guarantee, on any machine.
    serial_flat = flatten_state(serial_training.global_state)
    for name in ("process", "thread"):
        training, _ = results[name]
        assert np.array_equal(serial_flat, flatten_state(training.global_state)), name
        assert [r.mean_loss for r in serial_training.history] == [
            r.mean_loss for r in training.history
        ], name

    cores = os.cpu_count() or 1
    speedups = {
        name: serial_seconds / seconds if seconds > 0 else float("inf")
        for name, (_, seconds) in results.items()
    }
    lines = [
        "Execution backends: one 9-client FedAvg round, warm pools, BLAS-aware",
        f"({LOCAL_STEPS} local steps/client, FLNet, {GRID}x{GRID} synthetic grids, "
        f"{WORKERS} workers requested, {cores} cores)",
        "",
        f"{'backend':<12}{'seconds':>10}{'speedup':>10}{'eff.workers':>13}{'blas/worker':>13}",
    ]
    for name in ("serial", "process", "thread"):
        _, seconds = results[name]
        fields = parallelism[name]
        lines.append(
            f"{name:<12}{seconds:>10.3f}{speedups[name]:>9.2f}x"
            f"{fields['effective_workers']:>13}{fields['blas_threads_per_worker']:>13}"
        )
    lines += [
        "",
        "bit-identical global state across all backends: True",
        "warm pools: workers spawned once per backend (asserted)",
        "BLAS policy auto: every backend keeps BLAS's own thread count",
    ]
    text = "\n".join(lines)
    print("\n" + text)
    write_result("execution_backends", text)
    write_records(
        "execution_backends",
        [
            {
                "op": "fedavg_round",
                "config": f"{name}_{WORKERS}w" if name != "serial" else "serial",
                "ms": round(seconds * 1000, 3),
                "speedup": round(speedups[name], 3),
                **parallelism[name],
            }
            for name, (_, seconds) in results.items()
        ],
    )

    if cores >= 4:
        # The 9-way round must come out ahead of the sequential scan even
        # after IPC overhead, for both pool flavors.
        assert speedups["process"] > 1.2, (
            f"expected parallel speedup on {cores} cores, got {speedups['process']:.2f}x"
        )
        assert speedups["thread"] > 1.0, (
            f"expected the thread pool to beat serial on {cores} cores, "
            f"got {speedups['thread']:.2f}x"
        )
