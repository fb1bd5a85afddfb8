"""Population-scale aggregation: O(P) server memory at growing cohort sizes.

The fold-and-release server aggregation promises that server memory for one
round is bounded by the model size P, not by the cohort size K.  This benchmark folds
K client updates (P = 20,000 parameters) into a
:class:`~repro.fl.aggregation.StreamingAccumulator` for K from 1e2 to 1e5 and
measures the peak traced allocation of each round:

* **flat memory** — the peak must stay within 1.5x across the whole sweep
  (the (32, P) parity matrix plus one running sum dominate, both
  independent of K);
* **near-linear time** — per-fold cost must not grow with K (each fold is
  one axpy);
* **contrast** — the reference ``weighted_average`` GEMV, called directly,
  materializes the (K, P) work matrix, so its peak grows linearly in K; the
  K=1e3 row shows the gap.

A second measurement drives an actual sampled round loop over a virtualized
10,000-client population (cohort 9, 2 rounds) and asserts the laziness
contract end-to-end: zero clients materialized before sampling, peak
materialization bounded by the cohort, every fold released.

Results go to ``benchmarks/out/population_scale.{txt,json}``; the CI
perf-smoke job runs this module.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from conftest import MemoryProbe, synthetic_dataset, write_records, write_result
from repro.data.clients import ClientData, ClientSpec
from repro.fl import (
    ClientDirectory,
    FederatedServer,
    FLConfig,
    SchedulingOptions,
    SeededModelFactory,
    StreamingAccumulator,
    create_algorithm,
    create_scheduler,
)
from repro.fl.parameters import (
    FlatState,
    StateLayout,
    empty_matrix_pool,
    weighted_average,
)

MODEL_SIZE = 20_000
STREAMING_COHORTS = (100, 1_000, 10_000, 100_000)
GEMV_COHORTS = (100, 1_000)  # the (K, P) matrix forbids going further
PEAK_FLATNESS = 1.5  # max/min peak ratio across the streaming sweep
POPULATION = 10_000
COHORT = 9
ROUNDS = 2

POPULATION_CONFIG = FLConfig(
    rounds=ROUNDS,
    local_steps=2,
    finetune_steps=2,
    learning_rate=3e-3,
    batch_size=2,
    num_clusters=2,
    assigned_clusters=((1, 0), (2, 1)),
    ifca_eval_batches=1,
    proximal_mu=0.0,
)


def update_layout() -> StateLayout:
    return StateLayout.from_state({"dense.weight": np.zeros(MODEL_SIZE)})


def fold_round(mode: str, cohort: int) -> Dict[str, object]:
    """One aggregation round of ``cohort`` synthetic updates, measured.

    ``streaming`` folds through the server's accumulator; ``gemv`` is the
    (K, P) reference, ``weighted_average`` over the whole cohort at once.
    """
    layout = update_layout()
    base = np.random.default_rng(7).standard_normal(MODEL_SIZE)

    def make_update(index: int) -> np.ndarray:
        # Deterministic per-client variation without per-fold RNG cost.
        return base * (1.0 + 1e-6 * index) + 1e-3 * index

    # Each round lends its matrix cold, inside the probe: a matrix parked by
    # the previous measurement would hide this round's from the peak.
    empty_matrix_pool()
    with MemoryProbe() as probe:
        start = time.perf_counter()
        if mode == "gemv":
            states = [FlatState(layout, make_update(k)) for k in range(cohort)]
            result = weighted_average(states, [1.0 + (k % 7) for k in range(cohort)])
        else:
            accumulator = StreamingAccumulator(cohort)
            for k in range(cohort):
                accumulator.fold(FlatState(layout, make_update(k)), 1.0 + (k % 7))
            result = accumulator.result()
        seconds = time.perf_counter() - start
    empty_matrix_pool()
    assert result.vector.shape == (MODEL_SIZE,)
    return {
        "op": "aggregate_round",
        "config": f"{mode}_K{cohort}",
        "mode": mode,
        "cohort": cohort,
        "model_size": MODEL_SIZE,
        "ms": round(seconds * 1e3, 3),
        "us_per_fold": round(seconds * 1e6 / cohort, 3),
        **probe.record(),
    }


class PopulationModelBuilder:
    """Picklable tiny-model builder for the virtualized roster."""

    def __call__(self, seed: int):
        from repro.models import FLNet

        return FLNet(6, hidden_filters=8, kernel_size=5, seed=seed)


def population_round_loop() -> Dict[str, object]:
    """A sampled round loop over a 10,000-client population."""
    base = [
        ClientData(
            ClientSpec(client_id, "synthetic", 1, 1, 8, 2),
            synthetic_dataset(client_id, f"pop_train_{client_id}", 8),
            synthetic_dataset(100 + client_id, f"pop_test_{client_id}", 2),
        )
        for client_id in (1, 2)
    ]
    factory = SeededModelFactory(PopulationModelBuilder(), base_seed=0)
    directory = ClientDirectory(base, factory, POPULATION_CONFIG, population=POPULATION)
    server = FederatedServer()
    eager_before = directory.eager_clients
    with MemoryProbe() as probe:
        start = time.perf_counter()
        algorithm = create_algorithm(
            "fedavg",
            list(directory.handles),
            factory,
            POPULATION_CONFIG,
            server=server,
            scheduler=create_scheduler(SchedulingOptions(clients_per_round=COHORT), seed=0),
        )
        training = algorithm.run()
        seconds = time.perf_counter() - start
    assert training.global_state is not None
    record = {
        "op": "population_round_loop",
        "config": f"population{POPULATION}_cohort{COHORT}",
        "population": POPULATION,
        "cohort": COHORT,
        "rounds": ROUNDS,
        "ms": round(seconds * 1e3, 3),
        "eager_clients_before_sampling": eager_before,
        "eager_clients_after": directory.eager_clients,
        "peak_materialized": directory.peak_materialized,
        "total_materializations": directory.total_materializations,
        "total_releases": directory.total_releases,
        "folded_updates": server.folded_updates,
        **probe.record(),
    }
    return record


def test_population_scale():
    records: List[Dict[str, object]] = []
    lines = [
        f"Population-scale aggregation (P = {MODEL_SIZE:,} parameters)",
        "",
        f"{'mode':>10} {'K clients':>10} {'round ms':>10} {'us/fold':>9} {'peak MiB':>9}",
    ]
    streaming_rows: Dict[int, Dict[str, object]] = {}
    for cohort in STREAMING_COHORTS:
        row = fold_round("streaming", cohort)
        streaming_rows[cohort] = row
        records.append(row)
    gemv_rows: Dict[int, Dict[str, object]] = {}
    for cohort in GEMV_COHORTS:
        row = fold_round("gemv", cohort)
        gemv_rows[cohort] = row
        records.append(row)
    for row in records:
        lines.append(
            f"{row['mode']:>10} {row['cohort']:>10,} {row['ms']:>10.1f} "
            f"{row['us_per_fold']:>9.2f} {row['peak_traced_bytes'] / 2**20:>9.1f}"
        )

    peaks = {cohort: row["peak_traced_bytes"] for cohort, row in streaming_rows.items()}
    flatness = max(peaks.values()) / min(peaks.values())
    per_fold = {cohort: row["us_per_fold"] for cohort, row in streaming_rows.items()}
    # Time growth between K=1e3 and K=1e5 relative to perfect linearity
    # (K=1e2 rounds are too short to time reliably).
    linearity = per_fold[100_000] / per_fold[1_000]
    gemv_contrast = gemv_rows[1_000]["peak_traced_bytes"] / peaks[1_000]

    loop = population_round_loop()
    records.append(loop)
    lines += [
        "",
        f"streaming peak flatness K=1e2..1e5: {flatness:.3f}x (required <= {PEAK_FLATNESS}x)",
        f"per-fold time growth K=1e3 -> 1e5: {linearity:.2f}x (near-linear; required <= 5x)",
        f"gemv peak / streaming peak at K=1e3: {gemv_contrast:.1f}x (the O(K*P) matrix)",
        "",
        f"Virtualized population round loop ({POPULATION:,} clients, cohort {COHORT}, "
        f"{ROUNDS} rounds):",
        f"  round loop ms: {loop['ms']:.0f}",
        f"  eager clients before sampling: {loop['eager_clients_before_sampling']}",
        f"  peak materialized: {loop['peak_materialized']} (cohort bound: {COHORT})",
        f"  materializations/releases: {loop['total_materializations']}/{loop['total_releases']}",
        f"  folded updates: {loop['folded_updates']}",
    ]
    report = "\n".join(lines)
    write_result("population_scale", report)
    write_records("population_scale", records)
    print("\n" + report)

    assert flatness <= PEAK_FLATNESS, peaks
    assert linearity <= 5.0, per_fold
    assert gemv_contrast >= 10.0, (gemv_rows, peaks)
    assert loop["eager_clients_before_sampling"] == 0
    assert loop["eager_clients_after"] == 0
    assert loop["peak_materialized"] <= COHORT
    assert loop["folded_updates"] == ROUNDS * COHORT
    assert loop["total_materializations"] == loop["total_releases"]
