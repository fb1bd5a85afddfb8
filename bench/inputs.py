"""Seeded inputs of the federated workloads: synthetic grids and rosters.

The workload process and the wire joiner both build their roster here, from
the same seed, so the two sides hold identical clients (the contract the
``repro serve`` / ``repro join`` pair meets through a shared preset).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

CHANNELS = 6
TRAIN_SAMPLES = 8
TEST_SAMPLES = 2
_MIX = np.array([0.9, -0.4, 0.7, 0.3, -0.6, 0.5])


@dataclass(frozen=True)
class FedSpec:
    """What one federated workload runs."""

    model: str
    clients: int
    grid: int
    algorithm: str
    local_steps: int
    batch_size: int
    compression: Optional[str]
    backend: str
    #: Sizes a run: it times ``round(--seconds / nominal_cycle_s)`` cycles.
    #: Roughly one cycle's wall time on this box, samples included.
    nominal_cycle_s: float
    #: ``avg_auc`` after the run must exceed this: the lowest seen over ten
    #: seeds, traced (fewer rounds) or not, less a margin of about 0.1.
    auc_floor: float


FED_SPECS = {
    "fed9_flnet16": FedSpec("flnet", 9, 16, "fedprox", 2, 4, "none", "serial", 1.4, 0.40),
    "fed9_routenet16_q8": FedSpec("routenet", 9, 16, "fedprox", 2, 4, "quantize", "serial", 2.2, 0.38),
    "wire16_routenet8": FedSpec("routenet", 16, 8, "fedavg", 1, 2, None, "wire", 1.25, 0.30),
}


def synthetic_dataset(rng: np.random.Generator, count: int, grid: int, name: str):
    """``count`` samples whose label is learnable from the features.

    The label is a thresholded 3x3-smoothed fixed mix of the channels -- a
    function a small conv net can fit, unlike coin-flip labels (AUC 0.50).
    """
    from repro.data.dataset import PlacementSample, RoutabilityDataset

    samples = []
    for index in range(count):
        features = rng.random((CHANNELS, grid, grid))
        mixed = np.pad(np.tensordot(_MIX, features, axes=1), 1, mode="edge")
        smooth = sum(
            mixed[row : row + grid, column : column + grid] for row in range(3) for column in range(3)
        ) / 9.0
        label = (smooth > np.quantile(smooth, 0.7)).astype(np.float64)
        samples.append(PlacementSample(features, label, f"{name}_{index}", "synthetic", index))
    return RoutabilityDataset(samples, name=name)


def build_roster(spec: FedSpec, seed: int, rounds: int) -> Tuple[List, object, object]:
    """``(clients, model_factory, fl_config)`` of a workload, from the seed."""
    from repro.experiments.runner import ModelBuilder
    from repro.fl import FederatedClient, FLConfig, SeededModelFactory

    config = FLConfig(
        rounds=rounds,
        local_steps=spec.local_steps,
        batch_size=spec.batch_size,
        learning_rate=2e-3,
        seed=seed,
    )
    factory = SeededModelFactory(ModelBuilder(spec.model, CHANNELS), base_seed=seed)
    rng = np.random.default_rng(seed)
    clients = [
        FederatedClient(
            client_id,
            synthetic_dataset(rng, TRAIN_SAMPLES, spec.grid, f"c{client_id}/train"),
            synthetic_dataset(rng, TEST_SAMPLES, spec.grid, f"c{client_id}/test"),
            factory,
            config,
        )
        for client_id in range(1, spec.clients + 1)
    ]
    return clients, factory, config
