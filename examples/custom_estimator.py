#!/usr/bin/env python
"""Plugging a custom routability estimator into the framework.

The model registry is open: any module with the :class:`RoutabilityModel`
interface can be registered by name and then used everywhere a built-in
estimator can — experiment configurations, the federated algorithms, the
CLI.  This example defines a small GroupNorm-based CNN (group normalization
avoids the aggregated-batch-statistics problem the paper attributes to
BatchNorm), registers it, and compares it against FLNet under local and
FedProx training on a two-client setup.

Run with:  python examples/custom_estimator.py
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.data import CorpusConfig
from repro.data.clients import ClientSpec, CorpusBuilder
from repro.experiments import format_rows
from repro.fl import FederatedClient, FLConfig, SeededModelFactory, create_algorithm, evaluate_result
from repro.models.base import RoutabilityModel
from repro.models.registry import available_models, create_model, register_model
from repro.nn import Conv2d, GroupNorm, ReLU, Sequential
from repro.utils.rng import new_rng


class GroupNormNet(RoutabilityModel):
    """A 3-layer CNN with group normalization between convolutions."""

    def __init__(
        self,
        in_channels: int,
        hidden_filters: int = 16,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ):
        super().__init__(in_channels)
        rng = rng if rng is not None else new_rng(seed)
        f = int(hidden_filters)
        self.body = Sequential(
            Conv2d(in_channels, f, 5, padding=2, rng=rng),
            GroupNorm(num_groups=4, num_channels=f),
            ReLU(),
            Conv2d(f, f, 5, padding=2, rng=rng),
            GroupNorm(num_groups=4, num_channels=f),
            ReLU(),
            Conv2d(f, 1, 5, padding=2, rng=rng),
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.body.forward(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self.body.backward(grad_output)


CLIENT_SPECS = (
    ClientSpec(1, "itc99", train_designs=2, test_designs=1, paper_train_placements=10, paper_test_placements=4),
    ClientSpec(2, "iscas89", train_designs=2, test_designs=1, paper_train_placements=10, paper_test_placements=4),
)

CORPUS = CorpusConfig(
    grid_width=16,
    grid_height=16,
    placement_scale=0.5,
    min_placements_per_design=3,
    base_seed=31,
)

FL = FLConfig(
    rounds=3,
    local_steps=5,
    finetune_steps=10,
    learning_rate=2e-3,
    batch_size=4,
    proximal_mu=1e-4,
)


def run_model(model_name: str, client_data, channels: int):
    factory = SeededModelFactory(lambda seed: create_model(model_name, channels, seed=seed), base_seed=0)
    clients = [FederatedClient.from_client_data(data, factory, FL) for data in client_data]
    rows = []
    for algorithm in ("local", "fedprox"):
        training = create_algorithm(algorithm, clients, factory, FL).run()
        row = evaluate_result(training, clients)
        row.algorithm = f"{model_name}/{algorithm}"
        rows.append(row)
    return rows


def main() -> None:
    register_model("groupnorm_net", GroupNormNet, overwrite=True)
    print(f"Registered models: {available_models()}")

    print("\nSynthesizing two clients' private data...")
    client_data = CorpusBuilder(CORPUS).build_all(CLIENT_SPECS)
    channels = len(CORPUS.features)

    rows = []
    for model_name in ("flnet", "groupnorm_net"):
        print(f"Training {model_name} (local + FedProx)...")
        rows.extend(run_model(model_name, client_data, channels))

    print()
    print(format_rows(rows, title="Custom estimator vs FLNet (per-client ROC AUC)"))
    print(
        "\nA custom estimator only needs the RoutabilityModel interface and one "
        "register_model() call to participate in every training algorithm."
    )


if __name__ == "__main__":
    main()
