"""What a warm client task allocates, counted in states.

A client task trains a lent model (:mod:`repro.fl.client`) whose layer
scratch and optimizer state are borrowed from the thread's pool
(:mod:`repro.nn.workspace`), so once the thread is warm a task allocates
the state it returns and the step's activations, nothing the size of the
parameters besides.  ``tracemalloc`` sees every NumPy buffer, so the peak
above the baseline of a warm second ``local_train`` catches a state-sized
temporary however it is spelled; it counts the same on any box.

Measured: 1.06 states for RouteNet 8x8 under FedAvg (2.98 while every
task built its optimizer's moments and work pair afresh) and 1.70 for
RouteNet 16x16 under FedProx (5.06 with a proximal scratch of its own too).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.data.dataset import PlacementSample, RoutabilityDataset
from repro.fl import FederatedClient, FLConfig, SeededModelFactory
from repro.fl.parameters import flat_model_state
from repro.models import RouteNet

CHANNELS = 6


class Builder:
    def __call__(self, seed: int) -> RouteNet:
        return RouteNet(CHANNELS, seed=seed)


def dataset(seed: int, grid: int, samples: int) -> RoutabilityDataset:
    draw = np.random.default_rng(seed)
    return RoutabilityDataset(
        [
            PlacementSample(
                draw.random((CHANNELS, grid, grid)),
                (draw.random((grid, grid)) < 0.3).astype(np.float64),
                f"d{index}",
                "synthetic",
                index,
            )
            for index in range(samples)
        ],
        name=f"task_{seed}",
    )


@pytest.mark.parametrize(
    "grid, steps, batch_size, proximal_mu, bound",
    [(8, 1, 2, 0.0, 1.15), (16, 2, 4, 0.01, 1.85)],
    ids=["routenet8-fedavg", "routenet16-fedprox"],
)
def test_a_warm_task_allocates_about_the_state_it_returns(grid, steps, batch_size, proximal_mu, bound):
    factory = SeededModelFactory(Builder(), base_seed=0)
    config = FLConfig(
        rounds=1, local_steps=steps, batch_size=batch_size, learning_rate=2e-3, proximal_mu=proximal_mu
    )
    client = FederatedClient(1, dataset(1, grid, 8), dataset(2, grid, 2), factory, config)
    state = flat_model_state(factory())
    client.local_train(state)  # warms the thread's pool and lent model
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        returned, _ = client.local_train(state)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    states = peak / state.vector.nbytes
    assert returned.vector.nbytes == state.vector.nbytes
    assert 1.0 <= states <= bound, f"a warm task peaked at {states:.2f} states"
