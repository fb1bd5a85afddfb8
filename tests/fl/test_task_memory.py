"""What a warm client task, and each per-model pass in it, allocates, counted in states.

A client task trains a lent model (:mod:`repro.fl.client`) whose layer
scratch and optimizer state are borrowed from the thread's pool
(:mod:`repro.nn.workspace`), so once the thread is warm a task allocates
the state it returns and the step's activations, nothing the size of the
parameters besides.  ``tracemalloc`` sees every NumPy buffer, so the peak
above the baseline of a warm second ``local_train`` catches a state-sized
temporary however it is spelled; it counts the same on any box.

Measured: 1.05 states for RouteNet 8x8 under FedAvg (2.98 while every
task built its optimizer's moments and work pair afresh) and 1.69 for
RouteNet 16x16 under FedProx (5.06 with a proximal scratch of its own too).

The passes over a packed model (:mod:`repro.nn.module`) are counted one by
one: exporting the state allocates the one state it returns, a load in the
model's own order or in sorted (wire) order allocates next to nothing, and
a warm ``Adam.step`` no buffer, only the few Python objects of its views
(about 2 KB).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.data.dataset import PlacementSample, RoutabilityDataset
from repro.fl import FederatedClient, FLConfig, SeededModelFactory
from repro.fl.parameters import FlatState, flat_model_state
from repro.models import RouteNet
from repro.nn.optim import Adam

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


def traced_peak(action) -> int:
    """Bytes ``action()`` held at its peak above what was held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        action()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_exporting_the_state_allocates_the_one_state():
    model = Builder()(0)
    state = flat_model_state(model)
    states = traced_peak(lambda: flat_model_state(model)) / state.vector.nbytes
    assert 1.0 <= states < 1.05, f"flat_model_state peaked at {states:.3f} states"


@pytest.mark.parametrize("order", ["model", "sorted"])
def test_a_load_allocates_no_state(order):
    model = Builder()(0)
    state = flat_model_state(Builder()(1))
    if order == "sorted":
        state = FlatState.from_items(sorted(state.items()))
    model.load_state_dict(state)
    states = traced_peak(lambda: model.load_state_dict(state)) / state.vector.nbytes
    assert states < 0.05, f"a {order}-order load peaked at {states:.3f} states"
    assert model.flat.vector.tobytes() == flat_model_state(Builder()(1)).vector.tobytes()


def test_a_warm_adam_step_allocates_nothing():
    model = Builder()(0)
    model.flat.grad[...] = np.random.default_rng(0).normal(size=model.flat.grad.size)
    optimizer = Adam(model.parameters(), lr=1e-3, weight_decay=1e-5)
    optimizer.step()  # acquires the moments and the work pair
    peak = traced_peak(optimizer.step)
    assert peak < 4096, f"a warm Adam step peaked at {peak} bytes"
