"""A model is one vector: every parameter, gradient and buffer is a view into it.

* **one vector** — after construction, ``copy.deepcopy``, a pickle round
  trip, ``set_compute_dtype`` there and back, a BatchNorm training forward,
  and loads from a model-order flat state, a sorted-order flat state and a
  plain dict, every ``data``, ``grad`` and buffer is its slot of the
  model's vectors, in ``flat_model_state`` order;
* **parity** — Adam, SGD and FedProx train a packed model bit for bit as
  the per-parameter expression forms (``oracles.py``) train the same model
  with every tensor in an array of its own, for three steps on every
  registered architecture in float64 and float32.  Inside the vector a
  weight sits at an arbitrary 8-byte offset; the oracle's arrays are
  aligned allocations, so this is also the check that no BLAS kernel the
  layers call reads a weight differently by its alignment.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from oracles import AdamOracle, SGDOracle

from repro.fl import LocalTrainer
from repro.fl.parameters import FlatState, flat_model_state
from repro.fl.trainer import add_proximal_gradient, reference_run
from repro.data.dataset import PlacementSample, RoutabilityDataset
from repro.models import create_model
from repro.nn.losses import make_loss
from repro.nn.optim import make_optimizer

CHANNELS = 3


def assert_one_vector(model):
    """Every parameter, gradient and buffer is its own slot of the model's vectors."""
    flat = model.flat
    slots = [(param.data, param.grad) for _, param in model.named_parameters()]
    slots += [(buffer, None) for _, buffer in model.named_buffers()]
    names = [name for name, _ in model.named_parameters()] + [name for name, _ in model.named_buffers()]
    assert [name for name, _ in flat.entries] == names
    offset = 0
    for (name, shape), (data, grad) in zip(flat.entries, slots, strict=True):
        size = int(np.prod(shape, dtype=np.int64))
        assert data.shape == shape and data.dtype == flat.vector.dtype, name
        assert data.base is flat.vector, name
        assert data.ctypes.data == flat.vector[offset:].ctypes.data, name
        if grad is not None:
            assert grad.base is flat.grad, name
            assert grad.ctypes.data == flat.grad[offset:].ctypes.data, name
        offset += size
    assert offset == flat.vector.size
    assert flat.grad.size == sum(param.size for param in model.parameters())
    exported = flat_model_state(model)
    assert exported.layout.entries == flat.entries
    assert exported.vector.tobytes() == flat.vector.astype(np.float64).tobytes()


def sample_state(seed: int, order: str):
    """Another RouteNet's state: model order, sorted (wire) order, or a plain dict."""
    state = flat_model_state(create_model("routenet", CHANNELS, seed=seed))
    if order == "sorted":
        return FlatState.from_items(sorted(state.items()))
    if order == "dict":
        return {name: values.copy() for name, values in state.items()}
    return state


def forward_backward(model, seed=0, grid=8):
    draw = np.random.default_rng(seed)
    out = model.forward(draw.normal(size=(2, CHANNELS, grid, grid)).astype(model.compute_dtype))
    model.backward(np.ones_like(out))


def deepcopied(model):
    return copy.deepcopy(model)


def pickled(model):
    return pickle.loads(pickle.dumps(model))


def dtype_round_trip(model):
    model.set_compute_dtype("float32")
    assert_one_vector(model)
    return model.set_compute_dtype("float64")


def batchnorm_forward(model):
    before = [buffer.copy() for buffer in model.buffers()]
    forward_backward(model)
    assert any(not np.array_equal(now, then) for now, then in zip(model.buffers(), before))
    return model


def loader(order):
    def load(model):
        state = sample_state(1, order)
        model.load_state_dict(state)
        assert all(np.array_equal(model.state_dict()[name], values) for name, values in state.items())
        return model

    return load


@pytest.mark.parametrize(
    "change",
    [
        lambda model: model,
        deepcopied,
        pickled,
        dtype_round_trip,
        batchnorm_forward,
        loader("model"),
        loader("sorted"),
        loader("dict"),
    ],
    ids=["built", "deepcopy", "pickle", "float32_and_back", "batchnorm_forward", "load_model_order", "load_sorted_order", "load_dict"],
)
def test_every_tensor_is_a_view_of_the_model_vectors(change):
    model = create_model("routenet", CHANNELS, seed=0)
    forward_backward(model, seed=1)  # nonzero gradients and running statistics
    grads = model.flat.grad.copy()
    changed = change(model)
    assert_one_vector(changed)
    if change in (deepcopied, pickled):
        assert changed.flat.vector is not model.flat.vector
        assert changed.flat.grad.tobytes() == grads.tobytes()
        assert changed.flat.vector.tobytes() == model.flat.vector.tobytes()
        forward_backward(changed, seed=2)  # the copy trains on its own vectors
        assert_one_vector(changed)
        assert model.flat.grad.tobytes() == grads.tobytes()


def test_a_layer_of_a_model_refuses_whole_model_operations():
    model = create_model("flnet", CHANNELS, seed=0)
    with pytest.raises(RuntimeError, match="layer of a packed model"):
        model.output_conv.zero_grad()
    with pytest.raises(RuntimeError, match="layer of a packed model"):
        model.output_conv.set_compute_dtype("float32")


# -- packed vs unpacked -----------------------------------------------------------

MODELS = {
    "routenet8": ("routenet", 8),
    "routenet16": ("routenet", 16),
    "routenet_gn": ("routenet_gn", 16),
    "flnet": ("flnet", 16),
    "pros": ("pros", 16),
}
MU = 0.05
LR = 1e-2
WEIGHT_DECAY = 1e-5


def unpack(model):
    """``model`` with every parameter, gradient and buffer in an array of its own."""
    for param in model.parameters():
        param.data, param.grad = param.data.copy(), param.grad.copy()
    for _, module in model.named_modules():
        for name, buffer in list(module._buffers.items()):
            own = buffer.copy()
            module._buffers[name] = own
            object.__setattr__(module, name, own)
    return model


def dataset(grid: int) -> RoutabilityDataset:
    draw = np.random.default_rng(grid)
    return RoutabilityDataset(
        [
            PlacementSample(
                draw.random((CHANNELS, grid, grid)),
                (draw.random((grid, grid)) < 0.3).astype(np.float64),
                f"d{index}",
                "synthetic",
                index,
            )
            for index in range(6)
        ],
        name=f"parity_{grid}",
    )


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("model_name", list(MODELS))
@pytest.mark.parametrize("optimizer", ["adam", "sgd", "fedprox"])
def test_parity_packed_trains_as_unpacked(optimizer, model_name, dtype):
    name, grid = MODELS[model_name]
    data = dataset(grid)
    packed = create_model(name, CHANNELS, seed=0).set_compute_dtype(dtype)
    unpacked = unpack(copy.deepcopy(packed))
    initial = flat_model_state(packed)
    noise = np.random.default_rng(5).normal(scale=1e-2, size=initial.vector.size)
    # A sorted (wire) order reference: the term gathers it block by block.
    reference = FlatState.from_items(sorted(FlatState(initial.layout, initial.vector + noise).items()))
    mu = MU if optimizer == "fedprox" else 0.0
    rule = "sgd" if optimizer == "sgd" else "adam"

    packed_step = make_optimizer(rule, packed.parameters(), lr=LR, weight_decay=WEIGHT_DECAY)
    if rule == "sgd":
        oracle = SGDOracle(unpacked.parameters(), lr=LR, momentum=0.9, weight_decay=WEIGHT_DECAY)
    else:
        oracle = AdamOracle(unpacked.parameters(), lr=LR, weight_decay=WEIGHT_DECAY)
    loss = make_loss("mse")
    batches = LocalTrainer(batch_size=2, rng=np.random.default_rng(3), compute_dtype=dtype).make_loader(data)
    for step, (features, labels) in zip(range(3), batches):
        for model in (packed, unpacked):
            model.train()
            for param in model.parameters():
                param.grad[...] = 0.0
            loss.forward(model.forward(features), labels)
            model.backward(loss.backward())
        if mu:
            add_proximal_gradient(packed_step, *reference_run(packed, reference), mu)
            for param_name, param in unpacked.named_parameters():
                param.grad += 2.0 * mu * (param.data - reference[param_name].astype(dtype))
        packed_step.step()
        oracle.step()
        for (param_name, mine), (_, theirs) in zip(packed.named_parameters(), unpacked.named_parameters()):
            assert mine.data.tobytes() == theirs.data.tobytes(), (step, param_name)
        for (buffer_name, mine), (_, theirs) in zip(packed.named_buffers(), unpacked.named_buffers()):
            assert mine.tobytes() == theirs.tobytes(), (step, buffer_name)
    assert_one_vector(packed)
