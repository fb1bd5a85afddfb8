"""Tests for FLNet, RouteNet, PROS, and the model registry."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.models import FLNet, PROS, RouteNet, available_models, create_model, register_model
from repro.nn.losses import MSELoss

CHANNELS = 7
GRID = 16
#: The conv each model's input enters: it computes only parameter gradients.
FIRST_CONV = {FLNet: "input_conv", RouteNet: "stem.0", PROS: "body.0"}


def load_nn_oracles():
    """``tests/nn/oracles.py`` by path: ``tests/fl`` has a module of the same name."""
    path = Path(__file__).parents[1] / "nn" / "oracles.py"
    spec = importlib.util.spec_from_file_location("nn_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_batch(batch=2, channels=CHANNELS, grid=GRID, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch, channels, grid, grid)), rng.random((batch, 1, grid, grid))


def loss_step(model, seed=0):
    """One forward and backward pass; what ``backward`` returned."""
    x, y = random_batch(seed=seed)
    loss = MSELoss()
    loss.forward(model(x), y)
    return model.backward(loss.backward())


def first_conv(model):
    return dict(model.named_modules())[FIRST_CONV[type(model)]]


@pytest.mark.parametrize("model_cls", [FLNet, RouteNet, PROS])
class TestCommonModelBehaviour:
    def test_output_shape(self, model_cls):
        model = model_cls(CHANNELS, seed=0)
        x, _ = random_batch()
        assert model(x).shape == (2, 1, GRID, GRID)

    def test_backward_returns_nothing(self, model_cls):
        model = model_cls(CHANNELS, seed=0)
        assert loss_step(model) is None
        assert all(np.any(param.grad != 0) for param in model.parameters())

    def test_gradients_equal_a_full_first_conv_backward(self, model_cls):
        """Skipping the first conv's input gradient changes no parameter gradient."""
        model, full = model_cls(CHANNELS, seed=0), model_cls(CHANNELS, seed=0)
        conv, full_conv = first_conv(model), first_conv(full)
        seen = {}
        forward, accumulate = conv.forward, conv.accumulate_grads
        conv.forward = lambda x: forward(seen.setdefault("x", x))
        conv.accumulate_grads = lambda grad: accumulate(seen.setdefault("grad", grad))

        def full_backward(grad):
            del full_conv.accumulate_grads  # the class method, for backward to call
            try:
                seen["grad_input"] = full_conv.backward(grad)
            finally:
                full_conv.accumulate_grads = full_backward

        full_conv.accumulate_grads = full_backward
        loss_step(model)
        loss_step(full)
        assert seen["grad_input"].shape == seen["x"].shape
        for (name, param), (_, twin) in zip(model.named_parameters(), full.named_parameters()):
            assert param.grad.tobytes() == twin.grad.tobytes(), name
        oracle = load_nn_oracles().conv2d_step_oracle(conv, seen["x"], seen["grad"])
        assert conv.weight.grad.tobytes() == oracle[2].tobytes()
        assert conv.bias.grad.tobytes() == oracle[3].tobytes()

    def test_first_conv_holds_no_input_gradient_scratch(self, model_cls):
        model = model_cls(CHANNELS, seed=0)
        loss_step(model)
        held = {tag for tag, _, _ in first_conv(model)._ws._buffers}
        assert held == {"padded", "cols", "grad_weight_last", "grad_weight_sum"}
        held_by_output = {tag for tag, _, _ in model.output_conv._ws._buffers}
        # One filter: the channels-first fold and its per-tap spread.
        assert held_by_output >= {"tap_product", "grad_input_cnhw", "tap_spread"}

    def test_training_reduces_loss(self, model_cls):
        from repro.nn.optim import Adam

        model = model_cls(CHANNELS, seed=1)
        x, y = random_batch(seed=3)
        loss_fn = MSELoss()
        optimizer = Adam(model.parameters(), lr=1e-3)
        first = None
        for step in range(15):
            optimizer.zero_grad()
            out = model(x)
            value = loss_fn.forward(out, y)
            if step == 0:
                first = value
            model.backward(loss_fn.backward())
            optimizer.step()
        assert value < first

    def test_rejects_wrong_channel_count(self, model_cls):
        model = model_cls(CHANNELS, seed=0)
        with pytest.raises(ValueError):
            model(np.zeros((1, CHANNELS + 1, GRID, GRID)))

    def test_state_dict_round_trip_preserves_output(self, model_cls):
        model = model_cls(CHANNELS, seed=0)
        clone = model_cls(CHANNELS, seed=99)
        x, _ = random_batch(seed=5)
        clone.load_state_dict(model.state_dict())
        np.testing.assert_allclose(model.predict(x), clone.predict(x), atol=1e-10)

    def test_predict_runs_in_eval_and_restores_mode(self, model_cls):
        model = model_cls(CHANNELS, seed=0)
        model.train()
        x, _ = random_batch()
        model.predict(x)
        assert model.training

    def test_local_parameter_names_target_output_conv(self, model_cls):
        model = model_cls(CHANNELS, seed=0)
        local = model.local_parameter_names()
        assert local and all(name.startswith("output_conv") for name in local)
        global_names = [name for name, _ in model.named_parameters() if name not in local]
        assert set(local).isdisjoint(global_names)
        assert set(local) | set(global_names) == {name for name, _ in model.named_parameters()}

    def test_deterministic_init_given_seed(self, model_cls):
        a = model_cls(CHANNELS, seed=7)
        b = model_cls(CHANNELS, seed=7)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_allclose(pa.data, pb.data)


class TestFLNet:
    def test_table1_architecture(self):
        model = FLNet(CHANNELS, seed=0)
        table = model.architecture_table()
        assert table[0] == {
            "layer": "input_conv",
            "kernel_size": "9 x 9",
            "filters": 64,
            "activation": "ReLU",
        }
        assert table[1]["filters"] == 1 and table[1]["activation"] == "None"

    def test_no_batchnorm_layers(self):
        model = FLNet(CHANNELS, seed=0)
        assert not any("running_mean" in name for name, _ in model.named_buffers())

    def test_exactly_two_conv_layers(self):
        model = FLNet(CHANNELS, seed=0)
        conv_params = {name.split(".")[0] for name, _ in model.named_parameters()}
        assert conv_params == {"input_conv", "output_conv"}

    def test_parameter_count_formula(self):
        model = FLNet(CHANNELS, seed=0)
        expected = (CHANNELS * 81 * 64 + 64) + (64 * 81 * 1 + 1)
        assert model.num_parameters() == expected

    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError):
            FLNet(CHANNELS, kernel_size=8)

    def test_fewer_parameters_than_baselines(self):
        flnet = FLNet(CHANNELS, seed=0)
        routenet = RouteNet(CHANNELS, seed=0)
        pros = PROS(CHANNELS, seed=0)
        assert flnet.num_parameters() < routenet.num_parameters()
        assert flnet.num_parameters() < pros.num_parameters()


class TestRouteNetAndPros:
    def test_routenet_has_batchnorm(self):
        model = RouteNet(CHANNELS, seed=0)
        assert any("running_mean" in name for name, _ in model.named_buffers())

    def test_pros_has_batchnorm(self):
        model = PROS(CHANNELS, seed=0)
        assert any("running_mean" in name for name, _ in model.named_buffers())

    def test_routenet_requires_even_grid(self):
        model = RouteNet(CHANNELS, seed=0)
        with pytest.raises(ValueError):
            model(np.zeros((1, CHANNELS, 15, 15)))

    def test_pros_requires_even_grid(self):
        model = PROS(CHANNELS, seed=0)
        with pytest.raises(ValueError):
            model(np.zeros((1, CHANNELS, 15, 15)))

    def test_routenet_shortcut_affects_output(self):
        model = RouteNet(CHANNELS, seed=0)
        x, _ = random_batch(seed=9)
        baseline = model.predict(x)
        model.shortcut.weight.data[:] = 0.0
        model.shortcut.bias.data[:] = 0.0
        assert not np.allclose(model.predict(x), baseline)


class TestRegistry:
    def test_available_models(self):
        assert {"flnet", "routenet", "pros"}.issubset(set(available_models()))

    def test_create_by_name_case_insensitive(self):
        assert isinstance(create_model("FLNet", CHANNELS, seed=0), FLNet)
        assert isinstance(create_model("routenet", CHANNELS, seed=0), RouteNet)
        assert isinstance(create_model("PROS", CHANNELS, seed=0), PROS)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            create_model("unet", CHANNELS)

    def test_register_custom_model(self):
        register_model("tiny_flnet", lambda c, **kw: FLNet(c, hidden_filters=8, **kw), overwrite=True)
        model = create_model("tiny_flnet", CHANNELS, seed=0)
        assert isinstance(model, FLNet)
        assert model.hidden_filters == 8

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_model("flnet", FLNet)

    @pytest.mark.parametrize("name", available_models())
    def test_holds_no_rng_stream(self, name):
        """One lent model computes for every client on a thread: a layer's own
        generator would be a stream those clients share (see repro.fl.client)."""
        model = create_model(name, CHANNELS, seed=0)
        held = [
            f"{path or name}.{attribute}"
            for path, module in model.named_modules()
            for attribute, value in vars(module).items()
            if isinstance(value, (np.random.Generator, np.random.RandomState))
        ]
        assert held == []

    def test_kwargs_forwarded(self):
        model = create_model("flnet", CHANNELS, seed=0, hidden_filters=16)
        assert model.hidden_filters == 16
