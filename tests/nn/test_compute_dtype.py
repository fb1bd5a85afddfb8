"""Tests for the compute-dtype contract and the persistent layer workspaces.

Two guarantees are pinned here:

* ``float64`` (the default) is the historical engine: a warm, recycled
  workspace must not change a single bit against a cold copy or the
  allocating expressions, and every layer/loss still produces float64
  everywhere.
* ``float32`` is a *local* fast path: layer outputs and gradients track the
  prediction dtype within float32 tolerance of the float64 results, while
  everything at the state boundary (``state_dict``, ``flat_model_state``)
  stays float64.
"""

import pickle

import numpy as np
import pytest
from oracles import col2im_oracle, im2col_oracle, on_cold_pool

from repro.nn import (
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    GroupNorm,
    MaxPool2d,
    Workspace,
    make_loss,
    resolve_compute_dtype,
)
from repro.nn import functional as F
from repro.nn.losses import MSELoss
from repro.nn.optim import BLOCK, Adam
from repro.fl import LocalTrainer
from repro.models import FLNet, available_models, create_model
from repro.models.routenet import RouteNet


def rng(seed=0):
    return np.random.default_rng(seed)


class TestResolveComputeDtype:
    def test_accepts_names_dtypes_and_none(self):
        assert resolve_compute_dtype(None) == np.float64
        assert resolve_compute_dtype("float64") == np.float64
        assert resolve_compute_dtype("float32") == np.float32
        assert resolve_compute_dtype(np.float32) == np.float32

    def test_rejects_everything_else(self):
        for bad in ("float16", "int64", np.int32, "bfloat16"):
            with pytest.raises(ValueError):
                resolve_compute_dtype(bad)


class TestSetComputeDtype:
    def test_casts_parameters_gradients_and_buffers(self):
        layer = BatchNorm2d(3)
        layer.set_compute_dtype("float32")
        assert layer.compute_dtype == np.float32
        assert layer.weight.data.dtype == np.float32
        assert layer.weight.grad.dtype == np.float32
        assert layer.running_mean.dtype == np.float32
        assert layer._buffers["running_var"].dtype == np.float32

    def test_recursive_and_idempotent(self):
        model = FLNet(3, seed=0)
        model.set_compute_dtype("float32")
        assert all(p.data.dtype == np.float32 for p in model.parameters())
        before = [p.data for p in model.parameters()]
        model.set_compute_dtype("float32")  # no-op: same arrays, no recast
        assert all(a is b for a, b in zip(before, [p.data for p in model.parameters()]))
        model.set_compute_dtype("float64")
        assert all(p.data.dtype == np.float64 for p in model.parameters())

    def test_state_dict_always_float64(self):
        model = FLNet(3, seed=1).set_compute_dtype("float32")
        state = model.state_dict()
        assert all(value.dtype == np.float64 for value in state.values())

    def test_load_state_dict_casts_down_once(self):
        model = FLNet(3, seed=2).set_compute_dtype("float32")
        state = {name: value + 1.0 for name, value in model.state_dict().items()}
        model.load_state_dict(state)
        assert model.input_conv.weight.data.dtype == np.float32
        np.testing.assert_allclose(
            model.input_conv.weight.data,
            state["input_conv.weight"].astype(np.float32),
            rtol=0,
            atol=0,
        )

    def test_buffer_updates_stay_in_compute_dtype(self):
        layer = BatchNorm2d(2).set_compute_dtype("float32")
        layer.forward(rng().normal(size=(4, 2, 6, 6)).astype(np.float32))
        assert layer.running_mean.dtype == np.float32
        assert layer.running_var.dtype == np.float32


@pytest.mark.parametrize(
    "make_layer",
    [
        lambda: Conv2d(3, 8, 3, padding=1, rng=rng(1)),
        lambda: ConvTranspose2d(3, 5, 4, stride=2, padding=1, rng=rng(2)),
        lambda: Conv2d(3, 7, 1, rng=rng(3)),
        lambda: BatchNorm2d(3),
        lambda: GroupNorm(1, 3),
        lambda: MaxPool2d(2),
    ],
    ids=["conv", "convtranspose", "conv1x1", "batchnorm", "groupnorm", "maxpool"],
)
class TestLayerDtypeParity:
    def _io(self, make_layer, dtype):
        layer = make_layer().set_compute_dtype(dtype)
        out = layer.forward(rng(7).normal(size=(4, 3, 8, 8)))
        grad_in = layer.backward(np.ones_like(out))
        return out, grad_in

    def test_float32_outputs_are_float32(self, make_layer):
        out, grad_in = self._io(make_layer, "float32")
        assert out.dtype == np.float32
        assert grad_in.dtype == np.float32

    def test_float32_tracks_float64(self, make_layer):
        out64, grad64 = self._io(make_layer, "float64")
        out32, grad32 = self._io(make_layer, "float32")
        np.testing.assert_allclose(out32, out64, rtol=2e-5, atol=2e-5)
        np.testing.assert_allclose(grad32, grad64, rtol=2e-5, atol=2e-5)


class TestWorkspaceParity:
    """Workspaces must never change float64 values beyond kernel-level ulps."""

    def test_conv_forward_backward_bit_identical(self):
        x = rng(4).normal(size=(3, 3, 10, 10))
        grad = rng(5).normal(size=(3, 6, 10, 10))
        warm = Conv2d(3, 6, 5, padding=2, rng=rng(6))
        cold = Conv2d(3, 6, 5, padding=2, rng=rng(6))
        # Warm: buffers that held another batch, released and taken back.
        warm.backward(warm.forward(rng(3).normal(size=x.shape)))
        warm.release_workspaces()
        warm.zero_grad()
        out_warm = warm.forward(x)
        grad_warm = warm.backward(grad)
        out_cold, grad_cold = on_cold_pool(lambda: (cold.forward(x), cold.backward(grad)))
        np.testing.assert_array_equal(out_warm, out_cold)
        np.testing.assert_array_equal(grad_warm, grad_cold)
        np.testing.assert_array_equal(warm.weight.grad, cold.weight.grad)

    def test_col2im_taps_match_bincount_bitwise(self):
        cases = [
            (2, 3, 8, 8, 3, 3, 1, 1, 1),
            (4, 4, 12, 12, 9, 9, 1, 4, 1),
            (3, 5, 11, 13, 3, 5, 2, 1, 1),
            (2, 4, 12, 12, 3, 3, 1, 2, 2),
            (2, 2, 6, 6, 2, 2, 2, 0, 1),
        ]
        for n, c, h, w, kh, kw, stride, padding, dilation in cases:
            out_h = F.conv_output_size(h, kh, stride, padding, dilation)
            out_w = F.conv_output_size(w, kw, stride, padding, dilation)
            cols = rng(n + c).normal(size=(n, c * kh * kw, out_h * out_w))
            engine = F.col2im(cols, (n, c, h, w), kh, kw, stride, padding, dilation)
            reference = col2im_oracle(cols, (n, c, h, w), kh, kw, stride, padding, dilation)
            np.testing.assert_array_equal(engine, reference)

    def test_mse_loss_workspace_bit_identical(self):
        prediction = rng(9).normal(size=(4, 1, 8, 8))
        target = rng(10).normal(size=(4, 1, 8, 8))
        warm = MSELoss()
        warm.forward(target, prediction)  # the workspace now holds other values
        value = warm.forward(prediction, target)
        grad = warm.backward()
        assert value == float(np.mean((prediction - target) ** 2))
        np.testing.assert_array_equal(grad, 2.0 * (prediction - target) / prediction.size)

    def test_layer_outputs_never_alias_scratch(self):
        # Returned arrays must stay valid across later forward calls
        # (predict_dataset collects outputs batch by batch).
        conv = Conv2d(2, 3, 3, padding=1, rng=rng(11))
        first = conv.forward(rng(12).normal(size=(2, 2, 6, 6)))
        kept = first.copy()
        conv.forward(rng(13).normal(size=(2, 2, 6, 6)))
        np.testing.assert_array_equal(first, kept)


class TestWorkspaceObject:
    def test_get_reuses_and_keys_by_shape_dtype(self):
        ws = Workspace()
        a = ws.get("x", (3, 4), np.float64)
        assert ws.get("x", (3, 4), np.float64) is a
        assert ws.get("x", (3, 4), np.float32) is not a
        assert ws.get("x", (4, 3), np.float64) is not a
        assert len(ws) == 3

    def test_zeros_prefills_once(self):
        ws = Workspace()
        buf = ws.zeros("pad", (4,))
        np.testing.assert_array_equal(buf, np.zeros(4))
        buf[:] = 7.0
        assert ws.zeros("pad", (4,)) is buf  # not re-zeroed: border contract

    def test_pickles_empty(self):
        ws = Workspace()
        ws.get("big", (64, 64))
        clone = pickle.loads(pickle.dumps(ws))
        assert len(clone) == 0
        assert clone.get("fresh", (2, 2)) is not None

    def test_model_pickle_drops_scratch(self):
        model = FLNet(3, seed=3)
        model.forward(rng(14).normal(size=(2, 3, 8, 8)))
        assert len(model.input_conv._ws) > 0
        clone = pickle.loads(pickle.dumps(model))
        assert len(clone.input_conv._ws) == 0
        np.testing.assert_array_equal(
            clone.input_conv.weight.data, model.input_conv.weight.data
        )

    @pytest.mark.parametrize("name", available_models())
    def test_model_pickles_at_cold_size_after_forward_backward(self, name):
        """No layer of any registered model pickles what forward left for backward."""
        model = create_model(name, 3, seed=0)
        cold = len(pickle.dumps(model))
        out = model.forward(rng(15).normal(size=(2, 3, 16, 16)))
        model.backward(np.ones_like(out))
        assert len(pickle.dumps(model)) == cold
        # Pickling is a read: the live model can still run its backward.
        model.backward(np.ones_like(out))

    def test_model_pickles_at_cold_size_after_train_steps(self, tiny_train_dataset, num_channels):
        model = FLNet(num_channels, hidden_filters=4, seed=1)
        cold = len(pickle.dumps(model))
        LocalTrainer(batch_size=2, rng=rng(16)).train_steps(model, tiny_train_dataset, steps=2)
        assert len(pickle.dumps(model)) == cold

    def test_unpickled_model_trains_bit_identically(self, tiny_train_dataset, num_channels):
        model = FLNet(num_channels, hidden_filters=4, seed=2)
        LocalTrainer(batch_size=2, rng=rng(17)).train_steps(model, tiny_train_dataset, steps=1)
        out = model.forward(rng(18).normal(size=(2, num_channels, 8, 8)))
        clone = pickle.loads(pickle.dumps(model))
        with pytest.raises(RuntimeError, match="before forward"):
            clone.backward(np.ones_like(out))
        for net in (model, clone):
            LocalTrainer(batch_size=2, rng=rng(19)).train_steps(net, tiny_train_dataset, steps=3)
        for (key, mine), (_, theirs) in zip(model.named_parameters(), clone.named_parameters()):
            np.testing.assert_array_equal(mine.data, theirs.data, err_msg=key)


class TestFloat32ModelParity:
    @pytest.mark.parametrize("build", [lambda s: FLNet(4, seed=s), lambda s: RouteNet(4, seed=s)], ids=["flnet", "routenet"])
    def test_forward_tracks_float64(self, build):
        x = rng(20).normal(size=(2, 4, 16, 16))
        out64 = build(5).forward(x)
        out32 = build(5).set_compute_dtype("float32").forward(x)
        assert out32.dtype == np.float32
        np.testing.assert_allclose(out32, out64, rtol=5e-4, atol=5e-4)

    def test_optimizer_state_follows_param_dtype(self):
        model = FLNet(3, seed=6).set_compute_dtype("float32")
        optimizer = Adam(model.parameters(), lr=1e-3)
        out = model.forward(rng(21).normal(size=(2, 3, 8, 8)))
        loss = make_loss("mse")
        loss.forward(out, np.zeros_like(out))
        model.backward(loss.backward())
        optimizer.step()
        held = dict(optimizer._ws._buffers)
        moments = [buffer for (tag, _, _), buffer in held.items() if tag not in ("work", "work2")]
        assert len(moments) == 2
        assert all(m.dtype == np.float32 and m.shape == model.flat.grad.shape for m in moments)
        scratch = [buffer for (tag, _, _), buffer in held.items() if tag in ("work", "work2")]
        block = min(model.flat.grad.size, BLOCK)
        assert len(scratch) == 2 and all(s.dtype == np.float32 and s.shape == (block,) for s in scratch)
        optimizer.step()
        assert all(optimizer._ws._buffers[key] is buffer for key, buffer in held.items())
        assert all(p.data.dtype == np.float32 for p in model.parameters())
