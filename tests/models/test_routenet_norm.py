"""Tests for RouteNet's normalization variants (batch / group / none)."""

import numpy as np
import pytest

from repro.models import RouteNet, RouteNetGN, available_models, create_model
from repro.nn.layers import BatchNorm2d, GroupNorm


def _input(channels=3, size=8, batch=2, seed=0):
    return np.random.default_rng(seed).normal(size=(batch, channels, size, size))


class TestNormVariants:
    def test_default_is_batch_norm(self):
        model = RouteNet(3, base_filters=4, seed=0)
        assert model.norm == "batch"
        assert any(isinstance(m, BatchNorm2d) for _, m in model.named_modules())
        assert any(key.endswith("running_mean") for key in model.state_dict())

    def test_group_variant_has_no_running_statistics(self):
        model = RouteNet(3, base_filters=4, norm="group", seed=0)
        assert any(isinstance(m, GroupNorm) for _, m in model.named_modules())
        assert not any(isinstance(m, BatchNorm2d) for _, m in model.named_modules())
        assert not any("running" in key for key in model.state_dict())

    def test_none_variant_has_no_norm_layers(self):
        model = RouteNet(3, base_filters=4, norm="none", seed=0)
        assert not any(isinstance(m, (BatchNorm2d, GroupNorm)) for _, m in model.named_modules())

    def test_invalid_norm_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            RouteNet(3, base_filters=4, norm="layer")

    @pytest.mark.parametrize("norm", ["batch", "group", "none"])
    def test_forward_shape(self, norm):
        model = RouteNet(3, base_filters=4, norm=norm, seed=0)
        output = model.forward(_input())
        assert output.shape == (2, 1, 8, 8)

    def test_variants_share_conv_parameter_shapes(self):
        """Only the norm layers differ: conv parameter shapes are identical."""
        batch = RouteNet(3, base_filters=4, norm="batch", seed=0)
        group = RouteNet(3, base_filters=4, norm="group", seed=0)
        batch_convs = {k: v.shape for k, v in batch.state_dict().items() if "conv" in k or "weight" in k}
        group_convs = {k: v.shape for k, v in group.state_dict().items() if k in batch_convs}
        for key, shape in group_convs.items():
            assert batch.state_dict()[key].shape == shape

    def test_backward_fills_every_gradient_for_group_variant(self):
        model = RouteNet(3, base_filters=4, norm="group", seed=0)
        output = model.forward(_input())
        assert model.backward(np.ones_like(output)) is None
        for name, param in model.named_parameters():
            assert np.all(np.isfinite(param.grad)) and np.any(param.grad != 0), name


class TestRouteNetGNFactory:
    def test_wrapper_builds_group_variant(self):
        model = RouteNetGN(3, base_filters=4, seed=0)
        assert isinstance(model, RouteNet)
        assert model.norm == "group"

    def test_registered_in_registry(self):
        assert "routenet_gn" in available_models()
        model = create_model("routenet_gn", in_channels=3, seed=0, base_filters=4)
        assert model.norm == "group"

    def test_deterministic_per_seed(self):
        a = RouteNetGN(3, base_filters=4, seed=5)
        b = RouteNetGN(3, base_filters=4, seed=5)
        for key, value in a.state_dict().items():
            np.testing.assert_array_equal(value, b.state_dict()[key])

    def test_output_layer_exposed_for_fedprox_lg(self):
        model = RouteNetGN(3, base_filters=4, seed=0)
        assert all(name.startswith("output_conv") for name in model.local_parameter_names())
