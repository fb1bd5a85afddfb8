"""Numerical gradient checks and behavioural tests for every layer."""

import numpy as np
import pytest

from gradcheck import (
    check_layer_input_gradient,
    check_layer_parameter_gradients,
    max_relative_error,
)

from repro.nn import (
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    GroupNorm,
    MaxPool2d,
    PixelShuffle,
    ReLU,
)

TOLERANCE = 1e-5


def assert_input_gradient(layer, shape, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    analytic, numeric = check_layer_input_gradient(layer, x)
    assert max_relative_error(analytic, numeric) < TOLERANCE


def assert_parameter_gradients(layer, shape, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    results = check_layer_parameter_gradients(layer, x)
    for name, (analytic, numeric) in results.items():
        assert max_relative_error(analytic, numeric) < TOLERANCE, name


class TestConv2d:
    def test_output_shape_same_padding(self):
        conv = Conv2d(3, 5, 9, padding=4, rng=np.random.default_rng(0))
        out = conv(np.zeros((2, 3, 12, 12)))
        assert out.shape == (2, 5, 12, 12)

    def test_output_shape_strided(self):
        conv = Conv2d(3, 4, 3, stride=2, padding=1, rng=np.random.default_rng(0))
        assert conv(np.zeros((1, 3, 8, 8))).shape == (1, 4, 4, 4)

    def test_known_value_identity_kernel(self):
        conv = Conv2d(1, 1, 1, bias=False, rng=np.random.default_rng(0))
        conv.weight.data[...] = 2.0
        x = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        np.testing.assert_allclose(conv(x), 2.0 * x)

    def test_rejects_wrong_channel_count(self):
        conv = Conv2d(3, 4, 3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            conv(np.zeros((1, 2, 8, 8)))

    def test_backward_before_forward_raises(self):
        conv = Conv2d(1, 1, 3, rng=np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            conv.backward(np.zeros((1, 1, 3, 3)))

    def test_input_gradient(self):
        assert_input_gradient(Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(1)), (2, 2, 6, 6))

    def test_input_gradient_strided_dilated(self):
        layer = Conv2d(2, 2, 3, stride=2, padding=2, dilation=2, rng=np.random.default_rng(2))
        assert_input_gradient(layer, (2, 2, 9, 9))

    def test_parameter_gradients(self):
        assert_parameter_gradients(Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(3)), (2, 2, 5, 5))

    def test_no_bias_has_single_parameter(self):
        conv = Conv2d(2, 3, 3, bias=False, rng=np.random.default_rng(0))
        assert [name for name, _ in conv.named_parameters()] == ["weight"]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            Conv2d(0, 3, 3)
        with pytest.raises(ValueError):
            Conv2d(1, 1, 3, stride=0)


class TestConvTranspose2d:
    def test_upsamples_by_stride(self):
        layer = ConvTranspose2d(3, 2, 4, stride=2, padding=1, rng=np.random.default_rng(0))
        assert layer(np.zeros((1, 3, 8, 8))).shape == (1, 2, 16, 16)

    def test_inverse_shape_of_conv(self):
        conv = Conv2d(1, 1, 4, stride=2, padding=1, rng=np.random.default_rng(0))
        deconv = ConvTranspose2d(1, 1, 4, stride=2, padding=1, rng=np.random.default_rng(0))
        x = np.zeros((1, 1, 10, 10))
        assert deconv(conv(x)).shape == x.shape

    def test_input_gradient(self):
        layer = ConvTranspose2d(2, 3, 4, stride=2, padding=1, rng=np.random.default_rng(1))
        assert_input_gradient(layer, (2, 2, 5, 5))

    def test_parameter_gradients(self):
        layer = ConvTranspose2d(2, 2, 3, stride=1, padding=1, rng=np.random.default_rng(2))
        assert_parameter_gradients(layer, (1, 2, 5, 5))

    def test_rejects_output_padding_ge_stride(self):
        with pytest.raises(ValueError):
            ConvTranspose2d(1, 1, 3, stride=1, output_padding=1)


class TestBatchNorm2d:
    def test_training_normalizes_batch(self):
        bn = BatchNorm2d(3)
        x = np.random.default_rng(0).normal(loc=5.0, scale=3.0, size=(8, 3, 6, 6))
        out = bn(x)
        assert abs(out.mean()) < 1e-9
        assert out.std() == pytest.approx(1.0, rel=1e-2)

    def test_running_stats_converge(self):
        bn = BatchNorm2d(2)
        rng = np.random.default_rng(0)
        for _ in range(50):
            bn(rng.normal(loc=2.0, scale=1.5, size=(16, 2, 4, 4)))
        assert np.allclose(bn.running_mean, 2.0, atol=0.2)
        assert np.allclose(bn.running_var, 1.5**2, atol=0.5)

    def test_one_training_batch_moves_running_stats_a_tenth_of_the_way(self):
        bn = BatchNorm2d(2)
        x = np.random.default_rng(3).normal(loc=4.0, scale=2.0, size=(4, 2, 3, 3))
        bn(x)
        batch_mean = x.mean(axis=(0, 2, 3))
        unbiased_var = x.var(axis=(0, 2, 3), ddof=1)
        np.testing.assert_allclose(bn.running_mean, 0.1 * batch_mean, rtol=1e-12)
        np.testing.assert_allclose(bn.running_var, 0.9 + 0.1 * unbiased_var, rtol=1e-12)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm2d(2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            bn(rng.normal(size=(8, 2, 4, 4)))
        bn.eval()
        x = rng.normal(size=(4, 2, 4, 4))
        expected = (x - bn.running_mean.reshape(1, -1, 1, 1)) / np.sqrt(
            bn.running_var.reshape(1, -1, 1, 1) + bn.eps
        )
        np.testing.assert_allclose(bn(x), expected, atol=1e-9)

    def test_input_gradient_training(self):
        # BatchNorm input gradients largely cancel within a batch, so the
        # per-element values are tiny; compare with an absolute tolerance
        # instead of the relative criterion used for the other layers.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3, 5, 5))
        analytic, numeric = check_layer_input_gradient(BatchNorm2d(3), x)
        np.testing.assert_allclose(analytic, numeric, atol=1e-7)

    def test_parameter_gradients(self):
        assert_parameter_gradients(BatchNorm2d(2), (4, 2, 5, 5))

    def test_rejects_wrong_channels(self):
        with pytest.raises(ValueError):
            BatchNorm2d(3)(np.zeros((1, 2, 4, 4)))


class TestGroupNorm:
    def test_output_normalized_per_group(self):
        rng = np.random.default_rng(0)
        x = rng.normal(loc=3.0, scale=2.0, size=(2, 4, 5, 5))
        layer = GroupNorm(num_groups=2, num_channels=4)
        out = layer.forward(x)
        grouped = out.reshape(2, 2, 2, 5, 5)
        assert np.allclose(grouped.mean(axis=(2, 3, 4)), 0.0, atol=1e-6)
        assert np.allclose(grouped.std(axis=(2, 3, 4)), 1.0, atol=1e-3)

    def test_no_buffers_registered(self):
        layer = GroupNorm(2, 4)
        assert "running_mean" not in layer.state_dict()

    def test_constant_group_maps_to_bias(self):
        layer = GroupNorm(2, 4)
        layer.bias.data[:] = [0.5, 0.5, -1.0, -1.0]
        x = np.full((1, 4, 3, 3), 7.0)
        out = layer.forward(x)
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out[0, :, 0, 0], [0.5, 0.5, -1.0, -1.0])

    def test_input_gradient_matches_numerical(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 4, 3, 3))
        analytic, numeric = check_layer_input_gradient(GroupNorm(2, 4), x)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_parameter_gradients_match_numerical(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 4, 3, 3))
        results = check_layer_parameter_gradients(GroupNorm(2, 4), x)
        for analytic, numeric in results.values():
            assert max_relative_error(analytic, numeric) < 1e-4

    def test_one_group_per_channel_normalizes_each_channel(self):
        rng = np.random.default_rng(3)
        x = rng.normal(loc=-1.0, scale=3.0, size=(2, 3, 6, 6))
        out = GroupNorm(3, 3).forward(x)
        assert np.allclose(out.mean(axis=(2, 3)), 0.0, atol=1e-6)

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            GroupNorm(num_groups=3, num_channels=4)
        with pytest.raises(ValueError):
            GroupNorm(num_groups=0, num_channels=4)

    def test_rejects_wrong_shape(self):
        layer = GroupNorm(2, 4)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((2, 3, 4, 4)))


class TestActivations:
    def test_input_gradients(self):
        assert_input_gradient(ReLU(), (3, 2, 4, 4))

    def test_relu_zeroes_negatives(self):
        out = ReLU()(np.array([[-1.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 2.0]])


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2d(2)(x)
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_gradient(self):
        assert_input_gradient(MaxPool2d(2), (2, 3, 6, 6), seed=5)

    def test_maxpool_routes_gradient_to_argmax(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        pool = MaxPool2d(2)
        pool(x)
        grad = pool.backward(np.ones((1, 1, 2, 2)))
        # Only the max positions (5, 7, 13, 15) receive gradient.
        expected = np.zeros((4, 4))
        for idx in (5, 7, 13, 15):
            expected[idx // 4, idx % 4] = 1.0
        np.testing.assert_allclose(grad[0, 0], expected)

    def test_maxpool_takes_no_padding(self):
        # Zero padding made every border window of a negative map read 0;
        # no model pads its pooling, so the option is gone.
        with pytest.raises(TypeError):
            MaxPool2d(2, padding=1)


class TestUpsampling:
    def test_pixel_shuffle_shape(self):
        out = PixelShuffle(2)(np.zeros((1, 8, 3, 3)))
        assert out.shape == (1, 2, 6, 6)

    def test_pixel_shuffle_is_permutation(self):
        x = np.random.default_rng(0).normal(size=(2, 4, 3, 3))
        out = PixelShuffle(2)(x)
        assert sorted(out.ravel()) == pytest.approx(sorted(x.ravel()))

    def test_pixel_shuffle_gradient(self):
        assert_input_gradient(PixelShuffle(2), (1, 4, 3, 3))

    def test_pixel_shuffle_rejects_bad_channels(self):
        with pytest.raises(ValueError):
            PixelShuffle(2)(np.zeros((1, 3, 4, 4)))
