"""Tests for the focal / Dice / weighted-MSE losses and GroupNorm."""

import numpy as np
import pytest
from gradcheck import (
    check_layer_input_gradient,
    check_layer_parameter_gradients,
    max_relative_error,
    numerical_gradient,
)

from repro.nn import GroupNorm, make_loss
from repro.nn.losses import BCEWithLogitsLoss, DiceLoss, FocalLoss, WeightedMSELoss


class TestFocalLoss:
    def test_zero_gamma_matches_scaled_bce(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 4))
        target = (rng.random((4, 4)) > 0.7).astype(float)
        focal = FocalLoss(gamma=0.0, alpha=0.5)
        bce = BCEWithLogitsLoss()
        assert focal(logits, target) == pytest.approx(0.5 * bce(logits, target), rel=1e-9)

    def test_down_weights_easy_examples(self):
        easy = np.array([[6.0]])
        hard = np.array([[0.1]])
        target = np.array([[1.0]])
        loss = FocalLoss(gamma=2.0, alpha=0.5)
        assert loss(easy, target) < loss(hard, target)

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 5))
        target = (rng.random((3, 5)) > 0.8).astype(float)
        loss = FocalLoss(gamma=2.0, alpha=0.25)

        def f(values):
            return loss.forward(values, target)

        numeric = numerical_gradient(f, logits.copy())
        loss.forward(logits, target)
        analytic = loss.backward()
        assert max_relative_error(analytic, numeric) < 1e-5

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            FocalLoss(gamma=-1.0)
        with pytest.raises(ValueError):
            FocalLoss(alpha=1.0)

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            FocalLoss().backward()


class TestDiceLoss:
    def test_perfect_overlap_near_zero(self):
        target = np.zeros((6, 6))
        target[2:4, 2:4] = 1.0
        assert DiceLoss()(target.copy(), target) < 0.05

    def test_no_overlap_near_one(self):
        prediction = np.zeros((6, 6))
        prediction[0, 0] = 1.0
        target = np.zeros((6, 6))
        target[5, 5] = 1.0
        assert DiceLoss(smooth=1e-3)(prediction, target) > 0.9

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(2)
        probs = rng.random((4, 4))
        target = (rng.random((4, 4)) > 0.6).astype(float)
        loss = DiceLoss()

        def f(values):
            return loss.forward(values, target)

        numeric = numerical_gradient(f, probs.copy())
        loss.forward(probs, target)
        analytic = loss.backward()
        assert max_relative_error(analytic, numeric) < 1e-5

    def test_invalid_smooth(self):
        with pytest.raises(ValueError):
            DiceLoss(smooth=0.0)


class TestWeightedMSELoss:
    def test_reduces_to_mse_for_unit_weight(self):
        rng = np.random.default_rng(3)
        prediction = rng.normal(size=(5, 5))
        target = (rng.random((5, 5)) > 0.5).astype(float)
        weighted = WeightedMSELoss(pos_weight=1.0)(prediction, target)
        plain = float(np.mean((prediction - target) ** 2))
        assert weighted == pytest.approx(plain)

    def test_positive_bins_weighted_up(self):
        prediction = np.zeros((2, 2))
        target = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert WeightedMSELoss(pos_weight=4.0)(prediction, target) > WeightedMSELoss(pos_weight=1.0)(
            prediction, target
        )

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(4)
        prediction = rng.normal(size=(3, 4))
        target = (rng.random((3, 4)) > 0.7).astype(float)
        loss = WeightedMSELoss(pos_weight=3.0)

        def f(values):
            return loss.forward(values, target)

        numeric = numerical_gradient(f, prediction.copy())
        loss.forward(prediction, target)
        analytic = loss.backward()
        assert max_relative_error(analytic, numeric) < 1e-6

    def test_factory_knows_new_losses(self):
        assert isinstance(make_loss("focal"), FocalLoss)
        assert isinstance(make_loss("dice"), DiceLoss)
        assert isinstance(make_loss("weighted_mse", pos_weight=2.0), WeightedMSELoss)


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
