"""Tests for losses, optimizers, initialization, and serialization."""

import numpy as np
import pytest
from gradcheck import numerical_gradient
from oracles import AdamOracle, SGDOracle
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Conv2d, Parameter, load_state_dict, make_loss, make_optimizer, save_state_dict
from repro.nn import init as nn_init
from repro.nn.losses import BCELoss, BCEWithLogitsLoss, MSELoss
from repro.nn.optim import BLOCK, SGD, Adam
from repro.nn.state import FlatState


class TestMSELoss:
    def test_value(self):
        loss = MSELoss()
        value = loss.forward(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 1.0]))
        assert value == pytest.approx((0 + 1 + 4) / 3)

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=(4, 5))
        target = rng.normal(size=(4, 5))
        loss = MSELoss()
        loss.forward(pred, target)
        analytic = loss.backward()
        numeric = numerical_gradient(lambda p: MSELoss().forward(p, target), pred.copy())
        np.testing.assert_allclose(analytic, numeric, atol=1e-7)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            MSELoss().forward(np.zeros(3), np.zeros(4))

    def test_zero_for_perfect_prediction(self):
        x = np.random.default_rng(0).normal(size=(3, 3))
        assert MSELoss().forward(x, x.copy()) == pytest.approx(0.0)


class TestBCELosses:
    def test_bce_known_value(self):
        loss = BCELoss()
        value = loss.forward(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert value == pytest.approx(-np.log(0.5))

    def test_bce_gradient_numerical(self):
        rng = np.random.default_rng(1)
        pred = rng.uniform(0.05, 0.95, size=(3, 4))
        target = (rng.random((3, 4)) > 0.5).astype(float)
        loss = BCELoss()
        loss.forward(pred, target)
        analytic = loss.backward()
        numeric = numerical_gradient(lambda p: BCELoss().forward(p, target), pred.copy())
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_bce_logits_matches_bce_on_sigmoid(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(5, 5))
        target = (rng.random((5, 5)) > 0.5).astype(float)
        from repro.nn.functional import sigmoid

        direct = BCEWithLogitsLoss().forward(logits, target)
        via_probs = BCELoss().forward(sigmoid(logits), target)
        assert direct == pytest.approx(via_probs, rel=1e-6)

    def test_bce_logits_gradient_numerical(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(3, 3))
        target = (rng.random((3, 3)) > 0.5).astype(float)
        loss = BCEWithLogitsLoss()
        loss.forward(logits, target)
        analytic = loss.backward()
        numeric = numerical_gradient(lambda p: BCEWithLogitsLoss().forward(p, target), logits.copy())
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_factory(self):
        assert isinstance(make_loss("mse"), MSELoss)
        assert isinstance(make_loss("bce"), BCELoss)
        assert isinstance(make_loss("bce_logits"), BCEWithLogitsLoss)
        with pytest.raises(ValueError):
            make_loss("hinge")

    @pytest.mark.parametrize("name", ["focal", "dice", "weighted_mse"])
    def test_factory_refuses_losses_no_config_selects(self, name):
        with pytest.raises(ValueError, match="unknown loss"):
            make_loss(name)

    def test_factory_takes_no_loss_options(self):
        with pytest.raises(TypeError):
            make_loss("bce", eps=1e-3)

    def test_bce_clips_saturated_probabilities_at_1e_7(self):
        value = BCELoss().forward(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert value == pytest.approx(-np.log(1e-7))

    def test_bce_logits_gradient_is_probability_minus_target(self):
        from repro.nn.functional import sigmoid

        logits = np.array([[-2.0, 0.0], [1.5, 4.0]])
        target = np.array([[0.0, 1.0], [1.0, 0.0]])
        loss = BCEWithLogitsLoss()
        loss.forward(logits, target)
        np.testing.assert_allclose(loss.backward(), (sigmoid(logits) - target) / 4, rtol=1e-15)


def quadratic_problem(seed=0):
    """A small least-squares problem used to test optimizer convergence."""
    rng = np.random.default_rng(seed)
    target = rng.normal(size=(5,))
    param = Parameter(np.zeros(5))

    def loss_and_grad():
        diff = param.data - target
        param.grad[...] = 2.0 * diff
        return float(np.sum(diff**2))

    return param, target, loss_and_grad


class TestOptimizers:
    @pytest.mark.parametrize("make", [lambda p: SGD([p], lr=0.1), lambda p: SGD([p], lr=0.05, momentum=0.9), lambda p: Adam([p], lr=0.2)])
    def test_converges_on_quadratic(self, make):
        param, target, loss_and_grad = quadratic_problem()
        optimizer = make(param)
        for _ in range(200):
            optimizer.zero_grad()
            loss_and_grad()
            optimizer.step()
        np.testing.assert_allclose(param.data, target, atol=1e-2)

    def test_weight_decay_shrinks_parameters(self):
        param = Parameter(np.ones(4) * 10.0)
        optimizer = SGD([param], lr=0.1, weight_decay=1.0)
        for _ in range(50):
            optimizer.zero_grad()  # gradient stays zero; only decay acts
            optimizer.step()
        assert np.all(np.abs(param.data) < 10.0)

    def test_adam_step_count(self):
        param = Parameter(np.ones(2))
        adam = Adam([param], lr=0.1)
        param.grad[...] = 1.0
        adam.step()
        assert adam._step_count == 1

    def test_adam_steps_with_the_standard_constants(self):
        grads = [np.array([0.5, -2.0, 1e-3]), np.array([-1.0, 3.0, 0.0])]
        param = Parameter(np.array([1.0, -1.0, 0.25]))
        adam = Adam([param], lr=0.01)
        expected = param.data.copy()
        m = np.zeros(3)
        v = np.zeros(3)
        for t, grad in enumerate(grads, start=1):
            param.grad[...] = grad
            adam.step()
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad**2
            expected -= 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            np.testing.assert_allclose(param.data, expected, rtol=1e-12, atol=1e-15)

    def test_factory_sgd_carries_momentum_0_9(self):
        param = Parameter(np.zeros(2))
        sgd = make_optimizer("sgd", [param], lr=0.1)
        assert sgd.momentum == 0.9
        for _ in range(2):
            param.grad[...] = 1.0
            sgd.step()
        # velocity 1 then 1.9: the parameter moved by 0.1 * (1 + 1.9).
        np.testing.assert_allclose(param.data, -0.29, rtol=1e-12)

    def test_factory(self):
        param = Parameter(np.zeros(2))
        assert isinstance(make_optimizer("sgd", [param], lr=0.1), SGD)
        assert isinstance(make_optimizer("adam", [param], lr=0.1), Adam)
        with pytest.raises(ValueError):
            make_optimizer("rmsprop", [param], lr=0.1)

    def test_invalid_hyperparameters(self):
        param = Parameter(np.zeros(2))
        with pytest.raises(ValueError):
            SGD([param], lr=-1.0)
        with pytest.raises(ValueError):
            SGD([param], lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            Adam([], lr=0.1)


class TestInPlaceStepBitIdentity:
    """The in-place (``out=``) optimizer steps must be bit-identical to the
    original expression-form updates they replaced."""

    SHAPES = [(4, 3), (7,), (2, 2, 3)]
    STEPS = 6

    def _run(self, optimizer, params, grads):
        for step_grads in grads:
            for param, grad in zip(params, step_grads):
                param.grad[...] = grad
            optimizer.step()

    def _make_problem(self, seed=0):
        rng = np.random.default_rng(seed)
        initial = [rng.normal(size=shape) for shape in self.SHAPES]
        grads = [
            [rng.normal(size=shape) for shape in self.SHAPES] for _ in range(self.STEPS)
        ]
        return initial, grads

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_sgd_matches_expression_form(self, momentum, weight_decay):
        initial, grads = self._make_problem()
        params = [Parameter(values.copy()) for values in initial]
        self._run(SGD(params, lr=0.01, momentum=momentum, weight_decay=weight_decay), params, grads)
        reference = [Parameter(values.copy()) for values in initial]
        self._run(SGDOracle(reference, lr=0.01, momentum=momentum, weight_decay=weight_decay), reference, grads)
        for param, expected in zip(params, reference):
            np.testing.assert_array_equal(param.data, expected.data)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-5])
    def test_adam_matches_expression_form(self, weight_decay):
        initial, grads = self._make_problem(seed=1)
        params = [Parameter(values.copy()) for values in initial]
        self._run(Adam(params, lr=2e-4, weight_decay=weight_decay), params, grads)
        reference = [Parameter(values.copy()) for values in initial]
        self._run(AdamOracle(reference, lr=2e-4, weight_decay=weight_decay), reference, grads)
        for param, expected in zip(params, reference):
            np.testing.assert_array_equal(param.data, expected.data)

    @pytest.mark.parametrize("build", ["adam", "sgd"])
    def test_first_step_keeps_the_bits_of_a_zeroed_moment(self, build):
        """The first step writes a moment whole: ``-0`` still becomes ``+0``, as from zeros."""
        grad = np.array([-0.0, 0.0, -1e-300, 2.5, -3.0, np.inf, -np.inf])
        param, twin = Parameter(np.arange(7.0)), Parameter(np.arange(7.0))
        if build == "adam":
            optimizer, oracle = Adam([param], lr=1e-3), AdamOracle([twin], lr=1e-3)
            tags, moments = ("m", "v"), (oracle.first, oracle.second)
        else:
            optimizer, oracle = SGD([param], lr=1e-3, momentum=0.9), SGDOracle([twin], lr=1e-3, momentum=0.9)
            tags, moments = ("velocity",), (oracle.velocity,)
        for step in range(2):
            param.grad[...] = twin.grad[...] = grad
            with np.errstate(invalid="ignore"):
                optimizer.step()
                oracle.step()
            held = {tag: buffer for (tag, _, _), buffer in optimizer._ws._buffers.items()}
            for tag, (expected,) in zip(tags, moments):
                assert held[tag].tobytes() == expected.tobytes(), (step, tag)
            assert param.data.tobytes() == twin.data.tobytes(), step

    def test_step_allocates_no_new_state_after_first_call(self):
        initial, grads = self._make_problem(seed=2)
        total = sum(int(np.prod(shape)) for shape in self.SHAPES)
        for build, moments in (
            (lambda p: Adam(p, lr=1e-3, weight_decay=1e-5), 2),
            (lambda p: SGD(p, lr=0.01, momentum=0.9), 1),
        ):
            params = [Parameter(values.copy()) for values in initial]
            optimizer = build(params)
            for param, grad in zip(params, grads[0]):
                param.grad[...] = grad
            optimizer.step()
            # Everything the optimizer holds is lent from its workspace.
            held = dict(optimizer._ws._buffers)
            pair = [buffer for (tag, _, _), buffer in held.items() if tag in ("work", "work2")]
            state = [buffer for (tag, _, _), buffer in held.items() if tag not in ("work", "work2")]
            # One buffer per moment, as long as the parameter run.
            assert len(state) == moments and all(buffer.shape == (total,) for buffer in state)
            # One pair for the whole optimizer, each one block long.
            assert len(pair) == 2 and pair[0] is not pair[1]
            assert all(buffer.shape == (min(total, BLOCK),) for buffer in pair)
            for _ in range(2):
                optimizer.step()
                assert optimizer._ws._buffers.keys() == held.keys()
                assert all(optimizer._ws._buffers[key] is buffer for key, buffer in held.items())
            # The parameters were packed into the run the optimizer steps.
            assert all(np.shares_memory(param.data, optimizer.data) for param in params)
            assert all(np.shares_memory(param.grad, optimizer.grad) for param in params)


class TestInit:
    def test_kaiming_uniform_bound(self):
        rng = np.random.default_rng(0)
        weights = nn_init.kaiming_uniform((64, 16, 3, 3), rng)
        bound = np.sqrt(2.0) * np.sqrt(3.0 / (16 * 9))
        assert np.all(np.abs(weights) <= bound + 1e-12)

    def test_unsupported_shape(self):
        with pytest.raises(ValueError):
            nn_init.kaiming_uniform((3,), np.random.default_rng(0))

    def test_uniform_bias_bound(self):
        bias = nn_init.uniform_bias((1000,), fan_in=16 * 9, rng=np.random.default_rng(0))
        bound = 1.0 / np.sqrt(16 * 9)
        assert bias.shape == (1000,)
        assert np.all(np.abs(bias) <= bound)
        assert np.abs(bias).max() > 0.9 * bound  # fills the interval, not a narrower one

    def test_uniform_bias_zero_fan_in_is_bounded_by_one(self):
        bias = nn_init.uniform_bias((200,), fan_in=0, rng=np.random.default_rng(1))
        assert np.all(np.isfinite(bias)) and np.all(np.abs(bias) <= 1.0)

    @given(st.integers(1, 16), st.integers(1, 16), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_fan_computation_consistency(self, out_channels, in_channels, kh, kw):
        rng = np.random.default_rng(0)
        weights = nn_init.kaiming_uniform((out_channels, in_channels, kh, kw), rng)
        assert weights.shape == (out_channels, in_channels, kh, kw)
        bound = np.sqrt(2.0) * np.sqrt(3.0 / (in_channels * kh * kw))
        assert np.all(np.abs(weights) <= bound + 1e-12)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        state = Conv2d(4, 3, 1, rng=np.random.default_rng(0)).state_dict()
        path = save_state_dict(state, tmp_path / "model")
        restored = load_state_dict(path)
        assert restored.keys() == state.keys()
        for key, value in state.items():
            np.testing.assert_array_equal(restored[key], value)

    def test_loads_one_flat_state_in_archive_order(self, tmp_path):
        layer = Conv2d(4, 3, 1, rng=np.random.default_rng(0))
        path = save_state_dict(layer.state_dict(), tmp_path / "model")
        restored = load_state_dict(path)
        assert isinstance(restored, FlatState)
        assert list(restored) == ["weight", "bias"]  # archive order, not sorted
        assert restored.layout is layer.flat.layout
        assert restored.vector.tobytes() == layer.flat.vector.tobytes()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_state_dict(tmp_path / "nope.npz")
