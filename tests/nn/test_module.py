"""Tests for Module registration, state dicts, and containers."""

import numpy as np
import pytest

from repro.models import FLNet
from repro.nn import BatchNorm2d, Conv2d, Identity, Module, ReLU, Sequential


class TinyNet(Module):
    """Two 1x1 convolutions around a ReLU: a dense net over the channel axis."""

    def __init__(self):
        super().__init__()
        self.fc1 = Conv2d(4, 8, 1, rng=np.random.default_rng(0))
        self.act = ReLU()
        self.fc2 = Conv2d(8, 2, 1, rng=np.random.default_rng(1))

    def forward(self, x):
        return self.fc2(self.act(self.fc1(x)))

    def backward(self, grad):
        return self.fc1.backward(self.act.backward(self.fc2.backward(grad)))


class TestRegistration:
    def test_parameters_are_discovered(self):
        net = TinyNet()
        names = [name for name, _ in net.named_parameters()]
        assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]

    def test_num_parameters(self):
        net = TinyNet()
        assert net.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_register_buffer_appears_in_state_dict(self):
        bn = BatchNorm2d(3)
        state = bn.state_dict()
        assert "running_mean" in state and "running_var" in state


class TestStateDict:
    def test_round_trip(self):
        net = TinyNet()
        other = TinyNet()
        other.load_state_dict(net.state_dict())
        for (_, a), (_, b) in zip(net.named_parameters(), other.named_parameters()):
            np.testing.assert_allclose(a.data, b.data)

    def test_state_dict_is_a_copy(self):
        net = TinyNet()
        state = net.state_dict()
        state["fc1.weight"][:] = 999.0
        assert not np.any(net.fc1.weight.data == 999.0)

    def test_strict_load_rejects_missing_keys(self):
        net = TinyNet()
        state = dict(net.state_dict())
        del state["fc2.bias"]
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_strict_load_rejects_unexpected_keys(self):
        net = TinyNet()
        state = dict(net.state_dict())
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda state: state.update(bogus=np.zeros(1)), KeyError),
            (lambda state: state.pop("output_conv.bias"), KeyError),
            (lambda state: state.update({"input_conv.bias": np.zeros(3)}), ValueError),
        ],
        ids=["extra_key", "missing_key", "wrong_shape"],
    )
    def test_refused_load_writes_nothing(self, edit, error):
        model = FLNet(3, hidden_filters=4, kernel_size=3, seed=0)
        before = model.state_dict()
        state = dict(FLNet(3, hidden_filters=4, kernel_size=3, seed=1).state_dict())
        edit(state)
        with pytest.raises(error):
            model.load_state_dict(state)
        after = model.state_dict()
        assert all(after[name].tobytes() == values.tobytes() for name, values in before.items())

    def test_buffer_round_trip(self):
        bn = BatchNorm2d(2)
        bn.forward(np.random.default_rng(0).normal(size=(4, 2, 3, 3)))
        other = BatchNorm2d(2)
        other.load_state_dict(bn.state_dict())
        np.testing.assert_allclose(other.running_mean, bn.running_mean)
        np.testing.assert_allclose(other.running_var, bn.running_var)


class TestTrainEval:
    def test_train_eval_propagates_to_children(self):
        seq = Sequential(BatchNorm2d(2), ReLU())
        seq.eval()
        assert not seq[0].training and not seq[1].training
        seq.train()
        assert seq[0].training and seq[1].training

    def test_zero_grad_resets_all(self):
        net = TinyNet()
        x = np.random.default_rng(0).normal(size=(3, 4, 1, 1))
        out = net(x)
        net.backward(np.ones_like(out))
        assert any(np.any(p.grad != 0) for p in net.parameters())
        net.zero_grad()
        assert all(np.all(p.grad == 0) for p in net.parameters())


class TestSequential:
    def test_forward_matches_manual_chain(self):
        rng = np.random.default_rng(0)
        conv = Conv2d(2, 3, 3, padding=1, rng=rng)
        relu = ReLU()
        seq = Sequential(conv, relu)
        x = rng.normal(size=(1, 2, 5, 5))
        np.testing.assert_allclose(seq(x), relu(conv(x)))

    def test_len_and_getitem(self):
        seq = Sequential(ReLU(), Identity())
        assert len(seq) == 2
        assert isinstance(seq[1], Identity)

    def test_append(self):
        seq = Sequential(ReLU())
        seq.append(Identity())
        assert len(seq) == 2

    def test_backward_reverses_order(self):
        rng = np.random.default_rng(0)
        seq = Sequential(Conv2d(4, 4, 1, rng=rng), ReLU(), Conv2d(4, 2, 1, rng=rng))
        x = rng.normal(size=(3, 4, 1, 1))
        out = seq(x)
        grad_in = seq.backward(np.ones_like(out))
        assert grad_in.shape == x.shape
