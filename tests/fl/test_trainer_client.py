"""Tests for the local trainer, the federated client, and the FL config."""

import dataclasses

import numpy as np
import pytest

from repro.fl import FLConfig, FederatedClient, LocalTrainer, predict_dataset
from repro.fl.config import PAPER_ASSIGNED_CLUSTERS
from repro.fl.parameters import state_distance
from repro.fl.trainer import add_proximal_gradient, proximal_terms
from repro.models import RouteNet
from repro.nn.optim import Adam
from conftest import TINY_CONFIG, make_factory
from test_state_door import load_fl_oracles

proximal_gradient_oracle = load_fl_oracles().proximal_gradient_oracle


class TestFLConfig:
    def test_paper_defaults(self):
        config = FLConfig()
        assert config.rounds == 50
        assert config.local_steps == 100
        assert config.finetune_steps == 5000
        assert config.learning_rate == pytest.approx(2e-4)
        assert config.weight_decay == pytest.approx(1e-5)
        assert config.proximal_mu == pytest.approx(1e-4)
        assert config.alpha == pytest.approx(0.5)
        assert config.num_clusters == 4
        assert config.optimizer == "adam"

    def test_paper_assigned_clusters(self):
        mapping = FLConfig().assigned_cluster_map()
        assert mapping == PAPER_ASSIGNED_CLUSTERS
        assert mapping[1] == mapping[2] == mapping[3]
        assert mapping[9] not in (mapping[1], mapping[4], mapping[7])

    def test_effective_step_budgets(self):
        config = FLConfig(rounds=5, local_steps=10)
        assert config.total_federated_steps == 50
        assert config.effective_centralized_steps == 50
        assert config.effective_local_steps == 50
        overridden = FLConfig(rounds=5, local_steps=10, centralized_steps=7, local_steps_total=9)
        assert overridden.effective_centralized_steps == 7
        assert overridden.effective_local_steps == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            FLConfig(rounds=0)
        with pytest.raises(ValueError):
            FLConfig(optimizer="lbfgs")
        with pytest.raises(ValueError):
            FLConfig(alpha=2.0)


class TestLocalTrainer:
    def test_training_reduces_loss(self, tiny_train_dataset, num_channels):
        trainer = LocalTrainer(learning_rate=3e-3, batch_size=2, rng=np.random.default_rng(0))
        model = make_factory(num_channels)()
        before = trainer.evaluate_loss(model, tiny_train_dataset)
        trainer.train_steps(model, tiny_train_dataset, steps=12)
        after = trainer.evaluate_loss(model, tiny_train_dataset)
        assert after < before

    def test_step_statistics(self, tiny_train_dataset, num_channels):
        trainer = LocalTrainer(batch_size=2, rng=np.random.default_rng(0))
        model = make_factory(num_channels)()
        stats = trainer.train_steps(model, tiny_train_dataset, steps=3)
        assert stats.steps == 3
        assert np.isfinite(stats.mean_loss) and np.isfinite(stats.final_loss)

    def test_proximal_term_limits_drift(self, tiny_train_dataset, num_channels):
        """A huge proximal mu keeps the trained model near the reference."""
        factory = make_factory(num_channels)
        reference = factory().state_dict()

        def train_with_mu(mu):
            trainer = LocalTrainer(learning_rate=5e-3, batch_size=2, rng=np.random.default_rng(1))
            model = factory()
            model.load_state_dict(reference)
            trainer.train_steps(
                model, tiny_train_dataset, steps=10, proximal_mu=mu, proximal_reference=reference
            )
            return state_distance(model.state_dict(), reference)

        assert train_with_mu(10.0) < train_with_mu(0.0)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_in_place_proximal_term_equals_the_expression_form(self, dtype):
        # grad += 2 mu (data - ref) through the optimizer's work buffer, bit
        # for bit the expression form; names the reference lacks are skipped.
        generator = np.random.default_rng(7)
        model = RouteNet(3, seed=2).set_compute_dtype(dtype)
        named = dict(model.named_parameters())
        reference = {
            name: (param.data + generator.normal(scale=1e-2, size=param.data.shape)).astype(dtype)
            for name, param in named.items()
            if not name.endswith("bias")
        }
        for param in named.values():
            param.grad[...] = generator.normal(size=param.data.shape)
        expected = {
            name: proximal_gradient_oracle(param.grad, param.data, reference[name], 0.37)
            if name in reference
            else param.grad.copy()
            for name, param in named.items()
        }
        optimizer = Adam(model.parameters(), lr=1e-3)
        terms = proximal_terms(model, reference, optimizer)
        assert len(terms) == len(reference) < len(named)
        # Every view lies in the optimizer's first work buffer: no scratch of its own.
        assert len({id(view.base) for _, _, view in terms}) == 1
        assert all(np.shares_memory(view, optimizer.work_views(param)[0]) for param, _, view in terms)
        add_proximal_gradient(terms, 0.37)
        for name, param in named.items():
            assert param.grad.dtype == np.dtype(dtype)
            assert param.grad.tobytes() == expected[name].tobytes(), name

    def test_proximal_requires_reference(self, tiny_train_dataset, num_channels):
        trainer = LocalTrainer(batch_size=2)
        model = make_factory(num_channels)()
        with pytest.raises(ValueError):
            trainer.train_steps(model, tiny_train_dataset, steps=1, proximal_mu=0.1)

    def test_invalid_steps(self, tiny_train_dataset, num_channels):
        trainer = LocalTrainer(batch_size=2)
        model = make_factory(num_channels)()
        with pytest.raises(ValueError):
            trainer.train_steps(model, tiny_train_dataset, steps=0)

    def test_predict_dataset_shapes(self, tiny_test_dataset, num_channels):
        model = make_factory(num_channels)()
        scores, labels = predict_dataset(model, tiny_test_dataset, batch_size=3)
        expected = len(tiny_test_dataset) * np.prod(tiny_test_dataset.grid_shape)
        assert scores.shape == labels.shape == (expected,)


class TestFederatedClient:
    @pytest.fixture
    def client(self, tiny_train_dataset, tiny_test_dataset, num_channels):
        return FederatedClient(
            client_id=1,
            train_dataset=tiny_train_dataset,
            test_dataset=tiny_test_dataset,
            model_factory=make_factory(num_channels),
            config=TINY_CONFIG,
        )

    def test_num_samples(self, client, tiny_train_dataset):
        assert client.num_samples == len(tiny_train_dataset)

    def test_local_train_returns_new_state(self, client, num_channels):
        initial = make_factory(num_channels)().state_dict()
        state, stats = client.local_train(initial, steps=2)
        assert set(state) == set(initial)
        assert state_distance(state, initial) > 0
        assert stats.steps == 2

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_proximal_reference_is_only_read(
        self, tiny_train_dataset, tiny_test_dataset, num_channels, dtype
    ):
        # FedProx trains against the received state itself, never a copy:
        # a read-only state trains to the bits of a writable one.
        client = FederatedClient(
            client_id=1,
            train_dataset=tiny_train_dataset,
            test_dataset=tiny_test_dataset,
            model_factory=make_factory(num_channels),
            config=dataclasses.replace(TINY_CONFIG, proximal_mu=0.5, compute_dtype=dtype),
        )
        initial = make_factory(num_channels)().state_dict()
        frozen = {name: value.copy() for name, value in initial.items()}
        for value in frozen.values():
            value.setflags(write=False)
        rng_state = client.rng_state
        writable_state, _ = client.local_train(initial, steps=3)
        client.rng_state = rng_state
        frozen_state, _ = client.local_train(frozen, steps=3)
        assert state_distance(frozen_state, frozen) > 0
        assert all(frozen_state[name].tobytes() == writable_state[name].tobytes() for name in initial)
        assert all(frozen[name].tobytes() == initial[name].tobytes() for name in initial)

    def test_fine_tune_moves_parameters(self, client, num_channels):
        initial = make_factory(num_channels)().state_dict()
        state, _ = client.fine_tune(initial, steps=2)
        assert state_distance(state, initial) > 0

    def test_training_loss_finite(self, client, num_channels):
        initial = make_factory(num_channels)().state_dict()
        assert np.isfinite(client.training_loss(initial))

    def test_evaluate_auc_in_unit_interval(self, client, num_channels):
        initial = make_factory(num_channels)().state_dict()
        auc = client.evaluate_auc(initial)
        assert 0.0 <= auc <= 1.0

    def test_rejects_empty_training_data(self, tiny_test_dataset, num_channels):
        from repro.data import RoutabilityDataset

        with pytest.raises(ValueError):
            FederatedClient(
                client_id=2,
                train_dataset=RoutabilityDataset(),
                test_dataset=tiny_test_dataset,
                model_factory=make_factory(num_channels),
                config=TINY_CONFIG,
            )

    def test_from_client_data(self, tiny_train_dataset, tiny_test_dataset, num_channels):
        from repro.data.clients import ClientData, ClientSpec

        data = ClientData(
            spec=ClientSpec(4, "iscas89", 2, 2, 10, 5),
            train=tiny_train_dataset,
            test=tiny_test_dataset,
        )
        client = FederatedClient.from_client_data(
            data, make_factory(num_channels), TINY_CONFIG
        )
        assert client.client_id == 4
