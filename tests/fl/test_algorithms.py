"""Tests for every decentralized training algorithm and the evaluation layer.

These use a 2-client setup with two different benchmark suites (ISCAS'89 and
ITC'99 style data) and a deliberately tiny FLNet so every algorithm runs in a
few seconds while still exercising its full code path.
"""

import numpy as np
import pytest

from repro.fl import (
    FLConfig,
    ALGORITHMS,
    AlphaPortionSync,
    AssignedClustering,
    Centralized,
    FedAvg,
    FedProx,
    FedProxFineTuning,
    FedProxLG,
    FederatedClient,
    IFCA,
    LocalOnly,
    SeededModelFactory,
    create_algorithm,
    evaluate_result,
)
from repro.fl.parameters import state_distance
from repro.models import FLNet
from conftest import TINY_CONFIG, make_factory


@pytest.fixture(scope="module")
def model_factory_builder():
    def build(num_channels):
        return make_factory(num_channels)

    return build


@pytest.fixture(scope="module")
def two_clients(
    tiny_train_dataset,
    tiny_test_dataset,
    tiny_train_dataset_itc,
    tiny_test_dataset_itc,
    num_channels,
    model_factory_builder,
):
    factory = model_factory_builder(num_channels)
    client1 = FederatedClient(1, tiny_train_dataset, tiny_test_dataset, factory, TINY_CONFIG)
    client2 = FederatedClient(2, tiny_train_dataset_itc, tiny_test_dataset_itc, factory, TINY_CONFIG)
    return [client1, client2]


@pytest.fixture(scope="module")
def factory(num_channels, model_factory_builder):
    return model_factory_builder(num_channels)


class TestRegistry:
    def test_all_paper_algorithms_registered(self):
        expected = {
            "local",
            "centralized",
            "fedavg",
            "fedprox",
            "fedprox_lg",
            "ifca",
            "fedprox_finetune",
            "assigned_clustering",
            "fedprox_alpha",
        }
        assert expected.issubset(set(ALGORITHMS))

    def test_create_algorithm_by_name(self, two_clients, factory):
        algorithm = create_algorithm("fedprox", two_clients, factory, TINY_CONFIG)
        assert isinstance(algorithm, FedProx)

    def test_unknown_algorithm_rejected(self, two_clients, factory):
        with pytest.raises(ValueError):
            create_algorithm("fedsgd", two_clients, factory, TINY_CONFIG)

    def test_requires_clients(self, factory):
        with pytest.raises(ValueError):
            FedProx([], factory, TINY_CONFIG)


class TestBaselines:
    def test_local_only_produces_one_model_per_client(self, two_clients, factory):
        result = LocalOnly(two_clients, factory, TINY_CONFIG).run()
        assert set(result.client_states) == {1, 2}
        assert result.global_state is None
        # The two clients see different data, so their models must differ.
        assert state_distance(result.client_states[1], result.client_states[2]) > 0

    def test_centralized_produces_single_global_model(self, two_clients, factory):
        result = Centralized(two_clients, factory, TINY_CONFIG).run()
        assert result.global_state is not None
        assert not result.client_states
        assert result.history[0].extra["pooled_samples"] == sum(c.num_samples for c in two_clients)


class TestFedProx:
    def test_runs_configured_rounds(self, two_clients, factory):
        result = FedProx(two_clients, factory, TINY_CONFIG).run()
        assert len(result.history) == TINY_CONFIG.rounds
        assert result.global_state is not None

    def test_history_records_per_client_losses(self, two_clients, factory):
        result = FedProx(two_clients, factory, TINY_CONFIG).run()
        for record in result.history:
            assert set(record.per_client_loss) == {1, 2}
            assert np.isfinite(record.mean_loss)
            assert "client_drift" in record.extra

    def test_fedavg_uses_zero_mu(self, two_clients, factory):
        algorithm = FedAvg(two_clients, factory, TINY_CONFIG)
        assert algorithm.proximal_mu() == 0.0

    def test_global_state_differs_from_init(self, two_clients, factory):
        algorithm = FedProx(two_clients, factory, TINY_CONFIG)
        initial = algorithm.initial_state()
        result = algorithm.run()
        assert state_distance(result.global_state, initial) > 0


class TestPersonalization:
    def test_fine_tuning_personalizes_every_client(self, two_clients, factory):
        result = FedProxFineTuning(two_clients, factory, TINY_CONFIG).run()
        assert set(result.client_states) == {1, 2}
        assert result.global_state is not None
        for client_id, state in result.client_states.items():
            assert state_distance(state, result.global_state) > 0
        # Fine-tuning appends one extra history record after the rounds.
        assert len(result.history) == TINY_CONFIG.rounds + 1

    def test_fedprox_lg_keeps_output_layer_local(self, two_clients, factory):
        result = FedProxLG(two_clients, factory, TINY_CONFIG).run()
        assert set(result.client_states) == {1, 2}
        reference = factory()
        local_names = reference.local_parameter_names()
        global_names = [name for name, _ in reference.named_parameters() if name not in local_names]
        state1, state2 = result.client_states[1], result.client_states[2]
        # Global part identical across clients, local part different.
        for name in global_names:
            np.testing.assert_allclose(state1[name], state2[name])
        assert any(not np.allclose(state1[name], state2[name]) for name in local_names)

    def test_ifca_assigns_clusters_and_personalizes(self, two_clients, factory):
        result = IFCA(two_clients, factory, TINY_CONFIG).run()
        assert set(result.client_states) == {1, 2}
        assignment = result.history[-1].extra["assignment"]
        assert set(assignment) == {1, 2}
        assert all(0 <= c < TINY_CONFIG.num_clusters for c in assignment.values())

    def test_assigned_clustering_respects_mapping(self, two_clients, factory):
        algorithm = AssignedClustering(two_clients, factory, TINY_CONFIG)
        result = algorithm.run()
        assignment = result.history[-1].extra["assignment"]
        assert assignment == {1: 0, 2: 1}

    def test_assigned_clustering_rejects_out_of_range_cluster(self, two_clients, factory):
        bad_config = FLConfig(
            rounds=1,
            local_steps=1,
            num_clusters=2,
            assigned_clusters=((1, 5), (2, 1)),
            batch_size=2,
        )
        algorithm = AssignedClustering(two_clients, factory, bad_config)
        with pytest.raises(ValueError):
            algorithm.run()

    def test_alpha_portion_sync_personalizes(self, two_clients, factory):
        result = AlphaPortionSync(two_clients, factory, TINY_CONFIG).run()
        assert set(result.client_states) == {1, 2}
        assert state_distance(result.client_states[1], result.client_states[2]) > 0


class TestEvaluation:
    def test_evaluate_result_produces_unit_interval_aucs(self, two_clients, factory):
        result = FedProx(two_clients, factory, TINY_CONFIG).run()
        row = evaluate_result(result, two_clients)
        assert set(row.per_client_auc) == {1, 2}
        assert all(0.0 <= auc <= 1.0 for auc in row.per_client_auc.values())
        assert 0.0 <= row.average_auc <= 1.0

    def test_personalized_result_uses_client_states(self, two_clients, factory):
        result = LocalOnly(two_clients, factory, TINY_CONFIG).run()
        assert result.state_for_client(1) is result.client_states[1]

    def test_state_for_client_without_any_state_raises(self):
        from repro.fl.algorithms.base import TrainingResult

        with pytest.raises(KeyError):
            TrainingResult(algorithm="empty").state_for_client(1)


class TestSeededModelFactory:
    def test_distinct_then_reset(self, num_channels):
        factory = SeededModelFactory(lambda seed: FLNet(num_channels, hidden_filters=4, kernel_size=3, seed=seed), base_seed=0)
        first = factory().state_dict()
        second = factory().state_dict()
        assert state_distance(first, second) > 0
        factory.reset()
        again = factory().state_dict()
        assert state_distance(first, again) == 0.0
