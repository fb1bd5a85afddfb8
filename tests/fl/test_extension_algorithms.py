"""Tests for the extension algorithms: FedBN, FedAvgM, and DP-FedProx."""

import numpy as np
import pytest

from repro.fl import (
    ALGORITHMS,
    DPFedProx,
    FedAvgM,
    FedBN,
    FederatedClient,
    PrivacyConfig,
    SeededModelFactory,
    create_algorithm,
    evaluate_result,
)
from repro.fl.algorithms.fedbn import normalization_parameter_names
from repro.fl.parameters import state_distance
from repro.models import FLNet, RouteNet
from conftest import TINY_CONFIG, make_factory


@pytest.fixture(scope="module")
def flnet_factory(num_channels):
    return make_factory(num_channels)


@pytest.fixture(scope="module")
def routenet_factory(num_channels):
    return SeededModelFactory(lambda seed: RouteNet(num_channels, base_filters=4, seed=seed), base_seed=0)


@pytest.fixture(scope="module")
def two_clients_flnet(
    tiny_train_dataset, tiny_test_dataset, tiny_train_dataset_itc, tiny_test_dataset_itc, flnet_factory
):
    return [
        FederatedClient(1, tiny_train_dataset, tiny_test_dataset, flnet_factory, TINY_CONFIG),
        FederatedClient(2, tiny_train_dataset_itc, tiny_test_dataset_itc, flnet_factory, TINY_CONFIG),
    ]


@pytest.fixture(scope="module")
def two_clients_routenet(
    tiny_train_dataset, tiny_test_dataset, tiny_train_dataset_itc, tiny_test_dataset_itc, routenet_factory
):
    return [
        FederatedClient(1, tiny_train_dataset, tiny_test_dataset, routenet_factory, TINY_CONFIG),
        FederatedClient(2, tiny_train_dataset_itc, tiny_test_dataset_itc, routenet_factory, TINY_CONFIG),
    ]


class TestRegistry:
    def test_extensions_registered(self):
        assert ALGORITHMS["fedbn"] is FedBN
        assert ALGORITHMS["fedavgm"] is FedAvgM
        assert ALGORITHMS["dp_fedprox"] is DPFedProx

    def test_create_by_name(self, two_clients_flnet, flnet_factory):
        algorithm = create_algorithm("fedavgm", two_clients_flnet, flnet_factory, TINY_CONFIG)
        assert isinstance(algorithm, FedAvgM)


class TestNormalizationParameterNames:
    def test_flnet_has_none(self, num_channels):
        model = FLNet(num_channels, hidden_filters=8, kernel_size=5, seed=0)
        assert normalization_parameter_names(model) == set()

    def test_routenet_norm_keys_detected(self, num_channels):
        model = RouteNet(num_channels, base_filters=4, seed=0)
        names = normalization_parameter_names(model)
        assert names, "RouteNet contains BatchNorm layers"
        assert all(name in model.state_dict() for name in names)
        assert any(name.endswith("running_mean") for name in names)


class TestFedBN:
    def test_personalizes_every_client(self, two_clients_routenet, routenet_factory):
        result = FedBN(two_clients_routenet, routenet_factory, TINY_CONFIG).run()
        assert set(result.client_states) == {1, 2}
        assert result.global_state is not None

    def test_clients_share_non_norm_parameters(self, two_clients_routenet, routenet_factory):
        result = FedBN(two_clients_routenet, routenet_factory, TINY_CONFIG).run()
        norm_names = normalization_parameter_names(routenet_factory())
        state1 = result.client_states[1]
        state2 = result.client_states[2]
        for name in state1:
            if name in norm_names:
                continue
            np.testing.assert_allclose(state1[name], state2[name])

    def test_clients_keep_distinct_norm_statistics(self, two_clients_routenet, routenet_factory):
        result = FedBN(two_clients_routenet, routenet_factory, TINY_CONFIG).run()
        norm_names = normalization_parameter_names(routenet_factory())
        state1 = result.client_states[1]
        state2 = result.client_states[2]
        differences = [
            float(np.abs(state1[name] - state2[name]).max())
            for name in norm_names
            if name.endswith(("running_mean", "running_var"))
        ]
        assert max(differences) > 0.0

    def test_without_norm_layers_behaves_like_shared_model(self, two_clients_flnet, flnet_factory):
        result = FedBN(two_clients_flnet, flnet_factory, TINY_CONFIG).run()
        assert state_distance(result.client_states[1], result.client_states[2]) == pytest.approx(0.0)

    def test_history_reports_partition_sizes(self, two_clients_routenet, routenet_factory):
        result = FedBN(two_clients_routenet, routenet_factory, TINY_CONFIG).run()
        extra = result.history[0].extra
        assert extra["local_parameters"] > 0
        assert extra["global_parameters"] > 0

    def test_evaluates_cleanly(self, two_clients_flnet, flnet_factory):
        result = FedBN(two_clients_flnet, flnet_factory, TINY_CONFIG).run()
        row = evaluate_result(result, two_clients_flnet)
        for auc in row.per_client_auc.values():
            assert 0.0 <= auc <= 1.0


class TestFedAvgM:
    def test_runs_configured_rounds(self, two_clients_flnet, flnet_factory):
        result = FedAvgM(two_clients_flnet, flnet_factory, TINY_CONFIG).run()
        assert len(result.history) == TINY_CONFIG.rounds
        assert result.global_state is not None

    def test_momentum_changes_trajectory(self, two_clients_flnet, flnet_factory):
        plain = create_algorithm("fedprox", two_clients_flnet, flnet_factory, TINY_CONFIG)
        flnet_factory.reset()
        plain_result = plain.run()
        flnet_factory.reset()
        momentum = FedAvgM(two_clients_flnet, flnet_factory, TINY_CONFIG)
        momentum_result = momentum.run()
        assert state_distance(plain_result.global_state, momentum_result.global_state) > 0.0

    def test_invalid_momentum_rejected(self, two_clients_flnet, flnet_factory):
        algorithm = FedAvgM(two_clients_flnet, flnet_factory, TINY_CONFIG)
        algorithm.server_momentum = 1.0
        with pytest.raises(ValueError):
            algorithm.run()


class TestDPFedProx:
    def test_runs_and_accounts_privacy(self, two_clients_flnet, flnet_factory):
        algorithm = DPFedProx(
            two_clients_flnet,
            flnet_factory,
            TINY_CONFIG,
            privacy=PrivacyConfig(clip_norm=0.5, noise_multiplier=0.5),
        )
        result = algorithm.run()
        assert result.global_state is not None
        assert algorithm.accountant.steps == TINY_CONFIG.rounds
        assert 0.0 < algorithm.accountant.epsilon() < float("inf")

    def test_history_carries_epsilon(self, two_clients_flnet, flnet_factory):
        algorithm = DPFedProx(
            two_clients_flnet,
            flnet_factory,
            TINY_CONFIG,
            privacy=PrivacyConfig(clip_norm=0.5, noise_multiplier=1.0),
        )
        result = algorithm.run()
        epsilons = [record.extra["epsilon"] for record in result.history]
        assert epsilons == sorted(epsilons)
        assert epsilons[-1] > epsilons[0]

    def test_noise_changes_model_relative_to_fedprox(self, two_clients_flnet, flnet_factory):
        flnet_factory.reset()
        plain = create_algorithm("fedprox", two_clients_flnet, flnet_factory, TINY_CONFIG).run()
        flnet_factory.reset()
        noisy = DPFedProx(
            two_clients_flnet,
            flnet_factory,
            TINY_CONFIG,
            privacy=PrivacyConfig(clip_norm=0.1, noise_multiplier=1.0),
        ).run()
        assert state_distance(plain.global_state, noisy.global_state) > 0.0

    def test_default_privacy_config_used_from_registry(self, two_clients_flnet, flnet_factory):
        algorithm = create_algorithm("dp_fedprox", two_clients_flnet, flnet_factory, TINY_CONFIG)
        assert isinstance(algorithm, DPFedProx)
        assert algorithm.privacy.enabled

    def test_clipping_logged(self, two_clients_flnet, flnet_factory):
        algorithm = DPFedProx(
            two_clients_flnet,
            flnet_factory,
            TINY_CONFIG,
            privacy=PrivacyConfig(clip_norm=1e-4, noise_multiplier=0.0),
        )
        algorithm.run()
        assert len(algorithm.update_log.raw_norms) == TINY_CONFIG.rounds * len(two_clients_flnet)
        assert algorithm.update_log.clipped_fraction == 1.0
