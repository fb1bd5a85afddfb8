"""Cluster-based personalization: IFCA and assigned clustering.

IFCA (Ghosh et al., 2020) maintains ``C`` cluster models; every round each
client picks the cluster whose model currently fits its training data best,
trains that model, and the developer aggregates per cluster (Figure 2b).

Assigned clustering replaces the iterative cluster choice with a fixed
mapping derived from prior knowledge about client similarity — the paper
groups clients by benchmark suite: {1,2,3}, {4,5,6}, {7,8}, {9} (Figure 2c).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fl.algorithms.base import RoundAlgorithm, TrainingResult
from repro.fl.client import FederatedClient
from repro.fl.execution import ClientUpdate, RoundCheckpoint
from repro.fl.parameters import State


class IFCA(RoundAlgorithm):
    """Iterative Federated Clustering Algorithm on top of FedProx local training.

    The server keeps the ``C`` cluster models and each client's cluster of
    its last kept update; the loop's state is the unweighted average of the
    cluster models (a diagnostic global model).  Each round folds every
    kept update into its cluster's accumulator; a cluster no kept update
    chose keeps its model.
    """

    name = "ifca"
    server_rule_config = ("num_clusters", "ifca_eval_batches")

    def choose_cluster(self, client: FederatedClient, cluster_states: List[State]) -> int:
        """Pick the cluster whose model has the lowest loss on the client's data."""
        losses = {
            cluster_id: client.training_loss(state, max_batches=self.config.ifca_eval_batches)
            for cluster_id, state in enumerate(cluster_states)
        }
        return min(losses, key=losses.get)

    def initial_state(self) -> State:
        self._clusters = [
            self.model_factory().state_dict() for _ in range(self.config.num_clusters)
        ]
        return self._average()

    def _average(self) -> State:
        """The unweighted average of the cluster models (a diagnostic global model)."""
        return self.server.aggregate(self._clusters, np.ones(len(self._clusters)))

    def _begin_run(self, global_state: State, resumed: Optional[RoundCheckpoint]) -> None:
        self._assignment: Dict[int, int] = {}
        if resumed is not None:
            self._clusters = [
                resumed.extra_states[f"cluster_{cluster}"] for cluster in range(len(self._clusters))
            ]
            self._assignment = {
                int(client_id): int(cluster)
                for client_id, cluster in resumed.extra_meta["assignment"].items()
            }

    def _checkpoint_extras(self) -> Tuple[Dict[str, State], Dict[str, object]]:
        states = {f"cluster_{cluster}": state for cluster, state in enumerate(self._clusters)}
        assignment = {str(client_id): cluster for client_id, cluster in self._assignment.items()}
        return states, {"assignment": assignment}

    def _start_states(self, global_state: State, cohort: Sequence[int]) -> List[State]:
        # The cluster choice stays in the coordinating process, in cohort
        # order (it is a cheap loss probe); each client spends its own RNG
        # stream on the probe and then on training, so the per-client draw
        # order is identical under any execution backend.
        self._chosen = {
            index: self.choose_cluster(self.clients[index], self._clusters) for index in cohort
        }
        return [self._clusters[self._chosen[index]] for index in cohort]

    def _new_accumulators(self):
        return [self.server.accumulator() for _ in self._clusters]

    def _fold_update(self, accumulators, global_state: State, update: ClientUpdate) -> None:
        cluster = self._chosen[update.client_index]
        accumulators[cluster].fold(update.state, self._weight(update))
        self._assignment[update.client_id] = cluster

    def _server_step(self, global_state: State, accumulators) -> Tuple[State, Dict[str, object]]:
        self._clusters = [
            accumulator.result() if accumulator.count else state
            for accumulator, state in zip(accumulators, self._clusters)
        ]
        return self._average(), {"assignment": dict(self._assignment)}

    def _finish(self, result: TrainingResult, global_state: State) -> None:
        result.global_state = global_state
        for client in self.clients:
            cluster = self._assignment.get(client.client_id, 0)
            result.client_states[client.client_id] = self._clusters[cluster]


class AssignedClustering(IFCA):
    """IFCA with a fixed, pre-assigned cluster per client (Figure 2c)."""

    name = "assigned_clustering"
    server_rule_config = ("num_clusters", "assigned_clusters")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._fixed = self.config.assigned_cluster_map()

    def choose_cluster(self, client: FederatedClient, cluster_states: List[State]) -> int:
        if client.client_id in self._fixed:
            cluster_id = self._fixed[client.client_id]
        else:
            # Unknown clients fall back to a deterministic spread over clusters.
            cluster_id = client.client_id % self.config.num_clusters
        if cluster_id >= self.config.num_clusters:
            raise ValueError(
                f"assigned cluster {cluster_id} for client {client.client_id} exceeds "
                f"num_clusters={self.config.num_clusters}"
            )
        return cluster_id
