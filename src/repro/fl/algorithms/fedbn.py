"""FedBN: federated training that keeps normalization layers local.

Section 4.2 of the paper identifies Batch Normalization's aggregated running
statistics as one reason deep routability estimators degrade under
decentralized training.  FedBN (Li et al., 2021) is the standard remedy from
the FL literature: every parameter *except* those belonging to normalization
layers is aggregated as in FedProx, while each client keeps its own
normalization parameters and running statistics.  It therefore doubles as a
personalization technique (each client ends up with its own model) and as an
ablation of the paper's "BN is the problem" argument — FLNet, which has no
normalization layers, is unaffected by it.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.fl.algorithms.base import FederatedAlgorithm, TrainingResult
from repro.fl.parameters import State, clone_state
from repro.models.base import RoutabilityModel
from repro.nn.layers.norm import BatchNorm2d, GroupNorm


def normalization_parameter_names(model: RoutabilityModel) -> Set[str]:
    """State-dict keys owned by normalization layers (params and buffers)."""
    prefixes = [
        name
        for name, module in model.named_modules()
        if isinstance(module, (BatchNorm2d, GroupNorm))
    ]
    names: Set[str] = set()
    for key in model.state_dict():
        for prefix in prefixes:
            if key == prefix or key.startswith(prefix + "."):
                names.add(key)
                break
    return names


class FedBN(FederatedAlgorithm):
    """FedProx-style training with normalization layers excluded from aggregation."""

    name = "fedbn"

    def run(self) -> TrainingResult:
        result = TrainingResult(algorithm=self.name)
        template_model = self.model_factory()
        local_names = normalization_parameter_names(template_model)
        global_names = [name for name in template_model.state_dict() if name not in local_names]
        weights = self.client_weights()
        mu = self.config.proximal_mu

        global_state = self.initial_state()
        # Every client starts from the same initialization, including its
        # private normalization parameters.
        client_states: Dict[int, State] = {
            client.client_id: clone_state(global_state) for client in self.clients
        }

        for round_index in range(self.config.rounds):
            # Each client trains the aggregated global part merged with its
            # own private normalization part.
            start_states = [
                self.server.partition_merge(
                    global_state, client_states[client.client_id], local_names
                )
                if local_names
                else clone_state(global_state)
                for client in self.clients
            ]
            # Only the globally shared part is uploaded (and billed); each
            # client's private normalization parameters never cross the wire.
            updates = self.map_client_updates(
                start_states,
                steps=self.config.local_steps,
                proximal_mu=mu,
                transport="both" if global_names else "down",
                upload_names=global_names if local_names and global_names else None,
            )
            returned: List[State] = []
            per_client_loss: Dict[int, float] = {}
            for update in updates:
                client_states[update.client_id] = update.state
                returned.append(update.state)
                per_client_loss[update.client_id] = update.stats.mean_loss
            if global_names:
                aggregated = self.server.aggregate_partition(returned, weights, global_names)
                global_state = self.server.merge_global_local(aggregated, global_state)
            result.history.append(
                self._round_record(
                    round_index,
                    per_client_loss,
                    extra={"local_parameters": len(local_names), "global_parameters": len(global_names)},
                )
            )

        result.global_state = global_state
        result.client_states = {
            client_id: self.server.partition_merge(global_state, state, local_names)
            if local_names
            else clone_state(global_state)
            for client_id, state in client_states.items()
        }
        return result
