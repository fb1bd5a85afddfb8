"""FedProx-LG personalization (local/global parameter partitioning).

Following Liang et al. (2020), the model is partitioned into a global part
``g`` (shared and aggregated by the developer) and a local part ``l`` (kept
private on each client and never communicated).  The paper assigns the output
layer of each estimator to the local part and everything else to the global
part.
"""

from __future__ import annotations

from typing import Dict, List

from repro.fl.algorithms.base import FederatedAlgorithm, TrainingResult
from repro.fl.parameters import State, clone_state, filter_state, flat_model_state


class FedProxLG(FederatedAlgorithm):
    """FedProx with the output layer kept local to each client (Figure 2a)."""

    name = "fedprox_lg"

    def run(self) -> TrainingResult:
        result = TrainingResult(algorithm=self.name)
        template_model = self.model_factory()
        local_names = template_model.local_parameter_names()
        global_names = template_model.global_parameter_names()
        # Buffers (e.g. BatchNorm running statistics) travel with the global part.
        buffer_names = [
            name for name in template_model.state_dict() if name not in local_names and name not in global_names
        ]
        shared_names = list(global_names) + buffer_names

        initial = flat_model_state(template_model)
        global_part = filter_state(initial, shared_names)
        client_full_states: Dict[int, State] = {
            client.client_id: clone_state(initial) for client in self.clients
        }
        weights = self.client_weights()
        mu = self.config.proximal_mu

        for round_index in range(self.config.rounds):
            # Each client receives only the aggregated global part, overlaid
            # onto its privately kept full state.
            start_states = [
                self.server.merge_global_local(global_part, client_full_states[client.client_id])
                for client in self.clients
            ]
            # Only the shared (global + buffer) part is uploaded and billed;
            # the local part never leaves the client.
            updates = self.map_client_updates(
                start_states,
                steps=self.config.local_steps,
                proximal_mu=mu,
                transport="both" if shared_names else "down",
                upload_names=shared_names if local_names and shared_names else None,
            )
            returned_states: List[State] = []
            per_client_loss: Dict[int, float] = {}
            for update in updates:
                client_full_states[update.client_id] = update.state
                returned_states.append(update.state)
                per_client_loss[update.client_id] = update.stats.mean_loss
            global_part = self.server.aggregate_partition(returned_states, weights, shared_names)
            result.history.append(self._round_record(round_index, per_client_loss))

        for client in self.clients:
            result.client_states[client.client_id] = self.server.merge_global_local(
                global_part, client_full_states[client.client_id]
            )
        return result
