"""FedProx + local fine-tuning personalization.

The simplest and — per the paper's Table 3 — most effective personalization:
after decentralized training converges, each client continues training the
received generalized model on its own private data for ``S'`` extra steps
(no proximal term), adapting it to its local distribution.
"""

from __future__ import annotations

from typing import Dict

from repro.fl.algorithms.base import TrainingResult
from repro.fl.algorithms.fedprox import FedProx


class FedProxFineTuning(FedProx):
    """FedProx followed by per-client local fine-tuning."""

    name = "fedprox_finetune"

    def run(self) -> TrainingResult:
        federated = super().run()
        result = TrainingResult(algorithm=self.name, history=list(federated.history))
        result.global_state = federated.global_state

        # Fine-tuning downloads the converged global model once more, but the
        # personalized result is deployed on the client and never uploaded.
        updates = self.map_client_updates(
            federated.global_state, steps=self.config.finetune_steps, op="finetune", transport="down"
        )
        per_client_loss: Dict[int, float] = {}
        for update in updates:
            result.client_states[update.client_id] = update.state
            per_client_loss[update.client_id] = update.stats.mean_loss
            self._release_client(update.client_index)
        result.history.append(
            self._round_record(self.config.rounds, per_client_loss, extra={"stage": "fine_tuning"})
        )
        return result
