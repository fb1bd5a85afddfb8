"""Non-federated baselines: per-client local training and centralized training.

These correspond to the first two rows of Tables 3-5: "Local Average (b1 to
b9)" — every client trains and deploys its own model on its own data — and
"Training Centrally on All Data" — the privacy-free empirical upper bound
where all clients' data is pooled on one machine.
"""

from __future__ import annotations

from typing import Dict

from repro.data.dataset import RoutabilityDataset
from repro.fl.algorithms.base import FederatedAlgorithm, TrainingResult
from repro.fl.trainer import LocalTrainer


class LocalOnly(FederatedAlgorithm):
    """Each client trains its own model ``b_k`` on its own data only."""

    name = "local"

    def run(self) -> TrainingResult:
        result = TrainingResult(algorithm=self.name)
        steps = self.config.effective_local_steps
        # One distinct initialization per client, drawn in client order so the
        # factory's seed sequence is independent of the execution backend.
        # The initial states are created locally on each client, so nothing
        # crosses the wire (transport="none" keeps measured bytes at zero).
        initials = [self.model_factory().state_dict() for _ in self.clients]
        updates = self.map_client_updates(initials, steps=steps, proximal_mu=0.0, transport="none")
        per_client_loss: Dict[int, float] = {}
        for update in updates:
            result.client_states[update.client_id] = update.state
            per_client_loss[update.client_id] = update.stats.mean_loss
        result.history.append(self._round_record(0, per_client_loss))
        return result


class Centralized(FederatedAlgorithm):
    """Pools every client's training data and trains one model centrally.

    This explicitly violates the privacy constraint; the paper uses it as the
    empirical upper limit that decentralized training should approach.
    """

    name = "centralized"

    def run(self) -> TrainingResult:
        result = TrainingResult(algorithm=self.name)
        pooled = RoutabilityDataset(name="centralized/train")
        for client in self.clients:
            pooled.extend(client.train_dataset)

        config = self.config
        trainer = LocalTrainer(
            loss=config.loss,
            optimizer=config.optimizer,
            learning_rate=config.learning_rate,
            weight_decay=config.weight_decay,
            batch_size=config.batch_size,
            compute_dtype=config.compute_dtype,
        )
        model = self.model_factory()
        stats = trainer.train_steps(model, pooled, steps=config.effective_centralized_steps)
        result.global_state = model.state_dict()
        result.history.append(
            self._round_record(0, {0: stats.mean_loss}, extra={"pooled_samples": len(pooled)})
        )
        return result
