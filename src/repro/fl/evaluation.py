"""Evaluation of decentralized training results.

Produces the per-client ROC AUC rows of Tables 3-5: each client evaluates
the model it would actually deploy (its personalized model when the
algorithm produces one, otherwise the shared generalized model) on its own
held-out testing designs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np

from repro.fl.algorithms.base import TrainingResult
from repro.fl.client import FederatedClient


@dataclass
class EvaluationRow:
    """One row of a results table: per-client AUC plus the average."""

    algorithm: str
    per_client_auc: Dict[int, float] = field(default_factory=dict)

    @property
    def average_auc(self) -> float:
        if not self.per_client_auc:
            return float("nan")
        return float(np.mean(list(self.per_client_auc.values())))

    def as_dict(self) -> Dict[str, float]:
        row = {f"client{cid}": auc for cid, auc in sorted(self.per_client_auc.items())}
        row["average"] = self.average_auc
        return row


def evaluate_result(result: TrainingResult, clients: Sequence[FederatedClient]) -> EvaluationRow:
    """Evaluate a training result on every client's private test data."""
    row = EvaluationRow(algorithm=result.algorithm)
    for client in clients:
        state = result.state_for_client(client.client_id)
        row.per_client_auc[client.client_id] = client.evaluate_auc(state)
    return row
