"""FedProx-LG personalization (local/global parameter partitioning).

Following Liang et al. (2020), the model is partitioned into a global part
``g`` (shared and aggregated by the developer) and a local part ``l`` (kept
private on each client and never communicated).  The paper assigns the output
layer of each estimator to the local part and everything else to the global
part.
"""

from __future__ import annotations

from typing import List

from repro.fl.algorithms.base import TrainingResult
from repro.fl.algorithms.partitioned import PartitionedAlgorithm
from repro.fl.parameters import State
from repro.models.base import RoutabilityModel


class FedProxLG(PartitionedAlgorithm):
    """FedProx with the output layer kept local to each client (Figure 2a)."""

    name = "fedprox_lg"

    def private_names(self, model: RoutabilityModel) -> List[str]:
        return model.local_parameter_names()

    def _finish(self, result: TrainingResult, global_state: State) -> None:
        super()._finish(result, global_state)
        # Only the personalized models are reported: the global state's
        # output layer is the untrained initialization.
        result.global_state = None
