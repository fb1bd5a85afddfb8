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

from typing import Set

from repro.fl.algorithms.partitioned import PartitionedAlgorithm
from repro.fl.parameters import State
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
    for key in model.flat.layout.names:
        for prefix in prefixes:
            if key == prefix or key.startswith(prefix + "."):
                names.add(key)
                break
    return names


class FedBN(PartitionedAlgorithm):
    """FedProx-style training with normalization layers excluded from aggregation."""

    name = "fedbn"

    def private_names(self, model: RoutabilityModel) -> Set[str]:
        return normalization_parameter_names(model)

    def initial_state(self) -> State:
        # The template only names the private part: FedBN initializes from
        # the factory's next model.
        super().initial_state()
        return self.model_factory().state_dict()
