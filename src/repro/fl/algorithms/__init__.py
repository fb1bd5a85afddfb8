"""Decentralized training algorithms and baselines.

Each algorithm reproduces one row (or extension) of the paper's result
tables:

* :class:`LocalOnly` / :class:`Centralized` — the "Local Average" and
  "Training Centrally on All Data" reference rows of Tables 3-5.
* :class:`FedAvg` / :class:`FedProx` — the Figure 1 decentralized loop;
  FedProx adds the Equation 1 proximal term, FedAvg is the ``mu = 0`` case.
* :class:`FedAvgM` — server-side momentum extension (Hsu et al., 2019).
* :class:`FedBN` — keeps normalization layers local (Li et al., 2021), an
  ablation of the paper's Section 4.2 argument that aggregated BN statistics
  hurt decentralized routability estimation.
* :class:`DPFedProx` — FedProx with client-level differential privacy (the
  privacy engineering the paper's footnote defers to).

The personalization techniques of Figure 2 live in
:mod:`repro.fl.personalization`.  Every algorithm subclasses
:class:`FederatedAlgorithm`, which expresses a round as *map client tasks
via an execution backend, then aggregate* — see :mod:`repro.fl.execution`;
the five whose cross-round state is one global model (FedAvg, FedProx,
FedAvgM, DP-FedProx, FedProx + fine-tuning) subclass
:class:`GlobalModelAlgorithm`, which owns their one round loop.
"""

from repro.fl.algorithms.base import (
    FederatedAlgorithm,
    GlobalModelAlgorithm,
    ModelFactory,
    RoundRecord,
    SeededModelFactory,
    TrainingResult,
)
from repro.fl.algorithms.baselines import Centralized, LocalOnly
from repro.fl.algorithms.dp import DPFedProx
from repro.fl.algorithms.fedavgm import FedAvgM
from repro.fl.algorithms.fedbn import FedBN, normalization_parameter_names
from repro.fl.algorithms.fedprox import FedAvg, FedProx

__all__ = [
    "FederatedAlgorithm",
    "GlobalModelAlgorithm",
    "TrainingResult",
    "RoundRecord",
    "ModelFactory",
    "SeededModelFactory",
    "LocalOnly",
    "Centralized",
    "FedAvg",
    "FedProx",
    "FedAvgM",
    "FedBN",
    "normalization_parameter_names",
    "DPFedProx",
]
