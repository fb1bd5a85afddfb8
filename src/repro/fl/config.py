"""Configuration of the decentralized training framework.

The defaults follow Section 5.1 of the paper: R=50 rounds, S=100 local update
steps per round, S'=5000 fine-tuning steps, Adam with learning rate 2e-4 and
L2 regularization 1e-5, FedProx proximal strength mu=1e-4, alpha=0.5 for
alpha-portion sync, C=4 clusters for IFCA, and the assigned clustering
{1,2,3}, {4,5,6}, {7,8}, {9}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.nn.dtypes import COMPUTE_DTYPE_CHOICES
from repro.utils.validation import check_choice, check_positive, check_probability

#: The paper's assigned clustering: three ITC'99 clients, three ISCAS'89
#: clients, two IWLS'05 clients, one ISPD'15 client.
PAPER_ASSIGNED_CLUSTERS: Dict[int, int] = {1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1, 7: 2, 8: 2, 9: 3}


@dataclass(frozen=True)
class FLConfig:
    """Hyper-parameters of decentralized training and personalization.

    Attributes
    ----------
    rounds:
        Number of communication rounds ``R``.
    local_steps:
        Number of model update steps ``S`` each client performs per round.
    finetune_steps:
        Number of local fine-tuning steps ``S'`` used by FedProx+Fine-tuning.
    learning_rate / optimizer / weight_decay:
        Local optimizer settings (Adam, 2e-4, L2 1e-5 in the paper).
    proximal_mu:
        FedProx proximal-term strength ``mu``.
    alpha:
        Weight of a client's own parameters in alpha-portion sync.
    num_clusters:
        Number of clusters ``C`` for IFCA.
    assigned_clusters:
        Fixed ``client_id -> cluster`` mapping used by assigned clustering.
    batch_size:
        Mini-batch size of every local update step.
    loss:
        Training loss (the paper's objective is a squared error, ``"mse"``).
    centralized_steps / local_steps_total:
        Total update steps granted to the centralized and local-only
        baselines; ``None`` means "same budget as federated training"
        (``rounds * local_steps``).
    ifca_eval_batches:
        Number of training batches a client uses to score each cluster model
        when choosing its cluster in IFCA.
    compute_dtype:
        Floating dtype local training arithmetic runs in: ``"float64"``
        (default, bit-identical to the historical engine) or ``"float32"``
        (the opt-in fast path — roughly half the memory bandwidth in the
        conv/GEMM hot loop).  Parameter states crossing the client boundary
        — aggregation, wire codecs, checkpoints — are float64 either way.
    seed:
        Seed for model initialization and batch shuffling.
    """

    rounds: int = 50
    local_steps: int = 100
    finetune_steps: int = 5000
    learning_rate: float = 2e-4
    optimizer: str = "adam"
    weight_decay: float = 1e-5
    proximal_mu: float = 1e-4
    alpha: float = 0.5
    num_clusters: int = 4
    assigned_clusters: Tuple[Tuple[int, int], ...] = tuple(sorted(PAPER_ASSIGNED_CLUSTERS.items()))
    batch_size: int = 8
    loss: str = "mse"
    centralized_steps: Optional[int] = None
    local_steps_total: Optional[int] = None
    ifca_eval_batches: int = 2
    compute_dtype: str = "float64"
    seed: int = 0

    def __post_init__(self):
        check_positive("rounds", self.rounds)
        check_positive("local_steps", self.local_steps)
        check_positive("finetune_steps", self.finetune_steps)
        check_positive("learning_rate", self.learning_rate)
        check_choice("optimizer", self.optimizer, ("adam", "sgd"))
        check_positive("weight_decay", self.weight_decay, allow_zero=True)
        check_positive("proximal_mu", self.proximal_mu, allow_zero=True)
        check_probability("alpha", self.alpha)
        check_positive("num_clusters", self.num_clusters)
        check_positive("batch_size", self.batch_size)
        check_choice("loss", self.loss, ("mse", "bce", "bce_logits"))
        check_choice("compute_dtype", self.compute_dtype, COMPUTE_DTYPE_CHOICES)
        check_positive("ifca_eval_batches", self.ifca_eval_batches)
        if self.centralized_steps is not None:
            check_positive("centralized_steps", self.centralized_steps)
        if self.local_steps_total is not None:
            check_positive("local_steps_total", self.local_steps_total)

    @property
    def total_federated_steps(self) -> int:
        """Total per-client update steps across all rounds."""
        return self.rounds * self.local_steps

    @property
    def effective_centralized_steps(self) -> int:
        return self.centralized_steps if self.centralized_steps is not None else self.total_federated_steps

    @property
    def effective_local_steps(self) -> int:
        return self.local_steps_total if self.local_steps_total is not None else self.total_federated_steps

    def assigned_cluster_map(self) -> Dict[int, int]:
        """The assigned-clustering mapping as a dictionary."""
        return dict(self.assigned_clusters)

