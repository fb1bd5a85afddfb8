"""repro: reproduction of "Towards Collaborative Intelligence: Routability
Estimation based on Decentralized Private Data" (Pan et al., DAC 2022).

The package is organized as a set of substrates plus the paper's core
contribution:

``repro.nn``
    A from-scratch NumPy deep-learning library (convolutions, batch
    normalization, transposed convolutions, pixel shuffle, optimizers,
    losses) used in place of PyTorch.
``repro.eda``
    A synthetic physical-design flow (netlist generation, placement,
    global-routing congestion, DRC hotspot labeling) used in place of the
    commercial Design Compiler / Innovus flow of the paper.
``repro.features``
    Routability feature extraction (cell density, pin density, RUDY,
    fly lines, macro maps).
``repro.data``
    Dataset construction and the paper's 9-client decentralized split.
``repro.models``
    The three routability estimators: FLNet, RouteNet, and PROS.
``repro.fl``
    The decentralized-training framework: local / centralized baselines,
    FedAvg, FedProx, and personalization (FedProx-LG, IFCA, fine-tuning,
    assigned clustering, alpha-portion sync).
``repro.metrics``
    ROC AUC, the metric of Tables 3-5.
``repro.experiments``
    Configurations and runners that regenerate the paper's tables.
``repro.cli``
    The ``repro`` console script (list-models, generate-data, route,
    reproduce, communication).
"""

from repro import data, eda, experiments, features, fl, metrics, models, nn, utils

__version__ = "1.0.0"

__all__ = [
    "nn",
    "eda",
    "features",
    "data",
    "models",
    "fl",
    "metrics",
    "experiments",
    "utils",
]
