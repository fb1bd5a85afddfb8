"""Communication cost accounting.

Decentralized training replaces data movement with parameter movement, so the
practical cost of every algorithm in this package is measured in bytes per
round.  This module provides:

* sizing helpers for model states (parameter counts, real in-memory bytes,
  and bytes at an explicitly chosen wire precision);
* an analytic per-algorithm communication model (uplink/downlink per round
  and per training run) for every algorithm in the registry, which the
  communication benchmark turns into a table.

Measured transfers are the transport channel's own byte totals
(:meth:`repro.fl.transport.Channel.summary`).

Update compression itself lives in the wire codecs
(:mod:`repro.fl.transport.codecs`).

Sizing conventions
------------------
:func:`state_bytes` with no precision argument sizes a state from each
array's real ``itemsize`` (the pipeline stores float64, so a state costs 8
bytes per value in memory and on an uncompressed wire).  The *analytic*
estimator keeps the paper's float32 wire assumption by passing
``BYTES_PER_FLOAT32`` explicitly, so its numbers stay comparable with the
paper's; measured numbers come from real payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.fl.parameters import State

#: Bytes per parameter at single precision (the paper's wire assumption).
BYTES_PER_FLOAT32 = 4


def state_num_parameters(state: State) -> int:
    """Total number of scalar entries in a model state."""
    return int(sum(int(np.asarray(values).size) for values in state.values()))


def state_bytes(state: State, bytes_per_value: Optional[int] = None) -> int:
    """Size of a model state in bytes.

    With ``bytes_per_value=None`` (the default) each array is sized from its
    real ``itemsize`` — a float64 state costs 8 bytes per value, not an
    assumed 4.  Pass an explicit precision (e.g. ``BYTES_PER_FLOAT32``) to
    cost a hypothetical wire format instead.
    """
    if bytes_per_value is None:
        return int(
            sum(int(array.size) * int(array.itemsize) for array in map(np.asarray, state.values()))
        )
    if bytes_per_value <= 0:
        raise ValueError("bytes_per_value must be positive")
    return state_num_parameters(state) * bytes_per_value


@dataclass(frozen=True)
class CommunicationReport:
    """Analytic communication cost of one algorithm for one training run."""

    algorithm: str
    rounds: int
    num_clients: int
    uplink_bytes_per_round: int
    downlink_bytes_per_round: int

    @property
    def total_uplink_bytes(self) -> int:
        return self.uplink_bytes_per_round * self.rounds

    @property
    def total_downlink_bytes(self) -> int:
        return self.downlink_bytes_per_round * self.rounds

    @property
    def total_bytes(self) -> int:
        return self.total_uplink_bytes + self.total_downlink_bytes

    def to_dict(self) -> Dict[str, float]:
        return {
            "algorithm": self.algorithm,
            "rounds": self.rounds,
            "num_clients": self.num_clients,
            "uplink_bytes_per_round": self.uplink_bytes_per_round,
            "downlink_bytes_per_round": self.downlink_bytes_per_round,
            "total_bytes": self.total_bytes,
        }


def estimate_communication(
    algorithm: str,
    state: State,
    num_clients: int,
    rounds: int,
    global_fraction: float = 1.0,
    num_clusters: int = 1,
) -> CommunicationReport:
    """Analytic uplink/downlink model of one algorithm.

    The analytic model costs parameters at the paper's float32 wire
    assumption (``BYTES_PER_FLOAT32``); measured numbers come from the
    transport channel instead.

    Parameters
    ----------
    algorithm:
        One of the registry names (``fedavg``, ``fedprox``, ``fedprox_lg``,
        ``ifca``, ``fedprox_finetune``, ``assigned_clustering``,
        ``fedprox_alpha``, ``fedbn``, ``fedavgm``, ``dp_fedprox``, ``local``,
        ``centralized``).
    state:
        A representative model state (for its size).
    global_fraction:
        Fraction of the state that is globally shared (FedProx-LG / FedBN
        ship only this part).
    num_clusters:
        IFCA downlink ships every cluster model to every client.
    """
    if num_clients <= 0 or rounds < 0:
        raise ValueError("num_clients must be positive and rounds non-negative")
    if not 0.0 < global_fraction <= 1.0:
        raise ValueError("global_fraction must be in (0, 1]")
    if num_clusters <= 0:
        raise ValueError("num_clusters must be positive")
    size = state_bytes(state, BYTES_PER_FLOAT32)
    shared = int(round(size * global_fraction))
    key = algorithm.lower()

    if key in ("local", "centralized"):
        # Local training never communicates; centralized training ships the
        # data once, not parameters — neither has a per-round parameter cost.
        uplink = downlink = 0
    elif key in ("fedavg", "fedprox", "fedprox_finetune", "fedprox_alpha", "fedavgm", "dp_fedprox"):
        uplink = size * num_clients
        downlink = size * num_clients
    elif key in ("fedprox_lg", "fedbn"):
        uplink = shared * num_clients
        downlink = shared * num_clients
    elif key == "ifca":
        # Every client uploads one model but must receive all cluster models
        # to choose among them.
        uplink = size * num_clients
        downlink = size * num_clusters * num_clients
    elif key == "assigned_clustering":
        uplink = size * num_clients
        downlink = size * num_clients
    else:
        raise ValueError(f"unknown algorithm {algorithm!r} for communication estimation")

    return CommunicationReport(
        algorithm=key,
        rounds=rounds,
        num_clients=num_clients,
        uplink_bytes_per_round=int(uplink),
        downlink_bytes_per_round=int(downlink),
    )
