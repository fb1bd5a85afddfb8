"""Differentially private FedProx.

Wraps the FedProx round with the client-level DP mechanism of
:mod:`repro.fl.privacy`: every client's per-round model update is clipped to
a maximum L2 norm and perturbed with Gaussian noise *before* it is sent to
the developer, and a zCDP accountant tracks the cumulative (epsilon, delta)
guarantee across rounds.  This is the "privacy engineering" the paper's
footnote defers to, made concrete so its accuracy cost can be measured (see
the DP ablation benchmark).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.fl.algorithms.base import RoundAlgorithm, ModelFactory
from repro.fl.client import FederatedClient
from repro.fl.config import FLConfig
from repro.fl.execution import ClientUpdate, RoundCheckpoint
from repro.fl.parameters import State
from repro.fl.privacy import GaussianAccountant, PrivacyConfig, PrivateUpdateLog, privatize_update
from repro.fl.server import FederatedServer
from repro.utils.rng import new_rng


class DPFedProx(RoundAlgorithm):
    """FedProx with clipped, noised client updates and a privacy accountant."""

    name = "dp_fedprox"

    def __init__(
        self,
        clients: Sequence[FederatedClient],
        model_factory: ModelFactory,
        config: FLConfig,
        server: Optional[FederatedServer] = None,
        privacy: Optional[PrivacyConfig] = None,
        **kwargs,
    ):
        super().__init__(clients, model_factory, config, server, **kwargs)
        self.privacy = privacy if privacy is not None else PrivacyConfig(clip_norm=1.0, noise_multiplier=0.1)
        self.accountant = GaussianAccountant(self.privacy)
        self.update_log = PrivateUpdateLog()

    def checkpoint_fingerprint(self):
        fingerprint = super().checkpoint_fingerprint()
        fingerprint["clip_norm"] = self.privacy.clip_norm
        fingerprint["noise_multiplier"] = self.privacy.noise_multiplier
        return fingerprint

    def _fold_update(self, accumulators, global_state: State, update: ClientUpdate) -> None:
        # The clipping + noising of each returned update happens on the
        # server side with one sequential RNG stream, in fold (= cohort)
        # order, so the noise draws are identical under any execution
        # backend.
        private_state, raw_norm = privatize_update(
            global_state, update.state, self.privacy, self._noise_rng
        )
        self.update_log.record(raw_norm, self.privacy.clip_norm)
        accumulators[0].fold(private_state, self._weight(update))

    def _begin_run(self, global_state: State, resumed: Optional[RoundCheckpoint]) -> None:
        self._noise_rng = new_rng(np.random.SeedSequence([self.config.seed, 0xD9]))
        if resumed is None:
            return
        meta = resumed.extra_meta
        if "noise_rng" in meta:
            self._noise_rng.bit_generator.state = meta["noise_rng"]
        if "raw_norms" in meta:
            self.update_log.raw_norms = [float(v) for v in meta["raw_norms"]]
            self.update_log.clipped_fraction_hits = int(meta.get("clipped_hits", 0))
        # Restore the exact mechanism count (a scheduled round may have
        # released nothing); older checkpoints without the count fall back
        # to one application per completed round.
        self.accountant.record_round(int(meta.get("privacy_steps", resumed.round_index + 1)))

    def _checkpoint_extras(self) -> Tuple[Dict[str, State], Dict[str, object]]:
        return {}, {
            "noise_rng": self._noise_rng.bit_generator.state,
            "raw_norms": list(self.update_log.raw_norms),
            "clipped_hits": self.update_log.clipped_fraction_hits,
            # The accountant's applied-mechanism count: under a deadline
            # policy a round can keep zero updates and release nothing, so
            # it cannot be reconstructed from the round index alone.
            "privacy_steps": self.accountant.steps,
        }

    def _apply_average(self, global_state: State, average: State) -> State:
        self.accountant.record_round()
        return average

    def _server_step(self, global_state: State, accumulators) -> Tuple[State, Dict[str, object]]:
        global_state, extra = super()._server_step(global_state, accumulators)
        extra["epsilon"] = self.accountant.epsilon()
        extra["clipped_fraction"] = self.update_log.clipped_fraction
        return global_state, extra
