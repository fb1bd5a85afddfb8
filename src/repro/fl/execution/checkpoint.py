"""Per-round checkpointing of decentralized training runs.

Long multi-round experiments (the paper preset runs R=50 rounds at S=100
local steps) should survive interruption.  A :class:`CheckpointManager`
persists, after every communication round:

* the round index,
* the aggregated global :data:`~repro.fl.parameters.State` (as an ``.npz``
  archive via :mod:`repro.nn.serialization`),
* optional named extra states (e.g. FedAvgM's server momentum buffer, each
  client's private part, the cluster models),
* every client's RNG state plus optional algorithm-specific JSON metadata
  (in a sidecar ``.json`` file).

Restoring the client RNG states is what makes a resumed run **bit-identical**
to an uninterrupted one: each client's batch-shuffling RNG continues exactly
where it stopped.

Every algorithm that trains in rounds (:class:`~repro.fl.algorithms.RoundAlgorithm`:
all the federated rows, personalized ones included) checkpoints its round
state and what its server keeps per client; the round-less local and
centralized baselines are given no checkpointer.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.fl.parameters import State
from repro.nn.serialization import load_state_dict, save_state_dict

PathLike = Union[str, Path]

_ROUND_FILE = re.compile(r"^round_(\d{5})\.json$")


@dataclass
class RoundCheckpoint:
    """Everything restored when resuming from a completed round."""

    round_index: int
    global_state: State
    client_rng_states: Dict[int, dict] = field(default_factory=dict)
    extra_states: Dict[str, State] = field(default_factory=dict)
    extra_meta: Dict[str, object] = field(default_factory=dict)


class CheckpointManager:
    """Saves and restores per-round training checkpoints in one directory.

    Parameters
    ----------
    directory:
        Where checkpoints live; created on first save.
    keep:
        How many most-recent rounds to retain (older ones are pruned).
    """

    def __init__(self, directory: PathLike, keep: int = 2):
        if keep < 1:
            raise ValueError(f"keep must be positive, got {keep}")
        self.directory = Path(directory)
        self.keep = int(keep)

    # -- paths -----------------------------------------------------------------
    def _meta_path(self, round_index: int) -> Path:
        return self.directory / f"round_{round_index:05d}.json"

    def _state_path(self, round_index: int) -> Path:
        return self.directory / f"round_{round_index:05d}.npz"

    def _extra_path(self, round_index: int, name: str) -> Path:
        return self.directory / f"round_{round_index:05d}.extra.{name}.npz"

    # -- writing ------------------------------------------------------------------
    def save(
        self,
        round_index: int,
        global_state: State,
        clients: Sequence = (),
        extra_states: Optional[Dict[str, State]] = None,
        extra_meta: Optional[Dict[str, object]] = None,
    ) -> Path:
        """Persist one completed round; returns the metadata file path."""
        self.directory.mkdir(parents=True, exist_ok=True)
        save_state_dict(global_state, self._state_path(round_index))
        extra_states = dict(extra_states or {})
        for name, state in extra_states.items():
            if not re.fullmatch(r"[A-Za-z0-9_]+", name):
                raise ValueError(f"extra state name {name!r} must be alphanumeric/underscore")
            save_state_dict(state, self._extra_path(round_index, name))
        meta = {
            "round_index": int(round_index),
            "client_rng_states": {
                str(client.client_id): client.rng_state for client in clients
            },
            "extra_states": sorted(extra_states),
            "extra_meta": dict(extra_meta or {}),
        }
        path = self._meta_path(round_index)
        # Write-then-rename so a crash mid-write never leaves a checkpoint
        # whose metadata parses but whose arrays are missing.
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(meta, indent=2), encoding="utf-8")
        tmp.replace(path)
        self._prune()
        return path

    def _prune(self) -> None:
        rounds = self.saved_rounds()
        for stale in rounds[: -self.keep]:
            for candidate in self.directory.glob(f"round_{stale:05d}*"):
                candidate.unlink(missing_ok=True)

    # -- reading ------------------------------------------------------------------
    def saved_rounds(self) -> List[int]:
        """Round indices with a complete metadata file, ascending."""
        if not self.directory.is_dir():
            return []
        rounds = []
        for entry in self.directory.iterdir():
            match = _ROUND_FILE.match(entry.name)
            if match:
                rounds.append(int(match.group(1)))
        return sorted(rounds)

    def load(self, round_index: int) -> RoundCheckpoint:
        """Load one specific round's checkpoint."""
        meta_path = self._meta_path(round_index)
        if not meta_path.exists():
            raise FileNotFoundError(f"no checkpoint for round {round_index} in {self.directory}")
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        # Archives load as flat states (packed once, in archive order), so a
        # checkpoint written before the engine existed resumes onto the flat
        # hot paths unchanged.
        global_state = load_state_dict(self._state_path(round_index))
        extra_states = {
            name: load_state_dict(self._extra_path(round_index, name)) for name in meta.get("extra_states", [])
        }
        return RoundCheckpoint(
            round_index=int(meta["round_index"]),
            global_state=global_state,
            client_rng_states={
                int(client_id): state for client_id, state in meta.get("client_rng_states", {}).items()
            },
            extra_states=extra_states,
            extra_meta=dict(meta.get("extra_meta", {})),
        )

    def load_latest(self) -> Optional[RoundCheckpoint]:
        """Load the most recent checkpoint, or ``None`` when there is none."""
        rounds = self.saved_rounds()
        if not rounds:
            return None
        return self.load(rounds[-1])

    def restore_clients(self, clients: Sequence, checkpoint: RoundCheckpoint) -> None:
        """Write the checkpointed RNG states back into ``clients``.

        Clients absent from the checkpoint keep their current RNG state (so a
        roster grown since the checkpoint still resumes deterministically for
        the original clients).
        """
        for client in clients:
            state = checkpoint.client_rng_states.get(client.client_id)
            if state is not None:
                client.rng_state = state

    def clear(self) -> None:
        """Delete every checkpoint file in the directory."""
        for round_index in self.saved_rounds():
            for candidate in self.directory.glob(f"round_{round_index:05d}*"):
                candidate.unlink(missing_ok=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CheckpointManager({str(self.directory)!r}, keep={self.keep})"
