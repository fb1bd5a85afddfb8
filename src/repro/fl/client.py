"""The federated client.

A client owns its private training and testing data.  The only things that
ever leave the client are model parameter states (and scalar loss summaries),
which is the privacy contract of the paper's decentralized training setting:
"the developer can only receive model parameters from its clients".

Lent models: a client is its data and its RNG stream.  Every use of a model
starts with a strict ``load_state_dict`` (parameters and buffers), and the
trainer sets the mode and zeroes gradients, so each thread lends one copy
of a *template* to whichever client computes, as :mod:`repro.nn.workspace`
lends scratch.  The template is the first model a factory built for a
compute dtype; it is never computed with.  Each client still calls its
factory once, at construction (a seeded factory counts its calls), and a
thread deep-copies the template rather than call it again.  Both tables are
weakly keyed, and a pickled roster carries its one template.

A model is one vector (:mod:`repro.nn.module`): the copy a thread lends is
packed like its template, so a task loads the received state with one copy
of its vector (entry by entry when it arrives in sorted wire order), and
exports the trained state with one cast copy (``flat_model_state``).
"""

from __future__ import annotations

import copy
import threading
import weakref
from typing import Callable, Optional

import numpy as np

from repro.data.clients import ClientData
from repro.data.dataset import RoutabilityDataset
from repro.fl.config import FLConfig
from repro.fl.parameters import State, flat_model_state
from repro.fl.trainer import LocalTrainer, predict_dataset
from repro.metrics.roc import roc_auc_score
from repro.models.base import RoutabilityModel

ModelFactory = Callable[[], RoutabilityModel]

#: factory -> {compute dtype: template}: the first model each factory built per dtype.
_TEMPLATES = weakref.WeakKeyDictionary()


class _LentModels(threading.local):
    """The calling thread's working copy of each template, by template."""

    def __init__(self):
        self.models = weakref.WeakKeyDictionary()


_LENT = _LentModels()


def lent_model(template: RoutabilityModel) -> RoutabilityModel:
    """The calling thread's copy of ``template``, deep-copied (vectors and all) on first use."""
    model = _LENT.models.get(template)
    if model is None:
        model = _LENT.models[template] = copy.deepcopy(template)
    return model


def initial_rng_state(client_id: int) -> dict:
    """The RNG state a fresh :class:`FederatedClient` starts with.

    Lazy client virtualization persists a virtual client's RNG stream across
    materialize/release cycles; before the first materialization the stream
    must equal what an eagerly built client would have, which is this.
    """
    return np.random.default_rng(client_id).bit_generator.state


class FederatedClient:
    """One participant of decentralized training; its model is lent, not owned (see above)."""

    def __init__(
        self,
        client_id: int,
        train_dataset: RoutabilityDataset,
        test_dataset: RoutabilityDataset,
        model_factory: ModelFactory,
        config: FLConfig,
    ):
        if len(train_dataset) == 0:
            raise ValueError(f"client {client_id} has no training data")
        self.client_id = int(client_id)
        self.train_dataset = train_dataset
        self.test_dataset = test_dataset
        self.config = config
        # The compute-dtype boundary: a template is switched (packed anew) once,
        # here; loads cast float64 states down into the model's vector, and
        # flat_model_state casts it back up.
        model = model_factory().set_compute_dtype(config.compute_dtype)
        self._template = _TEMPLATES.setdefault(model_factory, {}).setdefault(model.compute_dtype, model)
        self._rng = np.random.default_rng(client_id)
        self._trainer = LocalTrainer(
            loss=config.loss,
            optimizer=config.optimizer,
            learning_rate=config.learning_rate,
            weight_decay=config.weight_decay,
            batch_size=config.batch_size,
            rng=self._rng,
            compute_dtype=config.compute_dtype,
        )

    @classmethod
    def from_client_data(
        cls,
        data: ClientData,
        model_factory: ModelFactory,
        config: FLConfig,
    ) -> "FederatedClient":
        """Build a federated client from a Table 2 client's data."""
        return cls(
            client_id=data.client_id,
            train_dataset=data.train,
            test_dataset=data.test,
            model_factory=model_factory,
            config=config,
        )

    # -- data facts the server is allowed to know --------------------------------
    @property
    def num_samples(self) -> int:
        """Number of training samples ``n_k`` (used as the aggregation weight)."""
        return len(self.train_dataset)

    # -- execution-engine hand-off ------------------------------------------------
    @property
    def rng_state(self) -> dict:
        """The client RNG's bit-generator state (JSON-serializable).

        Execution backends and the checkpoint manager use this to hand RNG
        state between processes / runs, which is what keeps parallel and
        resumed training bit-identical to a serial, uninterrupted run.  The
        trainer shares this generator, so restoring the state here also
        restores batch shuffling.
        """
        return self._rng.bit_generator.state

    @rng_state.setter
    def rng_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state

    # -- local computation ----------------------------------------------------------
    def local_train(
        self,
        initial_state: State,
        steps: Optional[int] = None,
        proximal_mu: Optional[float] = None,
    ) -> tuple:
        """Train locally starting from ``initial_state``.

        Returns ``(new_state, statistics)``.  The proximal reference is the
        received state itself, per FedProx: training only reads it.
        """
        steps = steps if steps is not None else self.config.local_steps
        mu = proximal_mu if proximal_mu is not None else self.config.proximal_mu
        model = lent_model(self._template)
        model.load_state_dict(initial_state)
        stats = self._trainer.train_steps(
            model,
            self.train_dataset,
            steps=steps,
            proximal_mu=mu,
            proximal_reference=initial_state,
        )
        return flat_model_state(model), stats

    def fine_tune(self, initial_state: State, steps: Optional[int] = None) -> tuple:
        """Personalize ``initial_state`` with plain local steps (no proximal term)."""
        steps = steps if steps is not None else self.config.finetune_steps
        model = lent_model(self._template)
        model.load_state_dict(initial_state)
        stats = self._trainer.train_steps(model, self.train_dataset, steps=steps)
        return flat_model_state(model), stats

    def training_loss(self, state: State, max_batches: Optional[int] = None) -> float:
        """Loss of ``state`` on this client's training data (IFCA cluster choice)."""
        max_batches = max_batches if max_batches is not None else self.config.ifca_eval_batches
        model = lent_model(self._template)
        model.load_state_dict(state)
        return self._trainer.evaluate_loss(model, self.train_dataset, max_batches=max_batches)

    def evaluate_auc(self, state: State, dataset: Optional[RoutabilityDataset] = None) -> float:
        """ROC AUC of ``state`` on this client's (or a given) test dataset."""
        target = dataset if dataset is not None else self.test_dataset
        if len(target) == 0:
            raise ValueError(f"client {self.client_id} has no test data to evaluate on")
        model = lent_model(self._template)
        model.load_state_dict(state)
        scores, labels = predict_dataset(model, target, batch_size=max(self.config.batch_size, 8))
        return roc_auc_score(labels, scores)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FederatedClient(id={self.client_id}, train={len(self.train_dataset)}, "
            f"test={len(self.test_dataset)})"
        )
