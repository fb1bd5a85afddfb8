"""Local training loop shared by every decentralized algorithm.

The trainer performs plain mini-batch gradient steps on one client's data
with an optional FedProx proximal term.  The proximal term of Equation (1),
``mu * ||W^r - w||^2``, contributes ``2 * mu * (w - W^r)`` to each parameter
gradient; adding it here (rather than inside the loss) keeps the layer code
oblivious to federated learning.

The trainer owns the **compute dtype** of local training (see
:mod:`repro.nn.dtypes`): ``float64`` (default) is bit-identical to the
historical engine, ``float32`` is the opt-in fast path.  The model is
switched once on entry, batches are collated directly in the compute dtype,
and the proximal reference is cast once per call — parameter states crossing
the client boundary stay ``float64`` either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.data.dataset import RoutabilityDataset
from repro.data.loader import DataLoader, infinite_batches
from repro.fl.parameters import State, as_flat_state, model_layout
from repro.models.base import RoutabilityModel
from repro.nn.dtypes import resolve_compute_dtype
from repro.nn.losses import Loss, make_loss
from repro.nn.optim import Optimizer, make_optimizer
from repro.nn.workspace import release_scratch
from repro.utils.validation import check_positive


def reference_run(model: RoutabilityModel, reference: State) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``(vector, index)``: where :func:`add_proximal_gradient` reads FedProx's reference.

    The reference of the parameter run's block ``span`` is
    ``vector[span]`` when ``reference`` is in the model's own layout, else
    ``vector[index[span]]`` (a cached gather, e.g. from sorted wire order).
    ``vector`` is in the model's compute dtype: a float32 model's reference
    is cast once per call, so the term runs entirely in float32.
    """
    reference = as_flat_state(reference)
    num_params = model.flat.grad.size
    vector = reference.vector.astype(model.flat.grad.dtype, copy=False)
    layout = model_layout(model)
    if reference.layout is layout:
        return vector, None
    return vector, layout.gather_from(reference.layout)[:num_params]


def add_proximal_gradient(
    optimizer: Optimizer, reference: np.ndarray, index: Optional[np.ndarray], mu: float
) -> None:
    """``grad += 2.0 * mu * (data - reference)`` over the optimizer's blocks.

    A block's reference is gathered into the first work buffer, which
    ``step()`` overwrites only after the term is consumed, so this
    allocates nothing of its own.  The same IEEE operations on the same
    values as the expression form.
    """
    coefficient = 2.0 * mu
    for span, data, grad, work, _ in optimizer.blocks():
        if index is None:
            values = reference[span]
        else:
            # Indices are in range by construction; "clip" skips take's buffering of out.
            values = np.take(reference, index[span], out=work, mode="clip")
        np.subtract(data, values, out=work)
        np.multiply(work, coefficient, out=work)
        np.add(grad, work, out=grad)


@dataclass
class StepStatistics:
    """Aggregate statistics of one call to :meth:`LocalTrainer.train_steps`."""

    steps: int
    mean_loss: float
    final_loss: float


class LocalTrainer:
    """Runs gradient steps of one model on one dataset."""

    def __init__(
        self,
        loss: str = "mse",
        optimizer: str = "adam",
        learning_rate: float = 2e-4,
        weight_decay: float = 1e-5,
        batch_size: int = 8,
        rng: Optional[np.random.Generator] = None,
        compute_dtype: Optional[str] = None,
    ):
        check_positive("learning_rate", learning_rate)
        check_positive("batch_size", batch_size)
        self.loss_name = loss
        self.optimizer_name = optimizer
        self.learning_rate = float(learning_rate)
        self.weight_decay = float(weight_decay)
        self.batch_size = int(batch_size)
        self.compute_dtype = resolve_compute_dtype(compute_dtype)
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def make_loader(self, dataset: RoutabilityDataset, shuffle: bool = True) -> DataLoader:
        """Build a loader with this trainer's batch size, RNG, and compute dtype."""
        return DataLoader(
            dataset,
            batch_size=self.batch_size,
            shuffle=shuffle,
            rng=np.random.default_rng(self._rng.integers(0, 2**63 - 1)),
            dtype=self.compute_dtype,
        )

    def _prepare_model(self, model: RoutabilityModel) -> None:
        """Switch ``model`` to this trainer's compute dtype (no-op when equal)."""
        model.set_compute_dtype(self.compute_dtype)

    def train_steps(
        self,
        model: RoutabilityModel,
        dataset: RoutabilityDataset,
        steps: int,
        proximal_mu: float = 0.0,
        proximal_reference: Optional[State] = None,
    ) -> StepStatistics:
        """Run ``steps`` mini-batch updates of ``model`` on ``dataset``.

        Parameters
        ----------
        proximal_mu / proximal_reference:
            When both are provided, each parameter gradient receives the
            FedProx proximal contribution ``2 * mu * (param - reference)``.
        """
        check_positive("steps", steps)
        if proximal_mu < 0:
            raise ValueError(f"proximal_mu must be non-negative, got {proximal_mu}")
        if proximal_mu > 0 and proximal_reference is None:
            raise ValueError("proximal_reference is required when proximal_mu > 0")

        self._prepare_model(model)
        loader = self.make_loader(dataset)
        batches = infinite_batches(loader)
        loss_fn: Loss = make_loss(self.loss_name)
        optimizer = make_optimizer(
            self.optimizer_name,
            model.parameters(),
            lr=self.learning_rate,
            weight_decay=self.weight_decay,
        )
        proximal = reference_run(model, proximal_reference) if proximal_mu > 0 else None

        model.train()
        losses = np.zeros(steps, dtype=np.float64)
        for step, (features, labels) in zip(range(steps), batches):
            optimizer.zero_grad()
            predictions = model.forward(features)
            losses[step] = loss_fn.forward(predictions, labels)
            model.backward(loss_fn.backward())
            if proximal is not None:
                add_proximal_gradient(optimizer, *proximal, proximal_mu)
            optimizer.step()
        # Local computation is over: lend the scratch and the optimizer's
        # state to whoever trains next on this thread (see repro.nn.workspace).
        model.release_workspaces()
        release_scratch(optimizer)
        return StepStatistics(
            steps=steps,
            mean_loss=float(losses.mean()),
            final_loss=float(losses[-1]),
        )

    def evaluate_loss(
        self,
        model: RoutabilityModel,
        dataset: RoutabilityDataset,
        max_batches: Optional[int] = None,
    ) -> float:
        """Mean loss of ``model`` over (a prefix of) ``dataset`` in eval mode."""
        self._prepare_model(model)
        loader = self.make_loader(dataset, shuffle=False)
        loss_fn: Loss = make_loss(self.loss_name)
        model.eval()
        losses = []
        for index, (features, labels) in enumerate(loader):
            if max_batches is not None and index >= max_batches:
                break
            predictions = model.forward(features)
            losses.append(loss_fn.forward(predictions, labels))
        model.train()
        model.release_workspaces()
        if not losses:
            raise ValueError("evaluate_loss processed no batches")
        return float(np.mean(losses))


def predict_dataset(
    model: RoutabilityModel,
    dataset: RoutabilityDataset,
    batch_size: int = 16,
) -> Tuple[np.ndarray, np.ndarray]:
    """Predict scores for every sample of ``dataset``.

    Returns ``(scores, labels)`` flattened over all samples and grid bins,
    ready for :func:`repro.metrics.roc_auc_score`.  Batches are contiguous
    slices of the dataset's packed arrays — no per-sample stacking loop —
    and scores are collected in float64 whatever the model's compute dtype.
    """
    check_positive("batch_size", batch_size)
    features_all, labels_all = dataset.packed_arrays()
    scores = []
    for start in range(0, len(dataset), batch_size):
        chunk = features_all[start : start + batch_size]
        predictions = model.predict(chunk)
        scores.append(np.asarray(predictions, dtype=np.float64).reshape(-1))
    model.release_workspaces()
    return np.concatenate(scores), labels_all.reshape(-1)
