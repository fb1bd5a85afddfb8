"""Mini-batch iteration over routability datasets.

Batches are gathered straight out of the dataset's contiguous packed
arrays (:meth:`RoutabilityDataset.packed_arrays`) into **reused** batch
buffers — one ``np.take`` per batch instead of a per-sample Python
stacking loop.

Aliasing contract
-----------------
A returned ``(features, labels)`` pair is valid until the **next** batch is
drawn from the same loader (the training loop's consume-then-advance
pattern); callers that keep batches across draws must copy.  The gathered
values are those of a per-sample ``np.stack`` collation, bit for bit
(``tests/data`` asserts the parity).
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.data.dataset import RoutabilityDataset
from repro.utils.rng import new_rng
from repro.utils.validation import check_positive


class DataLoader:
    """Iterates a dataset in mini-batches of ``(features, labels)`` arrays.

    Features are returned as ``(B, C, H, W)`` and labels as ``(B, 1, H, W)``
    so they can be compared directly against model outputs.  ``dtype``
    selects the dtype batches are produced in (the trainer passes its
    compute dtype, so a float32 run never upcasts batch data); the default
    ``float64`` matches the historical behavior exactly.
    """

    def __init__(
        self,
        dataset: RoutabilityDataset,
        batch_size: int,
        shuffle: bool = True,
        rng: Optional[np.random.Generator] = None,
        dtype=None,
    ):
        check_positive("batch_size", batch_size)
        if len(dataset) == 0:
            raise ValueError("cannot build a DataLoader over an empty dataset")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.shuffle = bool(shuffle)
        self.dtype = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
        self._rng = rng if rng is not None else new_rng(0)
        self._feature_buffer: Optional[np.ndarray] = None
        self._label_buffer: Optional[np.ndarray] = None

    def __len__(self) -> int:
        """Batches per epoch; the last one may be short."""
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        indices = np.arange(len(self.dataset))
        if self.shuffle:
            self._rng.shuffle(indices)
        for start in range(0, len(indices), self.batch_size):
            yield self._collate(indices[start : start + self.batch_size])

    def _batch_buffers(self, size: int) -> Tuple[np.ndarray, np.ndarray]:
        """Views of the persistent batch buffers for a batch of ``size``."""
        if self._feature_buffer is None:
            channels = self.dataset.num_channels
            height, width = self.dataset.grid_shape
            self._feature_buffer = np.empty(
                (self.batch_size, channels, height, width), dtype=self.dtype
            )
            self._label_buffer = np.empty((self.batch_size, 1, height, width), dtype=self.dtype)
        return self._feature_buffer[:size], self._label_buffer[:size]

    def _collate(self, indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        indices = np.asarray(indices, dtype=np.intp)
        features, labels = self.dataset.packed_arrays(self.dtype)
        feature_batch, label_batch = self._batch_buffers(indices.size)
        # mode="clip" selects NumPy's unbuffered write-through path; the
        # indices are in range by construction, so clipping never engages.
        np.take(features, indices, axis=0, out=feature_batch, mode="clip")
        np.take(labels, indices, axis=0, out=label_batch[:, 0], mode="clip")
        return feature_batch, label_batch


def infinite_batches(loader: DataLoader) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield batches forever, reshuffling at each epoch boundary."""
    while True:
        yield from loader
