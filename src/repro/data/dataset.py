"""Dataset containers for routability samples.

A sample is one placement solution: its feature tensor ``X in R^(C x H x W)``
and its ground-truth DRC hotspot map ``Y in {0,1}^(H x W)``, plus provenance
metadata (design name, benchmark suite, placement index) used for
design-disjoint train/test splitting.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.utils.files import atomic_write

PathLike = Union[str, Path]


@dataclass
class PlacementSample:
    """One (features, label) pair extracted from a placement solution."""

    features: np.ndarray  # (C, H, W)
    label: np.ndarray  # (H, W) binary
    design_name: str
    suite: str
    placement_index: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.label = np.asarray(self.label, dtype=np.float64)
        if self.features.ndim != 3:
            raise ValueError(f"features must be (C, H, W), got shape {self.features.shape}")
        if self.label.ndim != 2:
            raise ValueError(f"label must be (H, W), got shape {self.label.shape}")
        if self.features.shape[1:] != self.label.shape:
            raise ValueError(
                f"feature spatial shape {self.features.shape[1:]} does not match "
                f"label shape {self.label.shape}"
            )

    @property
    def num_channels(self) -> int:
        return self.features.shape[0]

    @property
    def grid_shape(self) -> Tuple[int, int]:
        return self.label.shape

    @property
    def hotspot_fraction(self) -> float:
        return float(self.label.mean())


class RoutabilityDataset:
    """An in-memory collection of :class:`PlacementSample`."""

    def __init__(self, samples: Optional[Iterable[PlacementSample]] = None, name: str = "dataset"):
        self.name = name
        self._samples: List[PlacementSample] = list(samples) if samples is not None else []
        #: Contiguous (features, labels) pack per dtype, built lazily by
        #: :meth:`packed_arrays` and invalidated whenever a sample is added.
        self._packed: Dict[np.dtype, Tuple[np.ndarray, np.ndarray]] = {}
        self._validate_consistency()

    def _validate_consistency(self) -> None:
        if not self._samples:
            return
        reference = self._samples[0]
        for sample in self._samples[1:]:
            if sample.features.shape != reference.features.shape:
                raise ValueError(
                    f"inconsistent feature shapes in dataset {self.name!r}: "
                    f"{sample.features.shape} vs {reference.features.shape}"
                )

    # -- collection protocol ------------------------------------------------
    def __len__(self) -> int:
        return len(self._samples)

    def __getitem__(self, index: int) -> PlacementSample:
        return self._samples[index]

    def __iter__(self) -> Iterator[PlacementSample]:
        return iter(self._samples)

    def add(self, sample: PlacementSample) -> None:
        if self._samples and sample.features.shape != self._samples[0].features.shape:
            raise ValueError("sample shape does not match the rest of the dataset")
        self._samples.append(sample)
        self._packed.clear()

    def extend(self, samples: Iterable[PlacementSample]) -> None:
        for sample in samples:
            self.add(sample)

    # -- tensor views ---------------------------------------------------------
    @property
    def num_channels(self) -> int:
        if not self._samples:
            raise ValueError(f"dataset {self.name!r} is empty")
        return self._samples[0].num_channels

    @property
    def grid_shape(self) -> Tuple[int, int]:
        if not self._samples:
            raise ValueError(f"dataset {self.name!r} is empty")
        return self._samples[0].grid_shape

    def packed_arrays(self, dtype=np.float64) -> Tuple[np.ndarray, np.ndarray]:
        """Contiguous ``(N, C, H, W)`` features and ``(N, H, W)`` labels.

        Packed **once** per dtype and cached (samples are immutable in
        practice; any :meth:`add` invalidates the cache), so batch collation
        becomes a single fancy-index gather instead of a per-sample Python
        loop.  The returned arrays are shared and read-only — callers that
        need to mutate must copy (:meth:`features_array` /
        :meth:`labels_array` do exactly that).
        """
        if not self._samples:
            raise ValueError(f"dataset {self.name!r} is empty")
        key = np.dtype(dtype)
        cached = self._packed.get(key)
        if cached is None:
            base_key = np.dtype(np.float64)
            base = self._packed.get(base_key)
            if base is None:
                features = np.stack([sample.features for sample in self._samples], axis=0)
                labels = np.stack([sample.label for sample in self._samples], axis=0)
                features.setflags(write=False)
                labels.setflags(write=False)
                base = (features, labels)
                self._packed[base_key] = base
            if key == base_key:
                cached = base
            else:
                features = base[0].astype(key)
                labels = base[1].astype(key)
                features.setflags(write=False)
                labels.setflags(write=False)
                cached = (features, labels)
                self._packed[key] = cached
        return cached

    def features_array(self) -> np.ndarray:
        """All features stacked as ``(N, C, H, W)`` (a fresh, writable copy)."""
        return self.packed_arrays()[0].copy()

    def labels_array(self) -> np.ndarray:
        """All labels stacked as ``(N, H, W)`` (a fresh, writable copy)."""
        return self.packed_arrays()[1].copy()

    def design_names(self) -> List[str]:
        """Distinct design names present, in first-appearance order."""
        return list(dict.fromkeys(sample.design_name for sample in self._samples))

    def suites(self) -> List[str]:
        """Distinct benchmark suites present, in first-appearance order."""
        return list(dict.fromkeys(sample.suite for sample in self._samples))

    def hotspot_fraction(self) -> float:
        """Mean hotspot fraction over all samples (label imbalance indicator)."""
        if not self._samples:
            return 0.0
        return float(np.mean([sample.hotspot_fraction for sample in self._samples]))

    # -- persistence -------------------------------------------------------------
    def save(self, path: PathLike) -> Path:
        """Serialize the dataset to a ``.npz`` archive (a killed run leaves no partial file)."""
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(path.suffix + ".npz")
        path.parent.mkdir(parents=True, exist_ok=True)
        if not self._samples:
            raise ValueError(f"refusing to save empty dataset {self.name!r}")
        with atomic_write(path) as handle:
            np.savez_compressed(
                handle,
                features=self.features_array(),
                labels=self.labels_array(),
                design_names=np.array([s.design_name for s in self._samples]),
                suites=np.array([s.suite for s in self._samples]),
                placement_indices=np.array([s.placement_index for s in self._samples]),
                name=np.array(self.name),
            )
        return path

    @classmethod
    def load(cls, path: PathLike) -> "RoutabilityDataset":
        """Load a dataset previously written by :meth:`save`."""
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"no dataset found at {path}")
        with np.load(path, allow_pickle=False) as archive:
            features = archive["features"]
            labels = archive["labels"]
            design_names = archive["design_names"]
            suites = archive["suites"]
            placement_indices = archive["placement_indices"]
            name = str(archive["name"])
        samples = [
            PlacementSample(
                features=features[i],
                label=labels[i],
                design_name=str(design_names[i]),
                suite=str(suites[i]),
                placement_index=int(placement_indices[i]),
            )
            for i in range(features.shape[0])
        ]
        return cls(samples, name=name)

    def summary(self) -> Dict[str, object]:
        """Human-readable dataset summary used by reports and examples."""
        return {
            "name": self.name,
            "samples": len(self),
            "designs": len(self.design_names()),
            "suites": self.suites(),
            "channels": self.num_channels if self._samples else 0,
            "grid": self.grid_shape if self._samples else (0, 0),
            "hotspot_fraction": round(self.hotspot_fraction(), 4),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoutabilityDataset(name={self.name!r}, samples={len(self)})"
