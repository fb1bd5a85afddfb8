"""The paper's 9-client decentralized data setup (Table 2) and corpus synthesis.

Each client owns designs from exactly one benchmark suite (designs from the
same company tend to be similar), train and test designs are disjoint, and no
design is shared between clients.  The number of designs per client follows
Table 2 exactly; the number of placement solutions per design is scaled by
``CorpusConfig.placement_scale`` so the corpus can be regenerated at paper
scale (scale=1.0) or at a laptop-friendly scale for tests and benches.
"""

from __future__ import annotations

import hashlib
import json
import logging
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.dataset import PlacementSample, RoutabilityDataset
from repro.eda import maps as map_ext
from repro.eda.benchmarks import generate_design
from repro.eda.drc import DrcHotspotLabeler
from repro.eda.placement import sweep_placements
from repro.features.extraction import DEFAULT_FEATURES, FeatureExtractor
from repro.utils.rng import hash_str
from repro.utils.validation import check_positive

PathLike = Union[str, Path]

logger = logging.getLogger(__name__)

#: What ``np.load`` and reading its members raise on a damaged ``.npz``.
_UNREADABLE_ARCHIVE = (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile, zlib.error)


@dataclass(frozen=True)
class ClientSpec:
    """One row of the paper's Table 2."""

    client_id: int
    suite: str
    train_designs: int
    test_designs: int
    paper_train_placements: int
    paper_test_placements: int

    @property
    def name(self) -> str:
        return f"client{self.client_id}"

    @property
    def total_designs(self) -> int:
        return self.train_designs + self.test_designs


#: The exact client/design assignment of Table 2.
TABLE2_CLIENTS: Tuple[ClientSpec, ...] = (
    ClientSpec(1, "itc99", 4, 2, 462, 230),
    ClientSpec(2, "itc99", 2, 1, 231, 114),
    ClientSpec(3, "itc99", 2, 2, 231, 232),
    ClientSpec(4, "iscas89", 7, 3, 812, 348),
    ClientSpec(5, "iscas89", 7, 3, 812, 348),
    ClientSpec(6, "iscas89", 6, 3, 697, 348),
    ClientSpec(7, "iwls05", 6, 3, 656, 280),
    ClientSpec(8, "iwls05", 7, 3, 742, 329),
    ClientSpec(9, "ispd15", 9, 4, 175, 84),
)

#: Total designs / placements of the paper corpus, used for sanity checks.
PAPER_TOTAL_DESIGNS = sum(spec.total_designs for spec in TABLE2_CLIENTS)
PAPER_TOTAL_PLACEMENTS = sum(
    spec.paper_train_placements + spec.paper_test_placements for spec in TABLE2_CLIENTS
)


@dataclass(frozen=True)
class CorpusConfig:
    """Controls the synthetic corpus generation.

    Attributes
    ----------
    grid_width / grid_height:
        Size of the feature / label grid.
    placement_scale:
        Fraction of the paper's placement counts to generate (1.0 = the full
        7,131-placement corpus; the default keeps benches fast).
    min_placements_per_design:
        Lower bound applied after scaling so every design contributes data.
    features:
        Feature channels extracted for every placement.
    normalization:
        Feature normalization mode (see :class:`FeatureExtractor`).
    base_seed:
        Root seed for design generation and placement sweeps.
    label_seed:
        Seed of the DRC labeler's noise stream.
    """

    grid_width: int = 32
    grid_height: int = 32
    placement_scale: float = 0.05
    min_placements_per_design: int = 2
    features: Tuple[str, ...] = DEFAULT_FEATURES
    normalization: str = "per_sample"
    base_seed: int = 2022
    label_seed: int = 7

    def __post_init__(self):
        check_positive("grid_width", self.grid_width)
        check_positive("grid_height", self.grid_height)
        check_positive("placement_scale", self.placement_scale)
        check_positive("min_placements_per_design", self.min_placements_per_design)

    def placements_for(self, paper_count: int, n_designs: int) -> int:
        """Scaled per-design placement count for a Table 2 cell."""
        scaled_total = max(paper_count * self.placement_scale, n_designs * self.min_placements_per_design)
        return max(self.min_placements_per_design, int(round(scaled_total / n_designs)))

    def cache_key(self) -> str:
        """Stable hash of every field that affects the generated data."""
        payload = json.dumps(
            {
                "grid": [self.grid_width, self.grid_height],
                "scale": self.placement_scale,
                "min_ppd": self.min_placements_per_design,
                "features": list(self.features),
                "normalization": self.normalization,
                "base_seed": self.base_seed,
                "label_seed": self.label_seed,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class ClientData:
    """Data owned by one client: design-disjoint train and test datasets."""

    spec: ClientSpec
    train: RoutabilityDataset
    test: RoutabilityDataset

    @property
    def client_id(self) -> int:
        return self.spec.client_id

    @property
    def num_train_samples(self) -> int:
        return len(self.train)

    @property
    def num_test_samples(self) -> int:
        return len(self.test)

    def summary(self) -> Dict[str, object]:
        return {
            "client": self.spec.name,
            "suite": self.spec.suite,
            "train_designs": self.spec.train_designs,
            "test_designs": self.spec.test_designs,
            "train_placements": self.num_train_samples,
            "test_placements": self.num_test_samples,
        }


class CorpusBuilder:
    """Synthesizes the full 9-client corpus (designs -> placements -> samples)."""

    def __init__(self, config: Optional[CorpusConfig] = None):
        self.config = config if config is not None else CorpusConfig()
        self._extractor = FeatureExtractor(self.config.features, self.config.normalization)
        self._labeler = DrcHotspotLabeler(label_seed=self.config.label_seed)

    def build_design_samples(
        self,
        suite: str,
        design_name: str,
        design_seed: int,
        placements_per_design: int,
        sweep_seed: int,
    ) -> List[PlacementSample]:
        """Generate one design and all of its placement samples."""
        design = generate_design(suite, design_name, design_seed)
        placements = sweep_placements(
            design,
            count=placements_per_design,
            grid_width=self.config.grid_width,
            grid_height=self.config.grid_height,
            base_seed=sweep_seed,
        )
        samples = []
        for index, placement in enumerate(placements):
            analysis = map_ext.all_maps(placement)
            features = self._extractor.extract(placement, analysis)
            drc = self._labeler.label(placement, precomputed_maps=analysis)
            samples.append(
                PlacementSample(
                    features=features,
                    label=drc.hotspots,
                    design_name=design_name,
                    suite=suite,
                    placement_index=index,
                )
            )
        return samples

    def build_client(self, spec: ClientSpec) -> ClientData:
        """Synthesize all data owned by one client."""
        config = self.config
        train_ppd = config.placements_for(spec.paper_train_placements, spec.train_designs)
        test_ppd = config.placements_for(spec.paper_test_placements, spec.test_designs)

        train = RoutabilityDataset(name=f"{spec.name}/train")
        test = RoutabilityDataset(name=f"{spec.name}/test")

        for role, count, ppd, target in (
            ("train", spec.train_designs, train_ppd, train),
            ("test", spec.test_designs, test_ppd, test),
        ):
            for design_index in range(count):
                design_name = f"c{spec.client_id}_{spec.suite}_{role}_{design_index:02d}"
                design_seed = int(
                    np.random.SeedSequence(
                        [config.base_seed, spec.client_id, hash_str(role) % (2**31), design_index]
                    ).generate_state(1)[0]
                )
                sweep_seed = design_seed ^ 0x5A5A5A
                samples = self.build_design_samples(
                    spec.suite, design_name, design_seed, ppd, sweep_seed
                )
                target.extend(samples)
        return ClientData(spec=spec, train=train, test=test)

    def build_all(
        self,
        specs: Optional[Sequence[ClientSpec]] = None,
        cache_dir: Optional[PathLike] = None,
    ) -> List[ClientData]:
        """Synthesize (or load from cache) the data of every client."""
        specs = list(specs) if specs is not None else list(TABLE2_CLIENTS)
        clients = []
        for spec in specs:
            cached = self._load_cached(spec, cache_dir) if cache_dir else None
            if cached is not None:
                clients.append(cached)
                continue
            client = self.build_client(spec)
            if cache_dir:
                self._store_cached(client, cache_dir)
            clients.append(client)
        return clients

    # -- caching ----------------------------------------------------------------
    def _cache_paths(self, spec: ClientSpec, cache_dir: PathLike) -> Tuple[Path, Path]:
        root = Path(cache_dir) / self.config.cache_key()
        return (root / f"{spec.name}_train.npz", root / f"{spec.name}_test.npz")

    def _load_cached(self, spec: ClientSpec, cache_dir: PathLike) -> Optional[ClientData]:
        train_path, test_path = self._cache_paths(spec, cache_dir)
        if not (train_path.exists() and test_path.exists()):
            return None
        datasets = []
        for path in (train_path, test_path):
            try:
                datasets.append(RoutabilityDataset.load(path))
            except _UNREADABLE_ARCHIVE as error:
                # A miss, not a failure: build_all rebuilds the client and overwrites the pair.
                logger.warning(
                    "corpus cache file %s is unreadable (%s: %s); rebuilding %s",
                    path, type(error).__name__, error, spec.name,
                )
                return None
        return ClientData(spec=spec, train=datasets[0], test=datasets[1])

    def _store_cached(self, client: ClientData, cache_dir: PathLike) -> None:
        train_path, test_path = self._cache_paths(client.spec, cache_dir)
        client.train.save(train_path)
        client.test.save(test_path)


def table2_rows(clients: Sequence[ClientData]) -> List[Dict[str, object]]:
    """Format generated clients as rows comparable to the paper's Table 2."""
    return [client.summary() for client in clients]
