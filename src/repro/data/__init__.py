"""Datasets, client assignment (Table 2), and batch loading."""

from repro.data.clients import (
    PAPER_TOTAL_DESIGNS,
    PAPER_TOTAL_PLACEMENTS,
    TABLE2_CLIENTS,
    ClientData,
    ClientSpec,
    CorpusBuilder,
    CorpusConfig,
    table2_rows,
)
from repro.data.dataset import PlacementSample, RoutabilityDataset
from repro.data.loader import DataLoader, infinite_batches

__all__ = [
    "PlacementSample",
    "RoutabilityDataset",
    "DataLoader",
    "infinite_batches",
    "ClientSpec",
    "ClientData",
    "CorpusConfig",
    "CorpusBuilder",
    "TABLE2_CLIENTS",
    "PAPER_TOTAL_DESIGNS",
    "PAPER_TOTAL_PLACEMENTS",
    "table2_rows",
]
