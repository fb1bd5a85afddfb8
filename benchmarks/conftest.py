"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one table (or ablation) of the paper using the
``default`` experiment preset — a scaled-down configuration that preserves the
comparative structure of the results (see DESIGN.md section 6).  The
synthesized corpus is cached on disk under ``benchmarks/.corpus_cache`` so the
per-table benches share one data-generation pass, and every regenerated table
is also written to the git-ignored ``benchmarks/out/`` so the numbers survive
pytest's output capture and a test run leaves ``git status`` clean.  The
committed copies in ``benchmarks/results/`` are refreshed by hand:
``cp benchmarks/out/<name>.* benchmarks/results/``.
"""

from __future__ import annotations

import json
import os
import platform
import tracemalloc
from pathlib import Path
from typing import Dict, Optional, Sequence

import pytest

from repro.experiments import (
    ExperimentResult,
    ExperimentRunner,
    comparison_table,
    default,
    format_rows,
    smoke,
)

BENCH_DIR = Path(__file__).parent
CACHE_DIR = BENCH_DIR / ".corpus_cache"
OUTPUT_DIR = BENCH_DIR / "out"


def write_result(name: str, text: str) -> Path:
    """Persist a regenerated table to benchmarks/out/<name>.txt."""
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUTPUT_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    return path


def write_records(name: str, records: Sequence[Dict[str, object]]) -> Path:
    """Persist machine-readable benchmark records to benchmarks/out/<name>.json.

    Each record is one measurement: at minimum ``{"op": ..., "config": ...,
    "ms": ...}``, plus ``"speedup"`` (and anything else) where meaningful.
    A small environment header makes runs comparable across machines, so
    the perf trajectory is trackable across PRs.
    """
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    from repro.utils.threadpools import blas_info

    info = blas_info()
    payload = {
        "benchmark": name,
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            # BLAS identity says which machine a record came from: timings
            # from different environments are not comparable.
            "blas_vendor": info.vendor,
            "blas_version": info.version,
            "blas_max_threads": info.max_threads,
        },
        "records": list(records),
    }
    path = OUTPUT_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def rss_bytes() -> Optional[int]:
    """Resident set size of this process, or ``None`` where unsupported."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as statm:
            pages = int(statm.read().split()[1])
        return pages * os.sysconf("SC_PAGESIZE")
    except (OSError, ValueError, IndexError):
        return None


class MemoryProbe:
    """Peak-allocation measurement around one benchmark region.

    Combines ``tracemalloc`` (exact Python-level peak, the quantity the
    population-scale assertions compare across cohort sizes) with an RSS
    snapshot (the whole-process view, informational).  Use as a context
    manager and read :meth:`record` afterwards; the numbers merge into the
    benchmark's JSON records via :func:`write_records`.
    """

    def __init__(self):
        self.peak_bytes: Optional[int] = None
        self.rss_before: Optional[int] = None
        self.rss_after: Optional[int] = None
        self._owns_tracing = False

    def __enter__(self) -> "MemoryProbe":
        self.rss_before = rss_bytes()
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracing = True
        tracemalloc.reset_peak()
        return self

    def __exit__(self, *exc_info) -> None:
        _, self.peak_bytes = tracemalloc.get_traced_memory()
        if self._owns_tracing:
            tracemalloc.stop()
        self.rss_after = rss_bytes()

    def record(self) -> Dict[str, object]:
        """The measurement fields to merge into a benchmark record."""
        return {
            "peak_traced_bytes": self.peak_bytes,
            "rss_before_bytes": self.rss_before,
            "rss_after_bytes": self.rss_after,
        }


def run_table_experiment(
    model: str,
    algorithms: Optional[Sequence[str]] = None,
    preset_name: str = "default",
) -> ExperimentResult:
    """Run the table experiment for ``model`` under the given preset."""
    config = default(model) if preset_name == "default" else smoke(model)
    runner = ExperimentRunner(config, cache_dir=CACHE_DIR)
    return runner.run(algorithms)


def render_table(result: ExperimentResult, title: str) -> str:
    """Format a regenerated table next to the paper's reported averages."""
    measured: Dict[str, float] = {row.algorithm: row.average_auc for row in result.rows}
    parts = [
        format_rows(result.rows, title=title),
        "",
        "Average AUC, paper vs. this reproduction (synthetic substrate):",
        comparison_table(result.config.model, measured),
    ]
    return "\n".join(parts)


@pytest.fixture(scope="session")
def bench_cache_dir() -> Path:
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    return CACHE_DIR


# -- shared 9-client FedAvg round fixture ----------------------------------------
#
# One synthetic-grid client roster shared by the execution-backend and
# training-engine benchmarks, so their per-round numbers are measured on the
# identical workload (9 FLNet clients, 16x16 grids, batch 4).

BENCH_NUM_CLIENTS = 9
BENCH_GRID = 16
BENCH_CHANNELS = 6
BENCH_SAMPLES_PER_CLIENT = 8
BENCH_LOCAL_STEPS = 8


class BenchModelBuilder:
    """Picklable FLNet builder (the process pool may need to ship clients)."""

    def __call__(self, seed: int):
        from repro.models import FLNet

        return FLNet(BENCH_CHANNELS, seed=seed)


def synthetic_dataset(client_id: int, name: str, samples: int):
    """Synthetic feature/label grids: the benchmarks measure the engine, not data generation."""
    import numpy as np

    from repro.data.dataset import PlacementSample, RoutabilityDataset

    rng = np.random.default_rng(1000 + client_id)
    built = []
    for index in range(samples):
        features = rng.normal(size=(BENCH_CHANNELS, BENCH_GRID, BENCH_GRID))
        label = (rng.random((BENCH_GRID, BENCH_GRID)) < 0.15).astype(np.float64)
        built.append(
            PlacementSample(
                features=features,
                label=label,
                design_name=f"synthetic_c{client_id}",
                suite="synthetic",
                placement_index=index,
            )
        )
    return RoutabilityDataset(built, name=name)


def fresh_clients(config) -> list:
    """A fresh 9-client roster (fresh RNG streams) for one benchmark run."""
    from repro.fl import FederatedClient, SeededModelFactory

    factory = SeededModelFactory(BenchModelBuilder(), base_seed=0)
    return [
        FederatedClient(
            client_id,
            synthetic_dataset(client_id, f"bench_train_{client_id}", BENCH_SAMPLES_PER_CLIENT),
            synthetic_dataset(100 + client_id, f"bench_test_{client_id}", 2),
            factory,
            config,
        )
        for client_id in range(1, BENCH_NUM_CLIENTS + 1)
    ]
