"""Experiment configurations, runner, and table formatting."""

from repro.experiments.config import ExperimentConfig, default, preset, smoke
from repro.experiments.report import (
    communication_text,
    resilience_text,
    scheduling_text,
)
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentRunner,
    ModelBuilder,
    run_experiment,
)
from repro.experiments.tables import (
    PAPER_TABLE1_FLNET_ARCHITECTURE,
    PAPER_TABLE2_SETUP,
    ROW_DISPLAY_NAMES,
    comparison_table,
    format_rows,
)

__all__ = [
    "ExperimentConfig",
    "default",
    "smoke",
    "preset",
    "ExperimentRunner",
    "ExperimentResult",
    "ModelBuilder",
    "run_experiment",
    "ROW_DISPLAY_NAMES",
    "PAPER_TABLE1_FLNET_ARCHITECTURE",
    "PAPER_TABLE2_SETUP",
    "format_rows",
    "comparison_table",
    "communication_text",
    "scheduling_text",
    "resilience_text",
]
