"""Experiment configurations, runner, and table formatting."""

from repro.experiments.config import (
    PRESETS,
    TABLE_ALGORITHMS,
    ExperimentConfig,
    default,
    paper,
    preset,
    smoke,
)
from repro.experiments.report import (
    communication_text,
    resilience_text,
    scheduling_text,
)
from repro.experiments.runner import (
    AlgorithmOutcome,
    ExperimentResult,
    ExperimentRunner,
    ModelBuilder,
    run_experiment,
)
from repro.experiments.tables import (
    PAPER_TABLE1_FLNET_ARCHITECTURE,
    PAPER_TABLE2_SETUP,
    PAPER_TABLE3_FLNET,
    PAPER_TABLE4_ROUTENET,
    PAPER_TABLE5_PROS,
    PAPER_TABLES,
    ROW_DISPLAY_NAMES,
    comparison_table,
    format_rows,
)

__all__ = [
    "ExperimentConfig",
    "TABLE_ALGORITHMS",
    "PRESETS",
    "paper",
    "default",
    "smoke",
    "preset",
    "ExperimentRunner",
    "ExperimentResult",
    "AlgorithmOutcome",
    "ModelBuilder",
    "run_experiment",
    "ROW_DISPLAY_NAMES",
    "PAPER_TABLES",
    "PAPER_TABLE1_FLNET_ARCHITECTURE",
    "PAPER_TABLE2_SETUP",
    "PAPER_TABLE3_FLNET",
    "PAPER_TABLE4_ROUTENET",
    "PAPER_TABLE5_PROS",
    "format_rows",
    "comparison_table",
    "communication_text",
    "scheduling_text",
    "resilience_text",
]
