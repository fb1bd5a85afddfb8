"""Table formatting and the paper's reference numbers.

The constants below hold the exact numbers reported in Tables 3, 4, and 5 of
the paper so that benches and EXPERIMENTS.md can print measured results side
by side with the published ones.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.fl.evaluation import EvaluationRow

#: Display names of the algorithm rows, in the paper's wording.
ROW_DISPLAY_NAMES: Dict[str, str] = {
    "local": "Local Average (b1 to b9)",
    "centralized": "Training Centrally on All Data",
    "fedavg": "FedAvg",
    "fedprox": "FedProx",
    "fedprox_lg": "FedProx-LG",
    "ifca": "IFCA",
    "fedprox_finetune": "FedProx + Fine-tuning",
    "assigned_clustering": "Assigned Clustering",
    "fedprox_alpha": "FedProx + alpha-Portion Sync",
}

#: Table 3 of the paper: FLNet, ROC AUC per client and average.
PAPER_TABLE3_FLNET: Dict[str, List[float]] = {
    "local": [0.76, 0.75, 0.71, 0.72, 0.67, 0.70, 0.76, 0.64, 0.82, 0.72],
    "centralized": [0.87, 0.87, 0.77, 0.80, 0.75, 0.77, 0.82, 0.70, 0.92, 0.81],
    "fedprox": [0.82, 0.78, 0.73, 0.75, 0.72, 0.74, 0.82, 0.69, 0.96, 0.78],
    "fedprox_lg": [0.77, 0.61, 0.65, 0.65, 0.60, 0.69, 0.77, 0.63, 0.93, 0.70],
    "ifca": [0.83, 0.79, 0.73, 0.76, 0.71, 0.75, 0.82, 0.69, 0.87, 0.77],
    "fedprox_finetune": [0.84, 0.89, 0.79, 0.78, 0.72, 0.75, 0.82, 0.72, 0.90, 0.80],
    "assigned_clustering": [0.81, 0.86, 0.75, 0.76, 0.72, 0.75, 0.81, 0.70, 0.88, 0.78],
    "fedprox_alpha": [0.82, 0.79, 0.73, 0.76, 0.72, 0.75, 0.81, 0.69, 0.90, 0.78],
}

#: Table 4 of the paper: RouteNet.
PAPER_TABLE4_ROUTENET: Dict[str, List[float]] = {
    "local": [0.76, 0.76, 0.71, 0.73, 0.68, 0.71, 0.75, 0.64, 0.78, 0.73],
    "centralized": [0.86, 0.88, 0.79, 0.82, 0.81, 0.77, 0.82, 0.75, 0.94, 0.83],
    "fedprox": [0.63, 0.83, 0.71, 0.72, 0.66, 0.67, 0.63, 0.57, 0.42, 0.65],
    "fedprox_lg": [0.60, 0.55, 0.57, 0.50, 0.51, 0.49, 0.54, 0.52, 0.46, 0.53],
    "ifca": [0.46, 0.28, 0.35, 0.37, 0.39, 0.44, 0.43, 0.43, 0.71, 0.43],
    "fedprox_finetune": [0.83, 0.86, 0.76, 0.75, 0.74, 0.75, 0.81, 0.72, 0.90, 0.79],
    "assigned_clustering": [0.70, 0.85, 0.74, 0.65, 0.64, 0.65, 0.49, 0.46, 0.89, 0.67],
    "fedprox_alpha": [0.66, 0.57, 0.61, 0.57, 0.54, 0.58, 0.68, 0.58, 0.72, 0.61],
}

#: Table 5 of the paper: PROS.
PAPER_TABLE5_PROS: Dict[str, List[float]] = {
    "local": [0.65, 0.63, 0.61, 0.61, 0.58, 0.62, 0.66, 0.59, 0.72, 0.63],
    "centralized": [0.75, 0.68, 0.65, 0.65, 0.62, 0.62, 0.73, 0.65, 0.73, 0.67],
    "fedprox": [0.67, 0.60, 0.61, 0.64, 0.63, 0.64, 0.65, 0.59, 0.58, 0.62],
    "fedprox_lg": [0.69, 0.62, 0.62, 0.63, 0.61, 0.65, 0.71, 0.60, 0.84, 0.66],
    "ifca": [0.50, 0.58, 0.52, 0.53, 0.51, 0.48, 0.51, 0.51, 0.35, 0.50],
    "fedprox_finetune": [0.74, 0.65, 0.76, 0.72, 0.53, 0.67, 0.81, 0.69, 0.50, 0.67],
    "assigned_clustering": [0.47, 0.55, 0.51, 0.48, 0.49, 0.51, 0.70, 0.60, 0.36, 0.52],
    "fedprox_alpha": [0.64, 0.45, 0.56, 0.58, 0.55, 0.52, 0.64, 0.55, 0.59, 0.56],
}

#: All three result tables keyed by the model they evaluate.
PAPER_TABLES: Dict[str, Dict[str, List[float]]] = {
    "flnet": PAPER_TABLE3_FLNET,
    "routenet": PAPER_TABLE4_ROUTENET,
    "pros": PAPER_TABLE5_PROS,
}

#: Table 1 of the paper: FLNet architecture configuration.
PAPER_TABLE1_FLNET_ARCHITECTURE: List[Dict[str, object]] = [
    {"layer": "input_conv", "kernel_size": "9 x 9", "filters": 64, "activation": "ReLU"},
    {"layer": "output_conv", "kernel_size": "9 x 9", "filters": 1, "activation": "None"},
]

#: Table 2 of the paper: per-client design and placement counts.
PAPER_TABLE2_SETUP: List[Dict[str, object]] = [
    {"client": 1, "suite": "ITC'99", "train_designs": 4, "train_placements": 462, "test_designs": 2, "test_placements": 230},
    {"client": 2, "suite": "ITC'99", "train_designs": 2, "train_placements": 231, "test_designs": 1, "test_placements": 114},
    {"client": 3, "suite": "ITC'99", "train_designs": 2, "train_placements": 231, "test_designs": 2, "test_placements": 232},
    {"client": 4, "suite": "ISCAS'89", "train_designs": 7, "train_placements": 812, "test_designs": 3, "test_placements": 348},
    {"client": 5, "suite": "ISCAS'89", "train_designs": 7, "train_placements": 812, "test_designs": 3, "test_placements": 348},
    {"client": 6, "suite": "ISCAS'89", "train_designs": 6, "train_placements": 697, "test_designs": 3, "test_placements": 348},
    {"client": 7, "suite": "IWLS'05", "train_designs": 6, "train_placements": 656, "test_designs": 3, "test_placements": 280},
    {"client": 8, "suite": "IWLS'05", "train_designs": 7, "train_placements": 742, "test_designs": 3, "test_placements": 329},
    {"client": 9, "suite": "ISPD'15", "train_designs": 9, "train_placements": 175, "test_designs": 4, "test_placements": 84},
]


def format_rows(rows: Sequence[EvaluationRow], title: Optional[str] = None) -> str:
    """Render evaluation rows as an aligned plain-text table."""
    if not rows:
        return "(no rows)"
    client_ids = sorted(rows[0].per_client_auc)
    headers = ["Method"] + [f"Client {cid}" for cid in client_ids] + ["Average"]
    lines: List[List[str]] = [headers]
    for row in rows:
        display = ROW_DISPLAY_NAMES.get(row.algorithm, row.algorithm)
        values = [f"{row.per_client_auc[cid]:.3f}" for cid in client_ids]
        lines.append([display] + values + [f"{row.average_auc:.3f}"])
    widths = [max(len(line[col]) for line in lines) for col in range(len(headers))]
    rendered = []
    if title:
        rendered.append(title)
    for index, line in enumerate(lines):
        rendered.append("  ".join(cell.ljust(widths[col]) for col, cell in enumerate(line)))
        if index == 0:
            rendered.append("  ".join("-" * widths[col] for col in range(len(headers))))
    return "\n".join(rendered)


def comparison_table(model: str, measured: Mapping[str, float]) -> str:
    """Side-by-side "paper vs. measured" average-AUC table for one model."""
    table = PAPER_TABLES[model.lower()]
    lines = [f"{'Method':<32} {'paper avg':>10} {'measured avg':>13}"]
    lines.append("-" * 58)
    for algorithm, values in table.items():
        if algorithm not in measured:
            continue
        display = ROW_DISPLAY_NAMES.get(algorithm, algorithm)
        lines.append(
            f"{display:<32} {values[-1]:>10.2f} {measured[algorithm]:>13.3f}"
        )
    return "\n".join(lines)
