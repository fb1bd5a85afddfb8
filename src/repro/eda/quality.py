"""Placement and routing quality metrics.

The paper's data generation sweeps placement settings to obtain solutions of
varying quality; this module quantifies that quality the way a physical
design engineer would: half-perimeter wirelength, estimated Steiner
wirelength, density statistics over the analysis grid, pin statistics, and —
when a :class:`~repro.eda.global_router.RoutingResult` is available — routed
wirelength and overflow.  The reports feed the data-generation example, the
benchmark harness, and the corpus statistics in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List

import numpy as np

from repro.eda import maps as map_ext
from repro.eda.global_router import RoutingResult
from repro.eda.placement import Placement
from repro.eda.steiner import rsmt_length_estimate


def net_wirelengths(placement: Placement, steiner: bool = False) -> Dict[str, float]:
    """Per-net wirelength estimate (HPWL by default, RSMT estimate otherwise)."""
    if not steiner:
        boxes, names = map_ext.net_bounding_boxes(placement)
        spans = (boxes[:, 2] - boxes[:, 0]) + (boxes[:, 3] - boxes[:, 1])
        return dict(zip(names, spans.tolist()))
    rows, table = placement.net_cell_rows()
    points = placement.centers_um()[rows]
    return {name: float(rsmt_length_estimate(points[start:stop])) for name, start, stop in table.spans()}


def total_steiner_wirelength(placement: Placement) -> float:
    """Total estimated rectilinear Steiner wirelength in microns."""
    return float(sum(net_wirelengths(placement, steiner=True).values()))


@dataclass(frozen=True)
class PlacementQualityReport:
    """Quality summary of one placement solution.

    All densities refer to the analysis grid used for feature extraction, so
    the report is directly comparable with what the routability estimator
    sees.
    """

    design: str
    num_cells: int
    num_nets: int
    num_macros: int
    die_width_um: float
    die_height_um: float
    utilization: float
    total_hpwl_um: float
    total_steiner_um: float
    mean_net_hpwl_um: float
    max_net_hpwl_um: float
    max_cell_density: float
    mean_cell_density: float
    density_std: float
    max_pin_density: float
    mean_pin_density: float
    macro_coverage: float

    def to_dict(self) -> Dict[str, float]:
        """Plain-dictionary view (used for CSV/JSON persistence)."""
        return dict(asdict(self))


def placement_quality(placement: Placement) -> PlacementQualityReport:
    """Compute the :class:`PlacementQualityReport` for one placement."""
    lengths = net_wirelengths(placement, steiner=False)
    steiner_total = total_steiner_wirelength(placement)
    values = np.asarray(list(lengths.values()), dtype=np.float64)
    density = map_ext.cell_density_map(placement)
    pins = map_ext.pin_density_map(placement)
    macro = map_ext.macro_map(placement)
    netlist = placement.design.netlist
    return PlacementQualityReport(
        design=placement.design.name,
        num_cells=netlist.num_cells,
        num_nets=netlist.num_nets,
        num_macros=netlist.num_macros,
        die_width_um=float(placement.die_width_um),
        die_height_um=float(placement.die_height_um),
        utilization=float(placement.utilization_achieved()),
        total_hpwl_um=float(values.sum()) if values.size else 0.0,
        total_steiner_um=float(steiner_total),
        mean_net_hpwl_um=float(values.mean()) if values.size else 0.0,
        max_net_hpwl_um=float(values.max()) if values.size else 0.0,
        max_cell_density=float(density.max()),
        mean_cell_density=float(density.mean()),
        density_std=float(density.std()),
        max_pin_density=float(pins.max()),
        mean_pin_density=float(pins.mean()),
        macro_coverage=float(macro.mean()),
    )


@dataclass(frozen=True)
class RoutingQualityReport:
    """Quality summary of one global-routing solution."""

    design: str
    nets_routed: int
    wirelength_bins: int
    wirelength_um: float
    bends: int
    overflow_total: float
    overflow_edges: int
    max_congestion: float
    mean_congestion: float
    congested_bin_fraction: float
    ripup_iterations: int

    def to_dict(self) -> Dict[str, float]:
        return dict(asdict(self))


def routing_quality(result: RoutingResult, congestion_threshold: float = 0.9) -> RoutingQualityReport:
    """Summarize a :class:`~repro.eda.global_router.RoutingResult`.

    ``congestion_threshold`` defines what counts as a congested bin for the
    ``congested_bin_fraction`` statistic (0.9 means bins at 90%+ of capacity).
    """
    if not 0.0 < congestion_threshold <= 2.0:
        raise ValueError("congestion_threshold must be in (0, 2]")
    maps = result.congestion_maps()
    congestion = maps["congestion"]
    return RoutingQualityReport(
        design=result.placement.design.name,
        nets_routed=len(result.routes),
        wirelength_bins=result.total_wirelength_bins,
        wirelength_um=float(result.total_wirelength_um),
        bends=result.total_bends,
        overflow_total=float(result.total_overflow),
        overflow_edges=result.num_overflow_edges,
        max_congestion=float(congestion.max()) if congestion.size else 0.0,
        mean_congestion=float(congestion.mean()) if congestion.size else 0.0,
        congested_bin_fraction=float((congestion >= congestion_threshold).mean()) if congestion.size else 0.0,
        ripup_iterations=result.iterations,
    )


def quality_table(reports: List[PlacementQualityReport]) -> str:
    """Render placement quality reports as an aligned text table."""
    if not reports:
        return "(no placements)"
    header = f"{'Design':<18} {'Cells':>7} {'Nets':>7} {'Util':>6} {'HPWL (um)':>12} {'MaxDens':>8} {'MaxPins':>8}"
    lines = [header, "-" * len(header)]
    for report in reports:
        lines.append(
            f"{report.design:<18} {report.num_cells:>7d} {report.num_nets:>7d} "
            f"{report.utilization:>6.2f} {report.total_hpwl_um:>12.1f} "
            f"{report.max_cell_density:>8.2f} {report.max_pin_density:>8.1f}"
        )
    return "\n".join(lines)
