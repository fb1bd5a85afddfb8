"""Synthetic physical-design substrate.

Replaces the paper's commercial Design Compiler / Innovus / NanGate45 flow
with a synthetic but structurally faithful pipeline:

netlist generation (per benchmark-suite style) -> placement -> grid map
extraction -> global-routing congestion -> DRC hotspot labeling.
"""

from repro.eda.benchmarks import (
    SUITES,
    Design,
    DrcSensitivity,
    generate_design,
    suite_names,
)
from repro.eda.drc import DrcHotspotLabeler
from repro.eda.global_router import GlobalRouterConfig, RoutingResult, route_placement
from repro.eda.io import (
    apply_positions,
    read_bookshelf_pl,
    read_design,
    read_placement_def,
    write_bookshelf_pl,
    write_design,
    write_placement_def,
)
from repro.eda.legalizer import legalize_placement, perturb_placement
from repro.eda.maps import (
    all_maps,
    cell_density_map,
    macro_map,
    net_bounding_boxes,
    pin_density_map,
)
from repro.eda.netlist import Netlist
from repro.eda.placement import Placement, PlacementConfig, Placer, sweep_placements
from repro.eda.quality import placement_quality, quality_table, routing_quality
from repro.eda.routing import CongestionModelConfig, estimate_congestion
from repro.eda.steiner import decompose_to_two_pin, rsmt_length_estimate
from repro.eda.technology import Technology, nangate45

__all__ = [
    "Netlist",
    "Technology",
    "nangate45",
    "DrcSensitivity",
    "SUITES",
    "Design",
    "generate_design",
    "suite_names",
    "PlacementConfig",
    "Placement",
    "Placer",
    "sweep_placements",
    "cell_density_map",
    "macro_map",
    "pin_density_map",
    "net_bounding_boxes",
    "all_maps",
    "CongestionModelConfig",
    "estimate_congestion",
    "DrcHotspotLabeler",
    "GlobalRouterConfig",
    "RoutingResult",
    "route_placement",
    "decompose_to_two_pin",
    "rsmt_length_estimate",
    "placement_quality",
    "routing_quality",
    "quality_table",
    "write_design",
    "read_design",
    "write_placement_def",
    "read_placement_def",
    "write_bookshelf_pl",
    "read_bookshelf_pl",
    "apply_positions",
    "legalize_placement",
    "perturb_placement",
]
