"""Synthetic benchmark-suite netlist generators.

The paper builds its corpus from four public benchmark suites (ISCAS'89,
ITC'99, IWLS'05, ISPD'15) pushed through a commercial logic-synthesis and
place-and-route flow.  Neither the designs' synthesized netlists nor the
commercial flow are available here, so this module generates synthetic
netlists whose *statistics* differ per suite the way the real suites differ:

* ISCAS'89-style designs are small, shallow, and flip-flop heavy;
* ITC'99-style designs are mid-size RT-level blocks with more logic per
  register and slightly higher fanout;
* IWLS'05-style designs (Faraday / OpenCores) are larger IP blocks with
  wider fanout distributions;
* ISPD'15-style designs are the largest, contain macros, and are placed at
  lower utilization with routing blockages.

Those systematic differences are what create the client-level data
heterogeneity that the paper's federated-learning experiments hinge on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.eda.netlist import Netlist
from repro.utils.rng import new_rng
from repro.utils.validation import check_positive, check_probability


@dataclass(frozen=True)
class DrcSensitivity:
    """Suite-specific coefficients of the rule-based DRC hotspot model.

    Different suites stress the router differently (e.g. macro-heavy ISPD'15
    designs generate blockage-related violations; dense sequential ISCAS'89
    designs generate pin-access violations).  These coefficients encode that
    bias and are the main source of label heterogeneity across clients.
    """

    congestion_weight: float = 1.0
    density_weight: float = 0.6
    pin_weight: float = 0.5
    interaction_weight: float = 0.8
    macro_weight: float = 0.0
    noise_sigma: float = 0.06
    hotspot_quantile: float = 0.88
    smoothing_sigma: float = 1.0

    def __post_init__(self):
        check_probability("hotspot_quantile", self.hotspot_quantile)
        check_positive("smoothing_sigma", self.smoothing_sigma)


@dataclass(frozen=True)
class SuiteStyle:
    """Parameters controlling the synthetic netlist generator for one suite."""

    name: str
    display_name: str
    cell_count_range: Tuple[int, int]
    avg_fanout: float
    locality: float
    sequential_fraction: float
    wide_cell_fraction: float
    cluster_size: int
    macro_count_range: Tuple[int, int] = (0, 0)
    global_net_count: int = 2
    utilization_range: Tuple[float, float] = (0.6, 0.8)
    drc: DrcSensitivity = field(default_factory=DrcSensitivity)

    def __post_init__(self):
        lo, hi = self.cell_count_range
        check_positive("cell_count_range low", lo)
        if hi < lo:
            raise ValueError("cell_count_range must be (low, high) with high >= low")
        check_positive("avg_fanout", self.avg_fanout)
        check_probability("locality", self.locality)
        check_probability("sequential_fraction", self.sequential_fraction)
        check_probability("wide_cell_fraction", self.wide_cell_fraction)
        check_positive("cluster_size", self.cluster_size)
        u_lo, u_hi = self.utilization_range
        check_probability("utilization low", u_lo)
        check_probability("utilization high", u_hi)


#: Registry of the four benchmark-suite styles used by the paper's 9 clients.
SUITES: Dict[str, SuiteStyle] = {
    "iscas89": SuiteStyle(
        name="iscas89",
        display_name="ISCAS'89",
        cell_count_range=(250, 900),
        avg_fanout=2.4,
        locality=0.82,
        sequential_fraction=0.28,
        wide_cell_fraction=0.10,
        cluster_size=60,
        utilization_range=(0.70, 0.85),
        drc=DrcSensitivity(
            congestion_weight=0.9,
            density_weight=0.9,
            pin_weight=0.8,
            interaction_weight=0.7,
            macro_weight=0.0,
            noise_sigma=0.07,
            hotspot_quantile=0.88,
            smoothing_sigma=0.9,
        ),
    ),
    "itc99": SuiteStyle(
        name="itc99",
        display_name="ITC'99",
        cell_count_range=(600, 2200),
        avg_fanout=2.9,
        locality=0.75,
        sequential_fraction=0.18,
        wide_cell_fraction=0.15,
        cluster_size=90,
        utilization_range=(0.65, 0.80),
        drc=DrcSensitivity(
            congestion_weight=1.1,
            density_weight=0.6,
            pin_weight=0.5,
            interaction_weight=0.9,
            macro_weight=0.0,
            noise_sigma=0.06,
            hotspot_quantile=0.87,
            smoothing_sigma=1.1,
        ),
    ),
    "iwls05": SuiteStyle(
        name="iwls05",
        display_name="IWLS'05",
        cell_count_range=(900, 3200),
        avg_fanout=3.4,
        locality=0.68,
        sequential_fraction=0.15,
        wide_cell_fraction=0.20,
        cluster_size=120,
        utilization_range=(0.60, 0.78),
        drc=DrcSensitivity(
            congestion_weight=1.2,
            density_weight=0.5,
            pin_weight=0.6,
            interaction_weight=1.0,
            macro_weight=0.2,
            noise_sigma=0.06,
            hotspot_quantile=0.86,
            smoothing_sigma=1.3,
        ),
    ),
    "ispd15": SuiteStyle(
        name="ispd15",
        display_name="ISPD'15",
        cell_count_range=(1800, 4500),
        avg_fanout=3.8,
        locality=0.60,
        sequential_fraction=0.12,
        wide_cell_fraction=0.22,
        cluster_size=160,
        macro_count_range=(3, 8),
        global_net_count=4,
        utilization_range=(0.50, 0.70),
        drc=DrcSensitivity(
            congestion_weight=1.0,
            density_weight=0.4,
            pin_weight=0.4,
            interaction_weight=1.1,
            macro_weight=1.0,
            noise_sigma=0.05,
            hotspot_quantile=0.85,
            smoothing_sigma=1.5,
        ),
    ),
}


@dataclass
class Design:
    """A synthesized design: a netlist plus the suite it was drawn from."""

    name: str
    suite: str
    netlist: Netlist
    seed: int

    @property
    def style(self) -> SuiteStyle:
        return SUITES[self.suite]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Design(name={self.name!r}, suite={self.suite!r}, cells={self.netlist.num_cells})"


def _sample_fanout(rng: np.random.Generator, avg_fanout: float, max_fanout: int = 12) -> int:
    """Draw a net sink count from a shifted geometric distribution."""
    mean_extra = max(avg_fanout - 1.0, 0.1)
    p = 1.0 / (1.0 + mean_extra)
    fanout = 1 + rng.geometric(p)
    return int(min(fanout, max_fanout))


def generate_design(
    suite: str,
    name: str,
    seed: int,
    cell_count: Optional[int] = None,
) -> Design:
    """Generate one synthetic design in the style of ``suite``.

    Parameters
    ----------
    suite:
        One of the keys of :data:`SUITES`.
    name:
        Design name (must be unique within a corpus).
    seed:
        Seed controlling every random choice of the generator.
    cell_count:
        Optional explicit cell count; drawn from the suite's range otherwise.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {sorted(SUITES)}")
    style = SUITES[suite]
    rng = new_rng(seed)

    lo, hi = style.cell_count_range
    n_cells = int(cell_count) if cell_count is not None else int(rng.integers(lo, hi + 1))
    check_positive("cell_count", n_cells)

    n_clusters = max(1, n_cells // style.cluster_size)
    # Cluster sizes are intentionally uneven (Dirichlet weights) so designs
    # have both dense hot regions and sparse regions.
    cluster_weights = rng.dirichlet(np.full(n_clusters, 2.0))
    cluster_of_cell = rng.choice(n_clusters, size=n_cells, p=cluster_weights)

    n_macros = 0
    if style.macro_count_range[1] > 0:
        n_macros = int(rng.integers(style.macro_count_range[0], style.macro_count_range[1] + 1))
    macro_indices = set(rng.choice(n_cells, size=n_macros, replace=False).tolist()) if n_macros else set()

    widths = [1] * n_cells
    heights = [1] * n_cells
    is_sequential = [False] * n_cells
    for index in range(n_cells):
        if index in macro_indices:
            widths[index] = int(rng.integers(10, 25))
            heights[index] = int(rng.integers(4, 9))
        else:
            is_sequential[index] = bool(rng.random() < style.sequential_fraction)
            if rng.random() < style.wide_cell_fraction:
                widths[index] = int(rng.integers(2, 5))

    clusters = cluster_of_cell.tolist()
    cluster_members: Dict[int, List[int]] = {c: [] for c in range(n_clusters)}
    for index, cluster in enumerate(clusters):
        cluster_members[cluster].append(index)

    # The pin table is built as flat lists; every net's first pin is its driver "o".
    net_names: List[str] = []
    pin_offsets = [0]
    pin_cells: List[int] = []
    pin_names: List[str] = []

    def add_net(net: str, driver: int, sinks: Sequence[int], sink_pins: Sequence[str]) -> None:
        net_names.append(net)
        pin_cells.append(driver)
        pin_cells.extend(sinks)
        pin_names.append("o")
        pin_names.extend(sink_pins)
        pin_offsets.append(len(pin_cells))

    # Ordinary nets: each cell drives one net whose sinks are mostly local.
    for driver_index in range(n_cells):
        if rng.random() > 0.92:
            continue
        fanout = _sample_fanout(rng, style.avg_fanout)
        local = cluster_members[clusters[driver_index]]
        n_local = len(local)
        sinks: List[int] = []
        for _ in range(fanout):
            if n_local > 1 and rng.random() < style.locality:
                sink = local[int(rng.integers(0, n_local))]
            else:
                sink = int(rng.integers(0, n_cells))
            if sink != driver_index:
                sinks.append(sink)
        if sinks:
            distinct = list(dict.fromkeys(sinks))
            add_net(f"n{len(net_names)}", driver_index, distinct, [f"i{k}" for k in range(len(distinct))])

    # Global nets (clock / reset style): span many clusters with high fanout.
    # A sink pin is named after its draw, so a drawn driver leaves a gap.
    sequential_indices = [i for i, sequential in enumerate(is_sequential) if sequential]
    for g in range(style.global_net_count):
        if len(sequential_indices) < 4:
            break
        driver_index = int(rng.integers(0, n_cells))
        n_sinks = min(len(sequential_indices), int(rng.integers(8, 40)))
        sink_indices = rng.choice(sequential_indices, size=n_sinks, replace=False).tolist()
        kept = [(s, pin) for s, pin in zip(sink_indices, (f"g{k}" for k in range(n_sinks))) if s != driver_index]
        if kept:
            add_net(f"gn{g}", driver_index, *zip(*kept))

    pin_is_output = np.zeros(len(pin_cells), dtype=bool)
    pin_is_output[pin_offsets[:-1]] = True
    netlist = Netlist(
        name,
        cell_names=[f"u{index}" for index in range(n_cells)],
        width_sites=widths,
        height_rows=heights,
        is_macro=[index in macro_indices for index in range(n_cells)],
        is_sequential=is_sequential,
        cluster=cluster_of_cell,
        net_names=net_names,
        pin_offsets=pin_offsets,
        pin_cells=pin_cells,
        pin_names=pin_names,
        pin_is_output=pin_is_output,
    )
    netlist.validate()
    return Design(name=name, suite=suite, netlist=netlist, seed=int(seed))


def suite_names() -> Sequence[str]:
    """Names of the available benchmark-suite styles."""
    return tuple(SUITES)
