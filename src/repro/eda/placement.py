"""Cluster-aware grid placement.

The placer stands in for Innovus' placement step.  It is not meant to
optimize wirelength aggressively; it is meant to produce *realistic-looking*
placements whose density, pin, and congestion structure depends on the
netlist's cluster structure, the target utilization, the aspect ratio, and a
seed — exactly the knobs the paper sweeps to get multiple placement solutions
per design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.eda.benchmarks import Design
from repro.eda.netlist import NetMembership, Netlist
from repro.eda.technology import Technology, nangate45
from repro.utils.rng import new_rng
from repro.utils.validation import check_positive, check_probability


@dataclass(frozen=True)
class PlacementConfig:
    """Knobs of a single placement run.

    Attributes
    ----------
    grid_width / grid_height:
        Size of the routability analysis grid (the ``w x h`` of the paper's
        feature and label maps).
    utilization:
        Target placement density (cell area / core area).
    aspect_ratio:
        Core width / height ratio.
    cluster_noise:
        Fraction of standard cells scattered uniformly instead of inside
        their cluster region; models placements of differing quality.
    seed:
        Random seed of the placement run.
    """

    grid_width: int = 32
    grid_height: int = 32
    utilization: float = 0.70
    aspect_ratio: float = 1.0
    cluster_noise: float = 0.15
    seed: int = 0

    def __post_init__(self):
        check_positive("grid_width", self.grid_width)
        check_positive("grid_height", self.grid_height)
        check_probability("utilization", self.utilization)
        if self.utilization < 0.05:
            raise ValueError("utilization below 5% produces degenerate placements")
        check_positive("aspect_ratio", self.aspect_ratio)
        check_probability("cluster_noise", self.cluster_noise)


@dataclass
class Placement:
    """A placement solution for one design.

    Cell geometry is stored as parallel NumPy arrays indexed consistently
    with ``cell_names`` so downstream map extraction is vectorized.
    """

    design: Design
    config: PlacementConfig
    technology: Technology
    cell_names: List[str]
    positions_um: np.ndarray  # (n_cells, 2) lower-left corners
    sizes_um: np.ndarray  # (n_cells, 2) widths and heights
    is_macro: np.ndarray  # (n_cells,) bool
    die_width_um: float
    die_height_um: float
    _name_to_index: Dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._name_to_index:
            self._name_to_index = {name: i for i, name in enumerate(self.cell_names)}

    @property
    def num_cells(self) -> int:
        return len(self.cell_names)

    @property
    def grid_shape(self) -> Tuple[int, int]:
        """(height, width) of the analysis grid."""
        return (self.config.grid_height, self.config.grid_width)

    @property
    def bin_width_um(self) -> float:
        return self.die_width_um / self.config.grid_width

    @property
    def bin_height_um(self) -> float:
        return self.die_height_um / self.config.grid_height

    def cell_index(self, name: str) -> int:
        return self._name_to_index[name]

    def netlist_rows(self) -> np.ndarray:
        """Row of every netlist cell in this placement's arrays, in netlist order.

        ``cell_names`` may be any permutation of the netlist's cells, so code
        indexing by :class:`~repro.eda.netlist.NetMembership` goes through this.
        """
        names = self.design.netlist.cell_names
        return np.fromiter(map(self._name_to_index.__getitem__, names), dtype=np.intp, count=len(names))

    def net_cell_rows(self) -> Tuple[np.ndarray, NetMembership]:
        """The netlist's membership table and its ``cells`` as rows of this placement's arrays."""
        table = self.design.netlist.net_membership()
        return self.netlist_rows()[table.cells], table

    def centers_um(self) -> np.ndarray:
        """Centers of all cells, shape (n_cells, 2)."""
        return self.positions_um + self.sizes_um / 2.0

    def utilization_achieved(self) -> float:
        """Placed cell area divided by core area."""
        cell_area = float(np.prod(self.sizes_um, axis=1).sum())
        return cell_area / (self.die_width_um * self.die_height_um)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Placement(design={self.design.name!r}, cells={self.num_cells}, "
            f"die={self.die_width_um:.1f}x{self.die_height_um:.1f}um, "
            f"grid={self.config.grid_width}x{self.config.grid_height})"
        )


def cell_sizes_um(netlist: Netlist, technology: Technology) -> np.ndarray:
    """``(n_cells, 2)`` widths and heights of the netlist's cells in microns."""
    return np.stack(
        [netlist.width_sites * technology.site_width_um, netlist.height_rows * technology.site_height_um],
        axis=1,
    )


class Placer:
    """Cluster-aware constructive placer."""

    def __init__(self, technology: Optional[Technology] = None):
        self.technology = technology if technology is not None else nangate45()

    def place(self, design: Design, config: PlacementConfig) -> Placement:
        """Produce a placement of ``design`` under ``config``."""
        rng = new_rng(config.seed)
        tech = self.technology
        netlist = design.netlist

        sizes = cell_sizes_um(netlist, tech)
        widths, heights = sizes[:, 0], sizes[:, 1]
        is_macro = netlist.is_macro.copy()

        total_area = float((widths * heights).sum())
        core_area = total_area / config.utilization
        die_width = float(np.sqrt(core_area * config.aspect_ratio))
        die_height = float(core_area / die_width)

        positions = np.zeros((netlist.num_cells, 2), dtype=np.float64)

        macro_indices = np.flatnonzero(is_macro)
        self._place_macros(positions, sizes, macro_indices, die_width, die_height, rng)

        std_indices = np.flatnonzero(~is_macro)
        self._place_standard_cells(
            positions,
            sizes,
            netlist.cluster,
            std_indices,
            die_width,
            die_height,
            config.cluster_noise,
            rng,
        )

        # Clip every cell inside the die outline.
        positions[:, 0] = np.clip(positions[:, 0], 0.0, np.maximum(die_width - sizes[:, 0], 0.0))
        positions[:, 1] = np.clip(positions[:, 1], 0.0, np.maximum(die_height - sizes[:, 1], 0.0))

        return Placement(
            design=design,
            config=config,
            technology=tech,
            cell_names=list(netlist.cell_names),
            positions_um=positions,
            sizes_um=sizes,
            is_macro=is_macro,
            die_width_um=die_width,
            die_height_um=die_height,
        )

    @staticmethod
    def _place_macros(
        positions: np.ndarray,
        sizes: np.ndarray,
        macro_indices: np.ndarray,
        die_width: float,
        die_height: float,
        rng: np.random.Generator,
    ) -> None:
        """Place macros near the die periphery (the usual floorplanning style)."""
        if macro_indices.size == 0:
            return
        # Candidate anchors: the four edges, walked in a deterministic order.
        anchors = [(0.05, 0.05), (0.75, 0.05), (0.05, 0.75), (0.75, 0.75), (0.40, 0.05), (0.05, 0.40)]
        for slot, index in enumerate(macro_indices):
            ax, ay = anchors[slot % len(anchors)]
            jitter = rng.uniform(-0.04, 0.04, size=2)
            x = (ax + jitter[0]) * die_width
            y = (ay + jitter[1]) * die_height
            positions[index, 0] = np.clip(x, 0.0, max(die_width - sizes[index, 0], 0.0))
            positions[index, 1] = np.clip(y, 0.0, max(die_height - sizes[index, 1], 0.0))

    @staticmethod
    def _place_standard_cells(
        positions: np.ndarray,
        sizes: np.ndarray,
        clusters: np.ndarray,
        std_indices: np.ndarray,
        die_width: float,
        die_height: float,
        cluster_noise: float,
        rng: np.random.Generator,
    ) -> None:
        """Assign each cluster a rectangular region and scatter its cells inside."""
        if std_indices.size == 0:
            return
        cluster_ids = np.unique(clusters[std_indices])
        cluster_area = {}
        for cid in cluster_ids:
            members = std_indices[clusters[std_indices] == cid]
            cluster_area[int(cid)] = float(np.prod(sizes[members], axis=1).sum())
        total_area = sum(cluster_area.values()) or 1.0

        # Strip layout: walk clusters in shuffled order, filling rows of the die.
        order = list(cluster_ids)
        rng.shuffle(order)
        rows = max(1, int(round(np.sqrt(len(order)))))
        row_height = die_height / rows
        cursor_x = 0.0
        row = 0
        regions = {}
        for cid in order:
            fraction = cluster_area[int(cid)] / total_area
            region_width = max(fraction * die_width * rows, 0.02 * die_width)
            if cursor_x + region_width > die_width * 1.0001:
                row = min(row + 1, rows - 1)
                cursor_x = 0.0
            regions[int(cid)] = (cursor_x, row * row_height, region_width, row_height)
            cursor_x += region_width

        for cid in cluster_ids:
            members = std_indices[clusters[std_indices] == cid]
            rx, ry, rw, rh = regions[int(cid)]
            n = members.size
            scatter = rng.random() < cluster_noise
            for local, index in enumerate(members):
                if scatter and rng.random() < cluster_noise:
                    x = rng.uniform(0.0, die_width)
                    y = rng.uniform(0.0, die_height)
                else:
                    x = rx + rng.beta(2.0, 2.0) * rw
                    y = ry + rng.beta(2.0, 2.0) * rh
                positions[index, 0] = x
                positions[index, 1] = y


def sweep_placements(
    design: Design,
    count: int,
    grid_width: int = 32,
    grid_height: int = 32,
    base_seed: int = 0,
    technology: Optional[Technology] = None,
) -> List[Placement]:
    """Generate ``count`` placement solutions of ``design`` with varied settings.

    Mirrors the paper's data generation, where each design is pushed through
    the flow under multiple logic-synthesis and physical-design settings.
    """
    check_positive("count", count)
    placer = Placer(technology)
    style = design.style
    u_lo, u_hi = style.utilization_range
    rng = new_rng(np.random.SeedSequence([design.seed, base_seed, 0xF10]))
    placements = []
    for index in range(count):
        config = PlacementConfig(
            grid_width=grid_width,
            grid_height=grid_height,
            utilization=float(rng.uniform(u_lo, u_hi)),
            aspect_ratio=float(rng.uniform(0.8, 1.25)),
            cluster_noise=float(rng.uniform(0.05, 0.30)),
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        placements.append(placer.place(design, config))
    return placements
