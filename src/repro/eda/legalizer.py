"""Row-based legalization and placement perturbation.

The constructive placer scatters standard cells inside cluster regions, which
is fine for grid-level routability analysis but leaves cells off the site
rows and occasionally overlapping.  This module provides the two remaining
pieces of a realistic placement stage:

* a **Tetris-style legalizer** that snaps every standard cell onto site rows
  and packs each row left-to-right without overlaps (macros stay fixed and
  their rows are blocked), reporting the displacement it introduced;
* a **perturbation operator** that produces placement variants from an
  existing solution — the knob the data-generation flow uses to mimic the
  different optimization efforts / ECO iterations behind the paper's multiple
  placement solutions per design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.eda.placement import Placement
from repro.utils.rng import new_rng


@dataclass(frozen=True)
class LegalizationReport:
    """What the legalizer did to a placement.

    Attributes
    ----------
    num_moved:
        Number of standard cells whose position changed.
    total_displacement_um / max_displacement_um / mean_displacement_um:
        Manhattan displacement statistics over all standard cells.
    overlap_area_before_um2 / overlap_area_after_um2:
        Total pairwise overlap area among standard cells before and after
        legalization (computed on the analysis grid, so it is an estimate).
    """

    num_moved: int
    total_displacement_um: float
    max_displacement_um: float
    mean_displacement_um: float
    overlap_area_before_um2: float
    overlap_area_after_um2: float


def _overlap_estimate(placement: Placement, positions: np.ndarray) -> float:
    """Exact total pairwise overlap area among standard cells (um^2)."""
    mask = ~placement.is_macro
    indices = np.flatnonzero(mask)
    if indices.size < 2:
        return 0.0
    x0 = positions[indices, 0]
    y0 = positions[indices, 1]
    x1 = x0 + placement.sizes_um[indices, 0]
    y1 = y0 + placement.sizes_um[indices, 1]
    # Pairwise rectangle intersection via broadcasting; the upper triangle
    # counts each unordered pair once.
    inter_w = np.minimum(x1[:, None], x1[None, :]) - np.maximum(x0[:, None], x0[None, :])
    inter_h = np.minimum(y1[:, None], y1[None, :]) - np.maximum(y0[:, None], y0[None, :])
    overlap = np.clip(inter_w, 0.0, None) * np.clip(inter_h, 0.0, None)
    upper = np.triu(overlap, k=1)
    return float(upper.sum())


class Legalizer:
    """Tetris-style row legalizer for standard cells."""

    def legalize(self, placement: Placement) -> Tuple[Placement, LegalizationReport]:
        """Legalize ``placement``; returns the legal placement and a report.

        Rows are the technology's sites, one site height apart.  Macros are
        treated as fixed blockages: standard cells are packed into the free
        intervals of each row around them.
        """
        row_height = placement.technology.site_height_um
        die_w = placement.die_width_um
        die_h = placement.die_height_um
        num_rows = max(int(die_h // row_height), 1)

        positions = placement.positions_um.copy()
        sizes = placement.sizes_um
        std_indices = np.flatnonzero(~placement.is_macro)
        overlap_before = _overlap_estimate(placement, placement.positions_um)

        # Free intervals per row (macros carve out blocked spans).
        intervals = self._row_intervals(placement, num_rows, row_height, die_w)
        # Cursor per (row, interval): next free x position.
        cursors: List[List[float]] = [[start for start, _ in row] for row in intervals]

        # Greedy Tetris: process cells bottom-left to top-right for stability.
        order = std_indices[np.lexsort((positions[std_indices, 0], positions[std_indices, 1]))]
        displacement = np.zeros(placement.num_cells, dtype=np.float64)
        for index in order:
            width = sizes[index, 0]
            target_row = int(np.clip(positions[index, 1] // row_height, 0, num_rows - 1))
            best: Optional[Tuple[float, int, int, float]] = None  # (cost, row, interval, x)
            for row_offset in range(num_rows):
                for direction in (-1, 1) if row_offset else (1,):
                    row = target_row + direction * row_offset
                    if not 0 <= row < num_rows:
                        continue
                    placed = self._try_row(row, index, width, positions, intervals, cursors, row_height)
                    if placed is None:
                        continue
                    cost, interval_index, x = placed
                    if best is None or cost < best[0]:
                        best = (cost, row, interval_index, x)
                # Stop widening the row search once a fit was found close by.
                if best is not None and row_offset >= 2:
                    break
            if best is None:
                # Die is over-full around this cell; leave it where it is.
                continue
            _, row, interval_index, x = best
            new_x = x
            new_y = row * row_height
            displacement[index] = abs(new_x - positions[index, 0]) + abs(new_y - positions[index, 1])
            positions[index] = (new_x, new_y)
            cursors[row][interval_index] = new_x + width

        legal = Placement(
            design=placement.design,
            config=placement.config,
            technology=placement.technology,
            cell_names=list(placement.cell_names),
            positions_um=positions,
            sizes_um=placement.sizes_um.copy(),
            is_macro=placement.is_macro.copy(),
            die_width_um=die_w,
            die_height_um=die_h,
        )
        moved = displacement[std_indices] > 1e-9
        std_disp = displacement[std_indices]
        report = LegalizationReport(
            num_moved=int(moved.sum()),
            total_displacement_um=float(std_disp.sum()),
            max_displacement_um=float(std_disp.max()) if std_disp.size else 0.0,
            mean_displacement_um=float(std_disp.mean()) if std_disp.size else 0.0,
            overlap_area_before_um2=overlap_before,
            overlap_area_after_um2=_overlap_estimate(legal, positions),
        )
        return legal, report

    @staticmethod
    def _row_intervals(
        placement: Placement,
        num_rows: int,
        row_height: float,
        die_width: float,
    ) -> List[List[Tuple[float, float]]]:
        """Free [start, end) x-intervals of every row after macro blockages."""
        blocked: List[List[Tuple[float, float]]] = [[] for _ in range(num_rows)]
        for index in np.flatnonzero(placement.is_macro):
            x, y = placement.positions_um[index]
            w, h = placement.sizes_um[index]
            row_lo = int(np.clip(y // row_height, 0, num_rows - 1))
            row_hi = int(np.clip((y + h - 1e-9) // row_height, 0, num_rows - 1))
            for row in range(row_lo, row_hi + 1):
                blocked[row].append((max(x, 0.0), min(x + w, die_width)))

        intervals: List[List[Tuple[float, float]]] = []
        for row in range(num_rows):
            spans = sorted(blocked[row])
            free: List[Tuple[float, float]] = []
            cursor = 0.0
            for start, end in spans:
                if start > cursor:
                    free.append((cursor, start))
                cursor = max(cursor, end)
            if cursor < die_width:
                free.append((cursor, die_width))
            if not free:
                free.append((0.0, 0.0))
            intervals.append(free)
        return intervals

    @staticmethod
    def _try_row(
        row: int,
        index: int,
        width: float,
        positions: np.ndarray,
        intervals: List[List[Tuple[float, float]]],
        cursors: List[List[float]],
        row_height: float,
    ) -> Optional[Tuple[float, int, float]]:
        """Cheapest legal x in ``row`` for the cell, or ``None`` if it cannot fit."""
        best: Optional[Tuple[float, int, float]] = None
        for interval_index, (start, end) in enumerate(intervals[row]):
            x = max(cursors[row][interval_index], start)
            if x + width > end + 1e-9:
                continue
            cost = abs(x - positions[index, 0]) + abs(row * row_height - positions[index, 1])
            if best is None or cost < best[0]:
                best = (cost, interval_index, x)
        return best


def legalize_placement(placement: Placement) -> Tuple[Placement, LegalizationReport]:
    """Convenience wrapper around :class:`Legalizer`."""
    return Legalizer().legalize(placement)


def perturb_placement(
    placement: Placement,
    magnitude: float = 0.05,
    fraction: float = 0.3,
    seed: int = 0,
    legalize: bool = False,
) -> Placement:
    """A placement variant obtained by randomly displacing some cells.

    Parameters
    ----------
    magnitude:
        Displacement scale as a fraction of the die dimensions (0.05 moves
        cells by up to ~5% of the die per axis).
    fraction:
        Fraction of standard cells that get displaced.
    seed:
        Randomness of which cells move and by how much.
    legalize:
        When ``True`` the perturbed placement is run through the legalizer
        before being returned.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    if magnitude < 0:
        raise ValueError("magnitude must be non-negative")
    rng = new_rng(np.random.SeedSequence([seed, placement.config.seed & 0x7FFFFFFF, 0xBEEF]))
    positions = placement.positions_um.copy()
    std_indices = np.flatnonzero(~placement.is_macro)
    if std_indices.size and fraction > 0 and magnitude > 0:
        count = max(int(round(fraction * std_indices.size)), 1)
        chosen = rng.choice(std_indices, size=count, replace=False)
        deltas = rng.uniform(-1.0, 1.0, size=(count, 2))
        deltas[:, 0] *= magnitude * placement.die_width_um
        deltas[:, 1] *= magnitude * placement.die_height_um
        positions[chosen] += deltas
        positions[:, 0] = np.clip(positions[:, 0], 0.0, np.maximum(placement.die_width_um - placement.sizes_um[:, 0], 0.0))
        positions[:, 1] = np.clip(positions[:, 1], 0.0, np.maximum(placement.die_height_um - placement.sizes_um[:, 1], 0.0))

    variant = Placement(
        design=placement.design,
        config=placement.config,
        technology=placement.technology,
        cell_names=list(placement.cell_names),
        positions_um=positions,
        sizes_um=placement.sizes_um.copy(),
        is_macro=placement.is_macro.copy(),
        die_width_um=placement.die_width_um,
        die_height_um=placement.die_height_um,
    )
    if legalize:
        variant, _ = legalize_placement(variant)
    return variant
