"""Grid-map extraction from placements.

All routability analysis in the paper happens on a ``w x h`` grid over the
die.  This module rasterizes a :class:`~repro.eda.placement.Placement` into
the per-bin maps that both the feature extractor and the DRC labeler consume:
cell density, pin density, macro coverage, RUDY (and its horizontal /
vertical split), and net fly-line crossings.

Every map is an array pass over the placement's parallel arrays and the
netlist's cached :class:`~repro.eda.netlist.NetMembership` table — no
per-net, per-cell or per-rectangle Python loop.  The float maps (cell density,
macro, RUDY) add each bin's contributions **in rectangle order onto the
running result**; the corpus bytes, every cached corpus and the benchmark
digests depend on that order (see ``docs/performance.md``, "Corpus build").
The counting maps (pins, fly lines) sum integers and are exact in any order.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.eda.placement import Placement

#: Most ``(rectangle, row, col)`` entries expanded at once by
#: :func:`_rect_bin_overlap_multi`; bounds its temporaries on huge designs.
_BLOCK_ENTRIES = 1 << 18


def _clip_fraction(value: np.ndarray) -> np.ndarray:
    return np.clip(value, 0.0, 1.0)


def _bin_index(coords: np.ndarray, bin_size: float, n_bins: int) -> np.ndarray:
    """Grid index of each coordinate, clamped onto the grid."""
    return np.clip(coords // bin_size, 0, n_bins - 1).astype(np.intp)


def cell_center_bins(placement: Placement) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)`` of the bin holding each cell's center (where its pins sit)."""
    grid_h, grid_w = placement.grid_shape
    centers = placement.centers_um()
    return (
        _bin_index(centers[:, 1], placement.bin_height_um, grid_h),
        _bin_index(centers[:, 0], placement.bin_width_um, grid_w),
    )


def _rect_bin_overlap_multi(
    placement: Placement,
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Accumulate weighted rectangle coverage onto the analysis grid.

    Each rectangle ``i`` spreads ``weights[i]`` over the bins it overlaps,
    proportionally to the overlap area divided by the rectangle area (so the
    total contribution of a rectangle equals its weight).  ``weights`` may be
    ``(n,)`` for a single output map or ``(n, k)`` to accumulate ``k`` maps in
    one pass (used by RUDY, which needs combined / horizontal / vertical maps
    of the same rectangles).

    Rectangles are expanded rectangle-major into ``(rectangle, row, col)``
    entries, at most :data:`_BLOCK_ENTRIES` at a time, and ``np.add.at`` adds
    each block onto the running result one entry after another, so every bin
    receives its contributions in rectangle order — the sum a per-rectangle
    ``result[rows, cols] += ...`` loop produces, bit for bit.  Summing
    per-block partial maps instead would reorder the additions.

    Returns ``(k, H, W)`` (``k == 1`` for 1-D weights).
    """
    grid_h, grid_w = placement.grid_shape
    bin_w = placement.bin_width_um
    bin_h = placement.bin_height_um
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim == 1:
        weights = weights[:, None]
    n_maps = weights.shape[1]
    result = np.zeros((n_maps, grid_h, grid_w), dtype=np.float64)

    col_edges = np.arange(grid_w + 1) * bin_w
    row_edges = np.arange(grid_h + 1) * bin_h
    area = np.maximum(x1 - x0, 1e-9) * np.maximum(y1 - y0, 1e-9)
    col_lo = np.clip(np.floor(x0 / bin_w), 0, grid_w - 1).astype(np.intp)
    col_hi = np.clip(np.floor((x1 - 1e-9) / bin_w), 0, grid_w - 1).astype(np.intp)
    row_lo = np.clip(np.floor(y0 / bin_h), 0, grid_h - 1).astype(np.intp)
    row_hi = np.clip(np.floor((y1 - 1e-9) / bin_h), 0, grid_h - 1).astype(np.intp)
    n_cols = np.maximum(col_hi - col_lo + 1, 0)
    counts = np.maximum(row_hi - row_lo + 1, 0) * n_cols
    ends = np.cumsum(counts)
    starts = ends - counts

    flat = result.reshape(n_maps, grid_h * grid_w)
    first = 0
    while first < counts.size:
        # Whole rectangles up to the block size, and always at least one.
        last = max(int(np.searchsorted(ends, starts[first] + _BLOCK_ENTRIES, side="right")), first + 1)
        rect = np.repeat(np.arange(first, last), counts[first:last])
        rows, cols = np.divmod(np.arange(starts[first], ends[last - 1]) - starts[rect], n_cols[rect])
        rows += row_lo[rect]
        cols += col_lo[rect]
        overlap_x = np.minimum(x1[rect], col_edges[cols + 1]) - np.maximum(x0[rect], col_edges[cols])
        overlap_y = np.minimum(y1[rect], row_edges[rows + 1]) - np.maximum(y0[rect], row_edges[rows])
        fractions = (np.clip(overlap_y, 0.0, None) * np.clip(overlap_x, 0.0, None)) / area[rect]
        bins = rows * grid_w + cols
        for k in range(n_maps):
            np.add.at(flat[k], bins, weights[rect, k] * fractions)
        first = last
    return result


def _rect_bin_overlap(
    placement: Placement,
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Single-map variant of :func:`_rect_bin_overlap_multi`."""
    return _rect_bin_overlap_multi(placement, x0, y0, x1, y1, weights)[0]


def _cell_area_per_bin(placement: Placement, mask: np.ndarray) -> np.ndarray:
    """Area of the masked cells falling in each bin, as a fraction of the bin's area."""
    pos = placement.positions_um[mask]
    size = placement.sizes_um[mask]
    areas = size[:, 0] * size[:, 1]
    covered = _rect_bin_overlap(
        placement, pos[:, 0], pos[:, 1], pos[:, 0] + size[:, 0], pos[:, 1] + size[:, 1], areas
    )
    return covered / (placement.bin_width_um * placement.bin_height_um)


def cell_density_map(placement: Placement) -> np.ndarray:
    """Standard-cell area per bin, normalized by bin area (0 = empty, 1 = full)."""
    return _cell_area_per_bin(placement, ~placement.is_macro)


def macro_map(placement: Placement) -> np.ndarray:
    """Fraction of each bin covered by macros (acts as a routing blockage map)."""
    return _clip_fraction(_cell_area_per_bin(placement, placement.is_macro))


def pin_density_map(placement: Placement) -> np.ndarray:
    """Number of net pins per bin (pins are located at their cell's center)."""
    grid_h, grid_w = placement.grid_shape
    rows, cols = cell_center_bins(placement)
    cell_rows = placement.netlist_rows()
    pin_counts = placement.design.netlist.net_membership().pin_counts
    bins = rows[cell_rows] * grid_w + cols[cell_rows]
    counts = np.bincount(bins, weights=pin_counts, minlength=grid_h * grid_w)
    return counts.reshape(grid_h, grid_w)


def net_bounding_boxes(placement: Placement) -> Tuple[np.ndarray, List[str]]:
    """Bounding boxes (x0, y0, x1, y1) of every net with at least two pins."""
    rows, table = placement.net_cell_rows()
    points = placement.centers_um()[rows]
    lower = np.minimum.reduceat(points, table.offsets[:-1], axis=0)
    upper = np.maximum.reduceat(points, table.offsets[:-1], axis=0)
    return np.concatenate([lower, upper], axis=1), list(table.names)


def _rudy_maps(placement: Placement, boxes: np.ndarray) -> Dict[str, np.ndarray]:
    """RUDY wire-density maps.

    RUDY (Rectangular Uniform wire DensitY) spreads each net's estimated
    wirelength uniformly over its bounding box.  Returns the combined map and
    the horizontal / vertical splits used by the congestion model.
    """
    x0, y0, x1, y1 = boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3]
    # Degenerate (single-bin) boxes are widened to one bin so they still
    # contribute local demand.
    min_w = placement.bin_width_um
    min_h = placement.bin_height_um
    widths = np.maximum(x1 - x0, min_w)
    heights = np.maximum(y1 - y0, min_h)

    # The RUDY demand density of a net over its bounding box is
    # (w + h) / (w * h); the overlap accumulator spreads a total weight of
    # density * area = (w + h) over the box, so passing (w + h) as the weight
    # and dividing by bin area afterwards yields the per-bin demand density.
    weights = np.stack([widths + heights, widths, heights], axis=1)
    combined, horizontal, vertical = _rect_bin_overlap_multi(
        placement, x0, y0, x0 + widths, y0 + heights, weights
    )
    bin_area = placement.bin_width_um * placement.bin_height_um
    return {
        "rudy": combined / bin_area,
        "rudy_horizontal": horizontal / bin_area,
        "rudy_vertical": vertical / bin_area,
    }


def _flyline_map(placement: Placement, boxes: np.ndarray) -> np.ndarray:
    """Number of net bounding boxes covering each bin (fly-line crossing count)."""
    grid_h, grid_w = placement.grid_shape
    col_lo = _bin_index(boxes[:, 0], placement.bin_width_um, grid_w)
    col_hi = _bin_index(boxes[:, 2], placement.bin_width_um, grid_w) + 1
    row_lo = _bin_index(boxes[:, 1], placement.bin_height_um, grid_h)
    row_hi = _bin_index(boxes[:, 3], placement.bin_height_um, grid_h) + 1
    # 2-D difference array: +1 / -1 at the four corners of each box's bin
    # range, then a running sum along both axes covers the range.
    stride = grid_w + 1
    corners = np.concatenate(
        [row_lo * stride + col_lo, row_hi * stride + col_hi, row_lo * stride + col_hi, row_hi * stride + col_lo]
    )
    signs = np.repeat([1.0, 1.0, -1.0, -1.0], boxes.shape[0])
    delta = np.bincount(corners, weights=signs, minlength=(grid_h + 1) * stride)
    counts = delta.reshape(grid_h + 1, stride).cumsum(axis=0).cumsum(axis=1)
    return np.ascontiguousarray(counts[:grid_h, :grid_w])


def all_maps(placement: Placement) -> Dict[str, np.ndarray]:
    """Convenience bundle of every analysis map for one placement."""
    boxes, _ = net_bounding_boxes(placement)
    maps = {
        "cell_density": cell_density_map(placement),
        "macro": macro_map(placement),
        "pin_density": pin_density_map(placement),
        "flylines": _flyline_map(placement, boxes),
    }
    maps.update(_rudy_maps(placement, boxes))
    return maps
