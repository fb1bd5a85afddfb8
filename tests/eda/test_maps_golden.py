"""Frozen bytes of the corpus path: designs, net boxes and analysis maps.

``maps_golden.json`` beside this file was written by the per-net /
per-rectangle loop implementation of ``repro.eda.maps`` (the commit before the
scatter rewrite) with ``python tests/eda/test_maps_golden.py --write``.  Every
cached corpus and every digest in ``bench/AA.md`` hangs off these bytes, so a
change that moves one of them must re-baseline the corpus cache key and the
digests in the same PR — never this file alone.
"""

import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eda import maps as map_ext
from repro.eda.benchmarks import SUITES, generate_design
from repro.eda.placement import Placement, sweep_placements

GOLDEN_PATH = Path(__file__).with_name("maps_golden.json")
SEEDS = (0, 1)
GRIDS = (16, 32)
CASES = [(suite, seed) for suite in SUITES for seed in SEEDS]


def _digest(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    shape = "x".join(str(n) for n in array.shape)
    return f"{array.dtype}:{shape}:{hashlib.sha256(array.tobytes()).hexdigest()}"


def _text_digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def case_digests(suite: str, seed: int) -> dict:
    """Digests of one generated design and of two placements of it per grid."""
    design = generate_design(suite, f"golden_{suite}_{seed}", seed)
    netlist = design.netlist
    cells = list(
        zip(
            netlist.cell_names,
            netlist.width_sites.tolist(),
            netlist.height_rows.tolist(),
            netlist.is_macro.tolist(),
            netlist.is_sequential.tolist(),
            netlist.cluster.tolist(),
        )
    )
    pins = [
        (netlist.cell_names[cell], pin, "output" if output else "input")
        for cell, pin, output in zip(netlist.pin_cells.tolist(), netlist.pin_names, netlist.pin_is_output.tolist())
    ]
    bounds = netlist.pin_offsets.tolist()
    nets = [(net, pins[start:stop]) for net, start, stop in zip(netlist.net_names, bounds[:-1], bounds[1:])]
    record = {"cells": _text_digest(cells), "nets": _text_digest(nets)}
    for grid in GRIDS:
        for index, placement in enumerate(sweep_placements(design, 2, grid, grid, base_seed=seed)):
            boxes, names = map_ext.net_bounding_boxes(placement)
            entry = {"boxes": _digest(boxes), "box_names": _text_digest(names)}
            entry.update({key: _digest(value) for key, value in map_ext.all_maps(placement).items()})
            record[f"grid{grid}/placement{index}"] = entry
    return record


@pytest.mark.parametrize("suite,seed", CASES)
def test_design_boxes_and_maps_match_golden(suite, seed):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert case_digests(suite, seed) == golden[f"{suite}/{seed}"]


def _loop_overlap(placement, x0, y0, x1, y1, weights):
    """The per-rectangle accumulator ``_rect_bin_overlap_multi`` replaced; kept as its oracle."""
    grid_h, grid_w = placement.grid_shape
    bin_w, bin_h = placement.bin_width_um, placement.bin_height_um
    weights = weights[:, None] if weights.ndim == 1 else weights
    result = np.zeros((weights.shape[1], grid_h, grid_w), dtype=np.float64)
    col_edges = np.arange(grid_w + 1) * bin_w
    row_edges = np.arange(grid_h + 1) * bin_h
    for i in range(x0.size):
        area = max(x1[i] - x0[i], 1e-9) * max(y1[i] - y0[i], 1e-9)
        col_lo = int(np.clip(np.floor(x0[i] / bin_w), 0, grid_w - 1))
        col_hi = int(np.clip(np.floor((x1[i] - 1e-9) / bin_w), 0, grid_w - 1))
        row_lo = int(np.clip(np.floor(y0[i] / bin_h), 0, grid_h - 1))
        row_hi = int(np.clip(np.floor((y1[i] - 1e-9) / bin_h), 0, grid_h - 1))
        cols = np.arange(col_lo, col_hi + 1)
        rows = np.arange(row_lo, row_hi + 1)
        overlap_x = np.minimum(x1[i], col_edges[cols + 1]) - np.maximum(x0[i], col_edges[cols])
        overlap_y = np.minimum(y1[i], row_edges[rows + 1]) - np.maximum(y0[i], row_edges[rows])
        fractions = np.outer(np.clip(overlap_y, 0.0, None), np.clip(overlap_x, 0.0, None)) / area
        result[:, row_lo : row_hi + 1, col_lo : col_hi + 1] += weights[i][:, None, None] * fractions
    return result


def _coordinate(die: float, bin_size: float):
    """Anywhere from half a die before the origin to half a die past the far edge, or exactly on a bin edge."""
    return st.one_of(
        st.floats(-0.5, 1.5).map(lambda f: f * die),
        st.integers(-3, 19).map(lambda k: k * bin_size),
    )


def _extent(die: float, bin_size: float):
    return st.one_of(
        st.just(0.0),
        st.floats(0.0, 1.2).map(lambda f: f * die),
        st.integers(0, 16).map(lambda k: k * bin_size),
    )


class TestRectBinOverlapMatchesLoop:
    @pytest.mark.parametrize("block_entries", [map_ext._BLOCK_ENTRIES, 7])
    @pytest.mark.parametrize("n_maps", [1, 3])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_bytes_equal_oracle(self, data, n_maps, block_entries, small_placement):
        """Zero-area, overhanging, outside and bin-aligned rectangles; ``n = 0``; several blocks."""
        die_w, die_h = small_placement.die_width_um, small_placement.die_height_um
        bin_w, bin_h = small_placement.bin_width_um, small_placement.bin_height_um
        rects = data.draw(
            st.lists(
                st.tuples(
                    _coordinate(die_w, bin_w),
                    _coordinate(die_h, bin_h),
                    _extent(die_w, bin_w),
                    _extent(die_h, bin_h),
                    st.tuples(*[st.floats(0.0, 50.0)] * n_maps),
                ),
                max_size=12,
            )
        )
        x0 = np.array([r[0] for r in rects], dtype=np.float64)
        y0 = np.array([r[1] for r in rects], dtype=np.float64)
        x1 = x0 + np.array([r[2] for r in rects], dtype=np.float64)
        y1 = y0 + np.array([r[3] for r in rects], dtype=np.float64)
        weights = np.array([r[4] for r in rects], dtype=np.float64).reshape(len(rects), n_maps)
        if n_maps == 1:
            weights = weights[:, 0]
        with mock.patch.object(map_ext, "_BLOCK_ENTRIES", block_entries):
            got = map_ext._rect_bin_overlap_multi(small_placement, x0, y0, x1, y1, weights)
        want = _loop_overlap(small_placement, x0, y0, x1, y1, weights)
        assert got.shape == want.shape == (n_maps,) + small_placement.grid_shape
        assert got.tobytes() == want.tobytes()

    def test_real_nets_cross_block_boundaries(self, macro_placement):
        """A whole design's RUDY rectangles, split into many blocks, still add up in rectangle order."""
        want = map_ext.all_maps(macro_placement)
        with mock.patch.object(map_ext, "_BLOCK_ENTRIES", 1000):
            got = map_ext.all_maps(macro_placement)
        for key in want:
            assert got[key].tobytes() == want[key].tobytes()


def test_shuffled_cell_order_gives_the_same_maps(macro_placement):
    """``Placement.cell_names`` need not follow the netlist's order."""
    p = macro_placement
    perm = np.random.default_rng(0).permutation(p.num_cells)
    shuffled = Placement(
        design=p.design,
        config=p.config,
        technology=p.technology,
        cell_names=[p.cell_names[i] for i in perm],
        positions_um=p.positions_um[perm],
        sizes_um=p.sizes_um[perm],
        is_macro=p.is_macro[perm],
        die_width_um=p.die_width_um,
        die_height_um=p.die_height_um,
    )
    want, got = map_ext.all_maps(p), map_ext.all_maps(shuffled)
    assert list(got) == list(want)
    for key in want:
        if key in ("cell_density", "macro"):
            # Cell rectangles are accumulated in the placement's own row
            # order, so shuffling it reorders the float additions.
            np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=1e-15)
        else:
            assert got[key].tobytes() == want[key].tobytes(), key
    assert map_ext.net_bounding_boxes(shuffled)[0].tobytes() == map_ext.net_bounding_boxes(p)[0].tobytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/eda/test_maps_golden.py --write")
    table = {f"{suite}/{seed}": case_digests(suite, seed) for suite, seed in CASES}
    GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(table)} designs)")
