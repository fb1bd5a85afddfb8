"""Tests for grid map extraction, the congestion model, and DRC labeling."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eda import maps as map_ext
from repro.eda.drc import DrcHotspotLabeler
from repro.eda.routing import CongestionModelConfig, estimate_congestion


class TestCellDensityMap:
    def test_shape_matches_grid(self, small_placement):
        density = map_ext.cell_density_map(small_placement)
        assert density.shape == small_placement.grid_shape

    def test_non_negative(self, small_placement):
        assert np.all(map_ext.cell_density_map(small_placement) >= 0)

    def test_total_area_is_conserved(self, small_placement):
        """Sum of per-bin density x bin area equals total standard-cell area."""
        density = map_ext.cell_density_map(small_placement)
        bin_area = small_placement.bin_width_um * small_placement.bin_height_um
        mask = ~small_placement.is_macro
        total_cell_area = float(np.prod(small_placement.sizes_um[mask], axis=1).sum())
        assert density.sum() * bin_area == pytest.approx(total_cell_area, rel=1e-6)

    def test_mean_density_tracks_utilization(self, small_placement):
        density = map_ext.cell_density_map(small_placement)
        assert density.mean() == pytest.approx(small_placement.config.utilization, rel=0.1)


class TestCellCenterBins:
    def test_each_cell_lands_in_the_bin_holding_its_center(self, small_placement):
        rows, cols = map_ext.cell_center_bins(small_placement)
        centers = small_placement.centers_um()
        grid_h, grid_w = small_placement.grid_shape
        assert rows.shape == cols.shape == (small_placement.num_cells,)
        assert np.all((rows >= 0) & (rows < grid_h) & (cols >= 0) & (cols < grid_w))
        assert np.all(rows * small_placement.bin_height_um <= centers[:, 1])
        assert np.all(centers[:, 1] < (rows + 1) * small_placement.bin_height_um)
        assert np.all(cols * small_placement.bin_width_um <= centers[:, 0])
        assert np.all(centers[:, 0] < (cols + 1) * small_placement.bin_width_um)

    def test_centers_off_the_die_clamp_onto_border_bins(self, small_placement):
        positions = small_placement.positions_um.copy()
        positions[0] = (-50.0, -50.0)
        positions[1] = (small_placement.die_width_um, small_placement.die_height_um)
        moved = dataclasses.replace(small_placement, positions_um=positions)
        rows, cols = map_ext.cell_center_bins(moved)
        grid_h, grid_w = moved.grid_shape
        assert (rows[0], cols[0]) == (0, 0)
        assert (rows[1], cols[1]) == (grid_h - 1, grid_w - 1)


class TestMacroAndPinMaps:
    def test_macro_map_zero_without_macros(self, small_placement):
        assert np.all(map_ext.macro_map(small_placement) == 0)

    def test_macro_map_nonzero_with_macros(self, macro_placement):
        macro = map_ext.macro_map(macro_placement)
        assert macro.max() > 0.5
        assert np.all((macro >= 0) & (macro <= 1))

    def test_pin_density_total_equals_pin_count(self, small_placement):
        pins = map_ext.pin_density_map(small_placement)
        assert pins.sum() == pytest.approx(small_placement.design.netlist.num_pins)

    def test_pin_density_non_negative(self, small_placement):
        assert np.all(map_ext.pin_density_map(small_placement) >= 0)


class TestRudyAndFlylines:
    def test_rudy_keys_and_shapes(self, small_placement):
        maps = map_ext.all_maps(small_placement)
        rudy = {key: values for key, values in maps.items() if key.startswith("rudy")}
        assert set(rudy) == {"rudy", "rudy_horizontal", "rudy_vertical"}
        for values in rudy.values():
            assert values.shape == small_placement.grid_shape
            assert np.all(values >= 0)

    def test_combined_rudy_is_sum_of_directions(self, small_placement):
        maps = map_ext.all_maps(small_placement)
        np.testing.assert_allclose(
            maps["rudy"], maps["rudy_horizontal"] + maps["rudy_vertical"], rtol=1e-9
        )

    def test_flyline_counts_bounded_by_net_count(self, small_placement):
        flylines = map_ext.all_maps(small_placement)["flylines"]
        boxes, _ = map_ext.net_bounding_boxes(small_placement)
        assert flylines.max() <= boxes.shape[0]
        assert flylines.min() >= 0

    def test_net_bounding_boxes_ordered(self, small_placement):
        boxes, names = map_ext.net_bounding_boxes(small_placement)
        assert boxes.shape[0] == len(names)
        assert np.all(boxes[:, 2] >= boxes[:, 0])
        assert np.all(boxes[:, 3] >= boxes[:, 1])

    def test_all_maps_bundle(self, small_placement):
        bundle = map_ext.all_maps(small_placement)
        expected = {"cell_density", "macro", "pin_density", "flylines", "rudy", "rudy_horizontal", "rudy_vertical"}
        assert expected == set(bundle)


class TestRectBinOverlapProperty:
    @given(
        rects=st.lists(
            st.tuples(
                st.floats(0.0, 80.0),
                st.floats(0.0, 80.0),
                st.floats(0.5, 20.0),
                st.floats(0.5, 20.0),
                st.floats(0.1, 5.0),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_weight_conservation(self, rects, small_placement):
        """Each rectangle's weight is fully distributed over the grid when it fits inside the die."""
        die_w = small_placement.die_width_um
        die_h = small_placement.die_height_um
        x0 = np.array([min(r[0], die_w * 0.5) for r in rects])
        y0 = np.array([min(r[1], die_h * 0.5) for r in rects])
        x1 = np.minimum(x0 + np.array([r[2] for r in rects]), die_w)
        y1 = np.minimum(y0 + np.array([r[3] for r in rects]), die_h)
        weights = np.array([r[4] for r in rects])
        result = map_ext._rect_bin_overlap(small_placement, x0, y0, x1, y1, weights)
        assert result.sum() == pytest.approx(weights.sum(), rel=1e-6)


class TestCongestionModel:
    def test_outputs_and_shapes(self, small_placement, analysis_maps):
        congestion = estimate_congestion(small_placement, precomputed_maps=analysis_maps)
        assert set(congestion) == {
            "congestion_horizontal",
            "congestion_vertical",
            "congestion",
            "overflow",
        }
        for values in congestion.values():
            assert values.shape == small_placement.grid_shape
            assert np.all(values >= 0)

    def test_congestion_is_max_of_directions(self, small_placement, analysis_maps):
        congestion = estimate_congestion(small_placement, precomputed_maps=analysis_maps)
        np.testing.assert_allclose(
            congestion["congestion"],
            np.maximum(congestion["congestion_horizontal"], congestion["congestion_vertical"]),
        )

    def test_overflow_only_above_capacity(self, small_placement, analysis_maps):
        congestion = estimate_congestion(small_placement, precomputed_maps=analysis_maps)
        overflow = congestion["overflow"]
        assert np.all(overflow[congestion["congestion"] <= 1.0] == 0)

    def test_macro_blockage_increases_congestion(self, macro_placement):
        blocked = estimate_congestion(
            macro_placement, CongestionModelConfig(macro_blockage_factor=0.9)
        )
        unblocked = estimate_congestion(
            macro_placement, CongestionModelConfig(macro_blockage_factor=0.0)
        )
        assert blocked["congestion"].mean() >= unblocked["congestion"].mean()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CongestionModelConfig(demand_scale=0)
        with pytest.raises(ValueError):
            CongestionModelConfig(macro_blockage_factor=1.5)


class TestDrcLabeler:
    def test_label_shapes_and_binary(self, small_placement):
        result = DrcHotspotLabeler().label(small_placement)
        score, hotspots = result.score, result.hotspots
        assert score.shape == small_placement.grid_shape
        assert hotspots.shape == small_placement.grid_shape
        assert set(np.unique(hotspots)).issubset({0.0, 1.0})

    def test_hotspot_fraction_near_quantile(self, small_placement):
        result = DrcHotspotLabeler().label(small_placement)
        expected = 1.0 - small_placement.design.style.drc.hotspot_quantile
        assert result.hotspot_fraction == pytest.approx(expected, abs=0.08)

    def test_always_both_classes_present(self, small_placement):
        result = DrcHotspotLabeler().label(small_placement)
        assert 0 < int(result.hotspots.sum()) < result.hotspots.size

    def test_deterministic_given_seed(self, small_placement):
        a = DrcHotspotLabeler(label_seed=3).label(small_placement)
        b = DrcHotspotLabeler(label_seed=3).label(small_placement)
        np.testing.assert_allclose(a.hotspots, b.hotspots)

    def test_noise_seed_changes_labels(self, small_placement):
        """With a large noise sigma, different label seeds flip some hotspot bins."""
        from repro.eda.benchmarks import DrcSensitivity

        noisy = DrcSensitivity(noise_sigma=1.0)
        a = DrcHotspotLabeler(label_seed=3).label(small_placement, sensitivity=noisy)
        b = DrcHotspotLabeler(label_seed=4).label(small_placement, sensitivity=noisy)
        assert not np.array_equal(a.hotspots, b.hotspots)

    def test_hotspots_correlate_with_score(self, small_placement):
        result = DrcHotspotLabeler().label(small_placement)
        hot_mean = result.score[result.hotspots == 1].mean()
        cold_mean = result.score[result.hotspots == 0].mean()
        assert hot_mean > cold_mean

    def test_macro_design_hotspots_near_macros(self, macro_placement):
        """ISPD'15-style designs get blockage-related hotspots (macro_weight > 0)."""
        result = DrcHotspotLabeler().label(macro_placement)
        assert int(result.hotspots.sum()) > 0
