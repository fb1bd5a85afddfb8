"""Tests for the cluster-aware placer."""

import numpy as np
import pytest

from repro.eda.benchmarks import generate_design
from repro.eda.placement import PlacementConfig, Placer, sweep_placements


@pytest.fixture(scope="module")
def design():
    return generate_design("iscas89", "placer_design", seed=21, cell_count=350)


@pytest.fixture(scope="module")
def macro_design():
    return generate_design("ispd15", "placer_macro_design", seed=22, cell_count=1900)


class TestPlacementConfig:
    def test_defaults_valid(self):
        PlacementConfig()

    def test_rejects_bad_utilization(self):
        with pytest.raises(ValueError):
            PlacementConfig(utilization=1.5)
        with pytest.raises(ValueError):
            PlacementConfig(utilization=0.01)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            PlacementConfig(grid_width=0)


class TestPlacer:
    def test_all_cells_inside_die(self, design):
        placement = Placer().place(design, PlacementConfig(seed=1))
        upper = placement.positions_um + placement.sizes_um
        assert np.all(placement.positions_um >= -1e-9)
        assert np.all(upper[:, 0] <= placement.die_width_um + 1e-6)
        assert np.all(upper[:, 1] <= placement.die_height_um + 1e-6)

    def test_utilization_close_to_target(self, design):
        config = PlacementConfig(utilization=0.7, seed=2)
        placement = Placer().place(design, config)
        assert placement.utilization_achieved() == pytest.approx(0.7, rel=0.05)

    def test_aspect_ratio_respected(self, design):
        config = PlacementConfig(aspect_ratio=2.0, seed=3)
        placement = Placer().place(design, config)
        assert placement.die_width_um / placement.die_height_um == pytest.approx(2.0, rel=1e-6)

    def test_deterministic_given_seed(self, design):
        config = PlacementConfig(seed=4)
        a = Placer().place(design, config)
        b = Placer().place(design, config)
        np.testing.assert_allclose(a.positions_um, b.positions_um)

    def test_different_seeds_move_cells(self, design):
        a = Placer().place(design, PlacementConfig(seed=5))
        b = Placer().place(design, PlacementConfig(seed=6))
        assert not np.allclose(a.positions_um, b.positions_um)

    def test_macros_are_placed(self, macro_design):
        placement = Placer().place(macro_design, PlacementConfig(utilization=0.55, seed=7))
        assert placement.is_macro.sum() == macro_design.netlist.num_macros
        macro_positions = placement.positions_um[placement.is_macro]
        assert np.all(np.isfinite(macro_positions))

    def test_grid_and_bin_geometry(self, design):
        config = PlacementConfig(grid_width=20, grid_height=10, seed=1)
        placement = Placer().place(design, config)
        assert placement.grid_shape == (10, 20)
        assert placement.bin_width_um * 20 == pytest.approx(placement.die_width_um)
        assert placement.bin_height_um * 10 == pytest.approx(placement.die_height_um)

    def test_cell_lookup(self, design):
        placement = Placer().place(design, PlacementConfig(seed=1))
        name = placement.cell_names[0]
        index = placement.cell_index(name)
        assert index == 0
        cx, cy = placement.centers_um()[index]
        assert 0 <= cx <= placement.die_width_um
        assert 0 <= cy <= placement.die_height_um


class TestSweepPlacements:
    def test_count_and_variety(self, design):
        placements = sweep_placements(design, count=4, grid_width=16, grid_height=16, base_seed=0)
        assert len(placements) == 4
        utilizations = {round(p.config.utilization, 4) for p in placements}
        assert len(utilizations) > 1

    def test_utilization_within_suite_range(self, design):
        placements = sweep_placements(design, count=5, base_seed=1)
        lo, hi = design.style.utilization_range
        for placement in placements:
            assert lo <= placement.config.utilization <= hi

    def test_deterministic(self, design):
        a = sweep_placements(design, count=2, base_seed=3)
        b = sweep_placements(design, count=2, base_seed=3)
        np.testing.assert_allclose(a[0].positions_um, b[0].positions_um)
        assert a[1].config.seed == b[1].config.seed

    def test_invalid_count(self, design):
        with pytest.raises(ValueError):
            sweep_placements(design, count=0)
