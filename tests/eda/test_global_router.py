"""Tests for the capacity-aware global router and its routing grid."""

import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eda import maps as map_ext
from repro.eda.benchmarks import generate_design
from repro.eda.drc import DrcHotspotLabeler
from repro.eda.global_router import (
    GlobalRouter,
    GlobalRouterConfig,
    RoutingGrid,
    route_placement,
)
from repro.eda.placement import PlacementConfig, Placer


def load_eda_oracles():
    """``tests/eda/oracles.py`` by path: ``tests/nn`` owns the module name ``oracles``."""
    spec = importlib.util.spec_from_file_location("eda_oracles", Path(__file__).with_name("oracles.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


O = load_eda_oracles()


@pytest.fixture(scope="module")
def routed(small_placement):
    """One routed solution of the small fixture placement (shared, read-only)."""
    return route_placement(small_placement)


class TestGlobalRouterConfig:
    def test_defaults_valid(self):
        GlobalRouterConfig()

    def test_rejects_bad_blockage_factor(self):
        with pytest.raises(ValueError):
            GlobalRouterConfig(macro_blockage_factor=1.5)

    def test_rejects_negative_penalties(self):
        with pytest.raises(ValueError):
            GlobalRouterConfig(pin_access_cost=-0.1)
        with pytest.raises(ValueError):
            GlobalRouterConfig(bend_penalty=-1.0)
        with pytest.raises(ValueError):
            GlobalRouterConfig(history_increment=-0.5)

    def test_rejects_nonpositive_overflow_penalty(self):
        with pytest.raises(ValueError):
            GlobalRouterConfig(overflow_penalty=0.0)

    def test_rejects_negative_iterations(self):
        with pytest.raises(ValueError):
            GlobalRouterConfig(max_ripup_iterations=-1)


class TestRoutingGrid:
    def test_capacity_shapes(self, small_placement):
        grid = RoutingGrid(small_placement)
        height, width = small_placement.grid_shape
        assert grid.capacity_h.shape == (height, width - 1)
        assert grid.capacity_v.shape == (height - 1, width)

    def test_capacities_positive(self, small_placement):
        grid = RoutingGrid(small_placement)
        assert np.all(grid.capacity_h > 0)
        assert np.all(grid.capacity_v > 0)

    def test_macro_blockage_reduces_capacity(self, macro_placement):
        blocked = RoutingGrid(macro_placement, GlobalRouterConfig(macro_blockage_factor=0.9))
        free = RoutingGrid(macro_placement, GlobalRouterConfig(macro_blockage_factor=0.0))
        assert blocked.capacity_h.sum() < free.capacity_h.sum()
        assert blocked.capacity_v.sum() < free.capacity_v.sum()

    def test_views_share_the_flat_arrays(self, small_placement):
        grid = RoutingGrid(small_placement)
        height, width = small_placement.grid_shape
        assert grid.capacity.shape == (height * (width - 1) + (height - 1) * width,)
        for name in ("capacity", "usage", "history"):
            flat = getattr(grid, name)
            assert np.shares_memory(getattr(grid, f"{name}_h"), flat)
            assert np.shares_memory(getattr(grid, f"{name}_v"), flat)
        grid.usage[grid.edge_id((2, 3), (2, 4))] = 5.0
        grid.usage[grid.edge_id((2, 3), (3, 3))] = 7.0
        assert grid.usage_h[2, 3] == 5.0
        assert grid.usage_v[2, 3] == 7.0

    def test_usage_round_trip(self, small_placement):
        grid = RoutingGrid(small_placement)
        edge = grid.edge_id((0, 0), (0, 1))
        assert grid.usage[edge] == 0.0
        grid.occupy([edge, edge])
        assert grid.usage[edge] == 2.0
        grid.release([edge])
        assert grid.usage[edge] == 1.0
        assert grid.usage.sum() == 1.0

    def test_release_stops_at_zero(self, small_placement):
        grid = RoutingGrid(small_placement)
        edge = grid.edge_id((1, 1), (2, 1))
        grid.occupy([edge])
        grid.release([edge, edge])
        assert grid.usage[edge] == 0.0
        assert not np.any(grid.usage < 0.0)

    def test_edge_id_is_canonical(self, small_placement):
        grid = RoutingGrid(small_placement)
        height, width = small_placement.grid_shape
        assert grid.edge_id((1, 2), (1, 1)) == grid.edge_id((1, 1), (1, 2)) == 1 * (width - 1) + 1
        assert grid.edge_id((1, 0), (0, 0)) == grid.edge_id((0, 0), (1, 0)) == height * (width - 1)

    def test_edge_id_rejects_non_adjacent(self, small_placement):
        grid = RoutingGrid(small_placement)
        for a, b in [((0, 0), (0, 2)), ((0, 0), (1, 1)), ((2, 2), (2, 2))]:
            with pytest.raises(ValueError):
                grid.edge_id(a, b)

    def test_cost_increases_with_overflow(self, small_placement):
        grid = RoutingGrid(small_placement)
        edge = grid.edge_id((3, 3), (3, 4))
        base_cost = grid.edge_costs()[edge]
        grid.occupy([edge] * (int(grid.capacity[edge]) + 5))
        assert grid.edge_costs()[edge] > base_cost

    def test_history_bump_counts_overflowed_edges(self, small_placement):
        grid = RoutingGrid(small_placement)
        edge = grid.edge_id((2, 2), (2, 3))
        grid.occupy([edge] * (int(grid.capacity[edge]) + 3))
        assert grid.bump_history() == 1
        assert grid.history[edge] == grid.config.history_increment
        assert np.count_nonzero(grid.history) == 1
        grid.release([edge] * (int(grid.capacity[edge]) + 3))
        assert grid.edge_costs()[edge] > 1.0

    def test_no_overflow_initially(self, small_placement):
        grid = RoutingGrid(small_placement)
        assert not np.any(grid.usage > grid.capacity)
        assert grid.total_overflow() == 0.0

    def test_total_overflow_sums_excess_of_both_directions(self, small_placement):
        grid = RoutingGrid(small_placement)
        horizontal = grid.edge_id((4, 4), (4, 5))
        vertical = grid.edge_id((6, 2), (7, 2))
        grid.usage[horizontal] = grid.capacity[horizontal] + 2.0
        grid.usage[vertical] = grid.capacity[vertical] + 3.5
        grid.usage[grid.edge_id((0, 0), (0, 1))] = grid.capacity[grid.edge_id((0, 0), (0, 1))]
        assert grid.total_overflow() == pytest.approx(5.5)
        assert grid.bump_history() == 2

    def test_adjacency_order_right_left_down_up(self, small_placement):
        grid = RoutingGrid(small_placement)
        height, width = small_placement.grid_shape

        def neighbours(r, c):
            return [divmod(node, width) for node, _ in grid.adjacency[r * width + c]]

        assert neighbours(0, 0) == [(0, 1), (1, 0)]
        assert neighbours(height - 1, width - 1) == [(height - 1, width - 2), (height - 2, width - 1)]
        assert neighbours(3, 3) == [(3, 4), (3, 2), (4, 3), (2, 3)]
        for node, pairs in enumerate(grid.adjacency):
            for neighbour, edge in pairs:
                assert edge == grid.edge_id(divmod(node, width), divmod(neighbour, width))

    def test_bin_utilization_keys_and_shapes(self, small_placement):
        grid = RoutingGrid(small_placement)
        maps = grid.bin_utilization()
        for key in ("congestion_horizontal", "congestion_vertical", "congestion", "overflow"):
            assert maps[key].shape == small_placement.grid_shape
            assert np.all(maps[key] >= 0)


class TestPathPrimitives:
    def test_straight_path_horizontal(self):
        path = GlobalRouter._straight_path((2, 1), (2, 4))
        assert path == [(2, 1), (2, 2), (2, 3), (2, 4)]

    def test_straight_path_vertical(self):
        path = GlobalRouter._straight_path((4, 2), (1, 2))
        assert path == [(4, 2), (3, 2), (2, 2), (1, 2)]

    def test_l_shapes_are_two_distinct_paths(self):
        router = GlobalRouter()
        paths = router._l_shape_paths((0, 0), (3, 3))
        assert len(paths) == 2
        assert paths[0] != paths[1]
        for path in paths:
            assert path[0] == (0, 0)
            assert path[-1] == (3, 3)
            assert len(path) == 7  # Manhattan distance 6 => 7 nodes.

    def test_l_shape_degenerates_for_aligned_pins(self):
        router = GlobalRouter()
        paths = router._l_shape_paths((1, 0), (1, 5))
        assert len(paths) == 1

    def test_maze_route_connects_endpoints(self, small_placement):
        grid = RoutingGrid(small_placement)
        path = GlobalRouter._maze_route((0, 0), (5, 7), grid, grid.edge_costs())
        assert path[0] == (0, 0)
        assert path[-1] == (5, 7)
        for a, b in zip(path[:-1], path[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    @given(
        st.tuples(st.integers(0, 15), st.integers(0, 15)),
        st.tuples(st.integers(0, 15), st.integers(0, 15)),
    )
    @settings(max_examples=40, deadline=None)
    def test_straight_and_l_paths_have_manhattan_length(self, source, target):
        router = GlobalRouter()
        manhattan = abs(source[0] - target[0]) + abs(source[1] - target[1])
        for path in router._l_shape_paths(source, target):
            assert len(path) == manhattan + 1
            for a, b in zip(path[:-1], path[1:]):
                assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


class TestRoutingResult:
    def test_routes_every_multi_bin_net(self, small_placement, routed):
        pin_bins = GlobalRouter._net_pin_bins(small_placement)
        assert set(routed.routes) == set(pin_bins)

    def test_segments_connect_pin_bins(self, routed):
        for route in routed.routes.values():
            covered = set()
            for path in route.segments:
                covered.update(path)
            for pin_bin in route.pin_bins:
                assert pin_bin in covered

    def test_segments_are_adjacent_walks(self, routed):
        for route in routed.routes.values():
            for path in route.segments:
                for a, b in zip(path[:-1], path[1:]):
                    assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    def test_usage_matches_route_edges(self, routed):
        """Grid usage equals the number of route edges crossing each cut."""
        grid = routed.grid
        used = [edge for route in routed.routes.values() for edge in route.edges]
        np.testing.assert_array_equal(grid.usage, np.bincount(used, minlength=grid.usage.size))
        for route in routed.routes.values():
            walked = [grid.edge_id(a, b) for path in route.segments for a, b in zip(path[:-1], path[1:])]
            assert route.edges == walked

    def test_wirelength_positive(self, routed):
        assert routed.total_wirelength_bins > 0
        assert routed.total_wirelength_um > 0

    def test_congestion_maps_compatible_keys(self, routed, small_placement):
        maps = routed.congestion_maps()
        reference = map_ext.all_maps(small_placement)
        assert set(maps) == {"congestion_horizontal", "congestion_vertical", "congestion", "overflow"}
        assert maps["congestion"].shape == reference["cell_density"].shape

    def test_summary_fields(self, routed):
        summary = routed.summary()
        assert summary["nets_routed"] == len(routed.routes)
        assert summary["wirelength_bins"] == routed.total_wirelength_bins
        assert summary["overflow_total"] >= 0.0

    def test_negotiation_does_not_increase_overflow(self, routed):
        assert routed.total_overflow <= routed.initial_overflow + 1e-9

    def test_deterministic(self, small_placement):
        again = route_placement(small_placement)
        first = route_placement(small_placement)
        assert first.total_wirelength_bins == again.total_wirelength_bins
        assert first.total_overflow == pytest.approx(again.total_overflow)

    def test_congestion_correlates_with_labeler_score(self, small_placement, routed):
        """The labeler's model score and the routed congestion flag similar regions."""
        score = DrcHotspotLabeler(label_seed=3).label(small_placement).score
        congestion = routed.congestion_maps()["congestion"]
        assert congestion.shape == score.shape
        assert np.corrcoef(score.ravel(), congestion.ravel())[0, 1] > 0.3

    @pytest.mark.parametrize("shape", [(1, 7), (7, 1)], ids=["one_row", "one_column"])
    def test_single_row_or_column_grid_routes(self, shape):
        height, width = shape
        result = route_placement(_oracle_placement(height, width))
        grid = result.grid
        assert grid.capacity_h.shape == (height, width - 1)
        assert grid.capacity_v.shape == (height - 1, width)
        assert result.routes
        for route in result.routes.values():
            for path in route.segments:
                assert all(0 <= r < height and 0 <= c < width for r, c in path)
        used = [edge for route in result.routes.values() for edge in route.edges]
        np.testing.assert_array_equal(grid.usage, np.bincount(used, minlength=grid.usage.size))
        assert result.congestion_maps()["congestion"].shape == shape


@functools.lru_cache(maxsize=None)
def _oracle_placement(height, width):
    design = generate_design("iscas89", "oracle_grid", seed=2, cell_count=40)
    return Placer().place(design, PlacementConfig(grid_width=width, grid_height=height, seed=0))


class TestSearchMatchesOracle:
    """The flat-id search equals the tuple Dijkstra and scalar costs of ``oracles.py``, bit for bit."""

    @given(
        shape=st.sampled_from([(1, 1), (1, 6), (6, 1), (1, 8), (8, 1)])
        | st.tuples(st.integers(1, 8), st.integers(1, 8)),
        seed=st.integers(0, 2**32 - 1),
        uniform=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_maze_route_and_path_cost_match_oracle(self, shape, seed, uniform, data):
        height, width = shape
        grid = RoutingGrid(_oracle_placement(height, width))
        rng = np.random.default_rng(seed)
        if not uniform:
            # Uniform grids (every cost 1.0) pin the heap's tie order; random
            # ones pin the float bits of every cost and sum.
            size = grid.capacity.size
            grid.capacity[:] = rng.uniform(1.0, 6.0, size)
            grid.usage[:] = np.where(rng.random(size) < 0.5, rng.integers(0, 8, size), rng.uniform(0.0, 8.0, size))
            grid.history[:] = rng.uniform(0.0, 3.0, size) * (rng.random(size) < 0.6)
        cell = st.tuples(st.integers(0, height - 1), st.integers(0, width - 1))
        source, target = data.draw(cell), data.draw(cell)
        router = GlobalRouter()
        costs = grid.edge_costs()

        path = router._maze_route(source, target, grid, costs)
        assert path == O.maze_route_oracle(grid, source, target)
        for candidate in [path] + router._l_shape_paths(source, target):
            cost, overflows = router._path_cost(candidate, grid, costs)
            expected_cost, expected_overflows = O.path_cost_oracle(grid, candidate)
            assert cost.hex() == expected_cost.hex()
            assert overflows == expected_overflows
        for a, b in zip(path[:-1], path[1:]):
            assert costs[grid.edge_id(a, b)].hex() == O.edge_cost_oracle(grid, a, b).hex()
