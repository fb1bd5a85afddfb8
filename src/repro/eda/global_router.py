"""Capacity-aware grid global router with negotiated rip-up and reroute.

The probabilistic congestion model in :mod:`repro.eda.routing` is fast enough
for bulk dataset generation, but it never produces an actual routing
solution.  This module implements the real thing at global-routing
granularity: the die is divided into the same ``w x h`` analysis grid used
everywhere else (gcells), every net is decomposed into two-pin connections
over its pin gcells, and each connection is embedded into the routing-grid
graph under per-edge capacities derived from the technology's metal stack and
the macro blockage map.

Routing proceeds PathFinder-style:

1. an initial pass routes every connection with the cheaper of its two
   L-shaped patterns, falling back to congestion-aware maze routing (Dijkstra
   on the grid graph) when both patterns would overflow;
2. negotiated rip-up and reroute iterations then rip up every net crossing an
   over-capacity edge, raise those edges' history cost, and reroute the net
   with the maze router until no overflow remains or the iteration budget is
   exhausted.

The result exposes per-edge usage, bin-level congestion/overflow maps that
are drop-in compatible with :func:`repro.eda.routing.estimate_congestion`
(same dictionary keys), wirelength and via statistics, and the per-net
routes, so it can both label DRC hotspots and be inspected on its own.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.eda import maps as map_ext
from repro.eda.placement import Placement
from repro.eda.steiner import decompose_to_two_pin
from repro.eda.technology import Technology
from repro.utils.validation import check_positive

#: A gcell coordinate as (row, col).
GridNode = Tuple[int, int]
#: An undirected grid edge as a pair of gcell coordinates.
GridEdge = Tuple[GridNode, GridNode]


@dataclass(frozen=True)
class GlobalRouterConfig:
    """Tuning knobs of the global router.

    Attributes
    ----------
    macro_blockage_factor:
        Fraction of an edge's routing capacity removed per unit of macro
        coverage of its adjacent bins.
    pin_access_cost:
        Tracks consumed per pin in a bin (removed from adjacent edges).
    overflow_penalty:
        Multiplier applied to an edge's cost once its usage exceeds capacity;
        this is the "present congestion" term of negotiated routing.
    history_increment:
        History-cost increase applied to every over-capacity edge after each
        rip-up iteration (the "history" term of negotiated routing).
    bend_penalty:
        Extra cost per direction change, biasing maze routes towards
        straighter (cheaper to detail-route) shapes.
    max_ripup_iterations:
        Maximum number of negotiated rip-up and reroute passes.
    maze_fallback:
        Whether the initial pass may use maze routing when both L-shapes
        overflow; when ``False`` the cheaper L-shape is always taken.
    """

    macro_blockage_factor: float = 0.85
    pin_access_cost: float = 0.08
    overflow_penalty: float = 4.0
    history_increment: float = 0.5
    bend_penalty: float = 0.15
    max_ripup_iterations: int = 4
    maze_fallback: bool = True

    def __post_init__(self):
        if not 0.0 <= self.macro_blockage_factor <= 1.0:
            raise ValueError("macro_blockage_factor must be in [0, 1]")
        if self.pin_access_cost < 0:
            raise ValueError("pin_access_cost must be non-negative")
        check_positive("overflow_penalty", self.overflow_penalty)
        if self.history_increment < 0:
            raise ValueError("history_increment must be non-negative")
        if self.bend_penalty < 0:
            raise ValueError("bend_penalty must be non-negative")
        if self.max_ripup_iterations < 0:
            raise ValueError("max_ripup_iterations must be non-negative")


class RoutingGrid:
    """The routing-grid graph: per-edge capacity, usage, and history cost.

    Horizontal edges connect ``(r, c)`` to ``(r, c + 1)`` and are stored in
    arrays of shape ``(H, W - 1)``; vertical edges connect ``(r, c)`` to
    ``(r + 1, c)`` and are stored in arrays of shape ``(H - 1, W)``.
    """

    def __init__(
        self,
        placement: Placement,
        config: Optional[GlobalRouterConfig] = None,
        analysis_maps: Optional[Dict[str, np.ndarray]] = None,
    ):
        self.config = config if config is not None else GlobalRouterConfig()
        self.height, self.width = placement.grid_shape
        if self.height < 1 or self.width < 1:
            raise ValueError("routing grid needs at least one bin in each dimension")
        self.placement = placement

        analysis = analysis_maps if analysis_maps is not None else {}
        macro = analysis.get("macro")
        if macro is None:
            macro = map_ext.macro_map(placement)
        pin_density = analysis.get("pin_density")
        if pin_density is None:
            pin_density = map_ext.pin_density_map(placement)

        technology: Technology = placement.technology
        capacity_h = technology.horizontal_capacity(placement.bin_height_um)
        capacity_v = technology.vertical_capacity(placement.bin_width_um)

        blockage = self.config.macro_blockage_factor * macro
        pin_penalty = self.config.pin_access_cost * pin_density
        available_h = np.maximum(capacity_h * (1.0 - blockage) - pin_penalty, 1.0)
        available_v = np.maximum(capacity_v * (1.0 - blockage) - pin_penalty, 1.0)

        # An edge's capacity is limited by the tighter of its two bins.
        self.capacity_h = np.minimum(available_h[:, :-1], available_h[:, 1:])
        self.capacity_v = np.minimum(available_v[:-1, :], available_v[1:, :])
        self.usage_h = np.zeros_like(self.capacity_h)
        self.usage_v = np.zeros_like(self.capacity_v)
        self.history_h = np.zeros_like(self.capacity_h)
        self.history_v = np.zeros_like(self.capacity_v)

    # -- edge bookkeeping -----------------------------------------------------------
    @staticmethod
    def edge_between(a: GridNode, b: GridNode) -> GridEdge:
        """Canonical (sorted) form of the edge between two adjacent gcells."""
        return (a, b) if a <= b else (b, a)

    def _edge_arrays(self, edge: GridEdge) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Tuple[int, int]]:
        (r0, c0), (r1, c1) = edge
        if r0 == r1 and abs(c0 - c1) == 1:
            return self.capacity_h, self.usage_h, self.history_h, (r0, min(c0, c1))
        if c0 == c1 and abs(r0 - r1) == 1:
            return self.capacity_v, self.usage_v, self.history_v, (min(r0, r1), c0)
        raise ValueError(f"{edge} is not an adjacent gcell pair")

    def edge_capacity(self, edge: GridEdge) -> float:
        capacity, _, _, index = self._edge_arrays(edge)
        return float(capacity[index])

    def edge_usage(self, edge: GridEdge) -> float:
        _, usage, _, index = self._edge_arrays(edge)
        return float(usage[index])

    def edge_cost(self, edge: GridEdge, extra_demand: float = 1.0) -> float:
        """Negotiated-congestion cost of pushing ``extra_demand`` through an edge."""
        capacity, usage, history, index = self._edge_arrays(edge)
        over = max(usage[index] + extra_demand - capacity[index], 0.0)
        congestion_factor = 1.0 + self.config.overflow_penalty * over
        return float((1.0 + history[index]) * congestion_factor)

    def add_usage(self, edge: GridEdge, amount: float = 1.0) -> None:
        _, usage, _, index = self._edge_arrays(edge)
        usage[index] += amount

    def remove_usage(self, edge: GridEdge, amount: float = 1.0) -> None:
        _, usage, _, index = self._edge_arrays(edge)
        usage[index] = max(usage[index] - amount, 0.0)

    def bump_history(self) -> int:
        """Raise history cost on every over-capacity edge; returns their count."""
        over_h = self.usage_h > self.capacity_h
        over_v = self.usage_v > self.capacity_v
        self.history_h[over_h] += self.config.history_increment
        self.history_v[over_v] += self.config.history_increment
        return int(over_h.sum() + over_v.sum())

    # -- aggregate views -------------------------------------------------------------
    def overflow_edges(self) -> List[GridEdge]:
        """Every edge whose usage currently exceeds its capacity."""
        edges: List[GridEdge] = []
        rows, cols = np.nonzero(self.usage_h > self.capacity_h)
        for r, c in zip(rows, cols):
            edges.append(((int(r), int(c)), (int(r), int(c) + 1)))
        rows, cols = np.nonzero(self.usage_v > self.capacity_v)
        for r, c in zip(rows, cols):
            edges.append(((int(r), int(c)), (int(r) + 1, int(c))))
        return edges

    def total_overflow(self) -> float:
        """Sum of (usage - capacity) over all over-capacity edges."""
        over_h = np.maximum(self.usage_h - self.capacity_h, 0.0)
        over_v = np.maximum(self.usage_v - self.capacity_v, 0.0)
        return float(over_h.sum() + over_v.sum())

    def bin_utilization(self) -> Dict[str, np.ndarray]:
        """Project edge usage back onto bins as demand / capacity ratios.

        A bin's horizontal demand is the average of its incident horizontal
        edges (analogously for vertical), which matches how global routers
        report per-gcell congestion.
        """
        h_util = _project_edges_to_bins(self.usage_h, self.capacity_h, axis=1)
        v_util = _project_edges_to_bins(self.usage_v, self.capacity_v, axis=0)
        congestion = np.maximum(h_util, v_util)
        return {
            "congestion_horizontal": h_util,
            "congestion_vertical": v_util,
            "congestion": congestion,
            "overflow": np.maximum(congestion - 1.0, 0.0),
        }

    def neighbors(self, node: GridNode) -> List[GridNode]:
        r, c = node
        result: List[GridNode] = []
        if c + 1 < self.width:
            result.append((r, c + 1))
        if c - 1 >= 0:
            result.append((r, c - 1))
        if r + 1 < self.height:
            result.append((r + 1, c))
        if r - 1 >= 0:
            result.append((r - 1, c))
        return result


def _project_edges_to_bins(usage: np.ndarray, capacity: np.ndarray, axis: int) -> np.ndarray:
    """Average edge demand/capacity ratios onto the bins they touch."""
    ratio = usage / np.maximum(capacity, 1e-9)
    if ratio.size == 0:
        # Degenerate single-row / single-column grids have no edges along
        # this axis; report zero utilization for every bin.
        if axis == 1:
            shape = (usage.shape[0], usage.shape[1] + 1)
        else:
            shape = (usage.shape[0] + 1, usage.shape[1])
        return np.zeros(shape, dtype=np.float64)
    if axis == 1:
        height, edge_cols = ratio.shape
        bins = np.zeros((height, edge_cols + 1), dtype=np.float64)
        counts = np.zeros_like(bins)
        bins[:, :-1] += ratio
        counts[:, :-1] += 1.0
        bins[:, 1:] += ratio
        counts[:, 1:] += 1.0
    else:
        edge_rows, width = ratio.shape
        bins = np.zeros((edge_rows + 1, width), dtype=np.float64)
        counts = np.zeros_like(bins)
        bins[:-1, :] += ratio
        counts[:-1, :] += 1.0
        bins[1:, :] += ratio
        counts[1:, :] += 1.0
    return bins / np.maximum(counts, 1.0)


@dataclass
class NetRoute:
    """The routed realization of one net.

    Attributes
    ----------
    net_name:
        Name of the net in the source netlist.
    pin_bins:
        Distinct gcells containing the net's pins.
    segments:
        One gcell path per two-pin connection of the net's decomposition.
    """

    net_name: str
    pin_bins: Tuple[GridNode, ...]
    segments: List[List[GridNode]] = field(default_factory=list)

    def edges(self) -> List[GridEdge]:
        """Every grid edge used by this net (with multiplicity)."""
        result: List[GridEdge] = []
        for path in self.segments:
            for a, b in zip(path[:-1], path[1:]):
                result.append(RoutingGrid.edge_between(a, b))
        return result

    def wirelength_bins(self) -> int:
        """Total routed length in grid-edge units."""
        return sum(max(len(path) - 1, 0) for path in self.segments)

    def bend_count(self) -> int:
        """Number of direction changes over all segments (a via-count proxy)."""
        bends = 0
        for path in self.segments:
            for previous, current, following in zip(path[:-2], path[1:-1], path[2:]):
                first = (current[0] - previous[0], current[1] - previous[1])
                second = (following[0] - current[0], following[1] - current[1])
                if first != second:
                    bends += 1
        return bends


@dataclass
class RoutingResult:
    """Everything the global router produces for one placement."""

    placement: Placement
    grid: RoutingGrid
    routes: Dict[str, NetRoute]
    iterations: int
    initial_overflow: float

    @property
    def total_wirelength_bins(self) -> int:
        return sum(route.wirelength_bins() for route in self.routes.values())

    @property
    def total_wirelength_um(self) -> float:
        bin_span = 0.5 * (self.placement.bin_width_um + self.placement.bin_height_um)
        return self.total_wirelength_bins * bin_span

    @property
    def total_bends(self) -> int:
        return sum(route.bend_count() for route in self.routes.values())

    @property
    def total_overflow(self) -> float:
        return self.grid.total_overflow()

    @property
    def num_overflow_edges(self) -> int:
        return len(self.grid.overflow_edges())

    def congestion_maps(self) -> Dict[str, np.ndarray]:
        """Bin-level congestion maps, key-compatible with the probabilistic model."""
        return self.grid.bin_utilization()

    def summary(self) -> Dict[str, float]:
        """Scalar quality summary used by reports and benchmarks."""
        maps = self.congestion_maps()
        return {
            "nets_routed": float(len(self.routes)),
            "wirelength_bins": float(self.total_wirelength_bins),
            "wirelength_um": float(self.total_wirelength_um),
            "bends": float(self.total_bends),
            "overflow_total": float(self.total_overflow),
            "overflow_edges": float(self.num_overflow_edges),
            "max_congestion": float(maps["congestion"].max()) if maps["congestion"].size else 0.0,
            "ripup_iterations": float(self.iterations),
        }


class GlobalRouter:
    """Pattern + maze global router with negotiated rip-up and reroute."""

    def __init__(self, config: Optional[GlobalRouterConfig] = None):
        self.config = config if config is not None else GlobalRouterConfig()

    # -- public API -----------------------------------------------------------------
    def route(
        self,
        placement: Placement,
        analysis_maps: Optional[Dict[str, np.ndarray]] = None,
        max_nets: Optional[int] = None,
    ) -> RoutingResult:
        """Route every net of ``placement`` on the analysis grid.

        Parameters
        ----------
        placement:
            The placement to route.
        analysis_maps:
            Optional precomputed output of :func:`repro.eda.maps.all_maps`
            (avoids recomputing macro / pin-density maps).
        max_nets:
            Route only the ``max_nets`` largest-HPWL nets (useful to bound
            runtime on huge designs); ``None`` routes everything.
        """
        grid = RoutingGrid(placement, self.config, analysis_maps)
        net_pins = self._net_pin_bins(placement, grid)
        if max_nets is not None and max_nets < len(net_pins):
            net_pins = dict(
                sorted(
                    net_pins.items(),
                    key=lambda item: -self._pin_spread(item[1]),
                )[:max_nets]
            )

        routes: Dict[str, NetRoute] = {}
        for net_name, pin_bins in net_pins.items():
            routes[net_name] = self._route_net(net_name, pin_bins, grid, allow_maze=self.config.maze_fallback)

        initial_overflow = grid.total_overflow()
        iterations = self._negotiate(routes, grid)
        return RoutingResult(
            placement=placement,
            grid=grid,
            routes=routes,
            iterations=iterations,
            initial_overflow=initial_overflow,
        )

    # -- net preparation -------------------------------------------------------------
    @staticmethod
    def _pin_spread(pin_bins: Sequence[GridNode]) -> int:
        rows = [bin_[0] for bin_ in pin_bins]
        cols = [bin_[1] for bin_ in pin_bins]
        return (max(rows) - min(rows)) + (max(cols) - min(cols))

    @staticmethod
    def _net_pin_bins(placement: Placement, grid: RoutingGrid) -> Dict[str, Tuple[GridNode, ...]]:
        """Map every routable net to the distinct gcells containing its pins."""
        cell_rows, table = placement.net_cell_rows()
        bin_rows, bin_cols = map_ext.cell_center_bins(placement)
        nodes = list(zip(bin_rows[cell_rows].tolist(), bin_cols[cell_rows].tolist()))
        result: Dict[str, Tuple[GridNode, ...]] = {}
        for name, start, stop in table.spans():
            bins = tuple(dict.fromkeys(nodes[start:stop]))
            if len(bins) >= 2:
                result[name] = bins
        return result

    # -- single-net routing -----------------------------------------------------------
    def _route_net(
        self,
        net_name: str,
        pin_bins: Tuple[GridNode, ...],
        grid: RoutingGrid,
        allow_maze: bool,
    ) -> NetRoute:
        route = NetRoute(net_name=net_name, pin_bins=pin_bins)
        points = np.asarray([(col, row) for row, col in pin_bins], dtype=np.float64)
        connections = decompose_to_two_pin(points)
        for i, j in connections:
            source = pin_bins[i]
            target = pin_bins[j]
            path = self._route_connection(source, target, grid, allow_maze)
            for a, b in zip(path[:-1], path[1:]):
                grid.add_usage(grid.edge_between(a, b))
            route.segments.append(path)
        return route

    def _route_connection(
        self,
        source: GridNode,
        target: GridNode,
        grid: RoutingGrid,
        allow_maze: bool,
    ) -> List[GridNode]:
        if source == target:
            return [source]
        candidates = self._l_shape_paths(source, target)
        best_path: Optional[List[GridNode]] = None
        best_cost = float("inf")
        best_overflows = True
        for path in candidates:
            cost, overflows = self._path_cost(path, grid)
            if cost < best_cost:
                best_path, best_cost, best_overflows = path, cost, overflows
        if best_path is None:
            # source and target share a row or column: a straight path.
            best_path = self._straight_path(source, target)
            _, best_overflows = self._path_cost(best_path, grid)
        if best_overflows and allow_maze:
            maze_path = self._maze_route(source, target, grid)
            if maze_path is not None:
                maze_cost, _ = self._path_cost(maze_path, grid)
                if maze_cost < best_cost or best_overflows:
                    return maze_path
        return best_path

    @staticmethod
    def _straight_path(source: GridNode, target: GridNode) -> List[GridNode]:
        r0, c0 = source
        r1, c1 = target
        path = [source]
        step_r = int(np.sign(r1 - r0))
        step_c = int(np.sign(c1 - c0))
        r, c = r0, c0
        while r != r1:
            r += step_r
            path.append((r, c))
        while c != c1:
            c += step_c
            path.append((r, c))
        return path

    def _l_shape_paths(self, source: GridNode, target: GridNode) -> List[List[GridNode]]:
        """The two L-shaped candidate paths (may coincide for aligned pins)."""
        r0, c0 = source
        r1, c1 = target
        if r0 == r1 or c0 == c1:
            return [self._straight_path(source, target)]
        corner_a = (r0, c1)
        corner_b = (r1, c0)
        path_a = self._straight_path(source, corner_a)[:-1] + self._straight_path(corner_a, target)
        path_b = self._straight_path(source, corner_b)[:-1] + self._straight_path(corner_b, target)
        return [path_a, path_b]

    def _path_cost(self, path: List[GridNode], grid: RoutingGrid) -> Tuple[float, bool]:
        """Cost of a path under current usage, and whether it adds overflow."""
        cost = 0.0
        overflows = False
        for a, b in zip(path[:-1], path[1:]):
            edge = grid.edge_between(a, b)
            cost += grid.edge_cost(edge)
            if grid.edge_usage(edge) + 1.0 > grid.edge_capacity(edge):
                overflows = True
        bends = 0
        for previous, current, following in zip(path[:-2], path[1:-1], path[2:]):
            first = (current[0] - previous[0], current[1] - previous[1])
            second = (following[0] - current[0], following[1] - current[1])
            if first != second:
                bends += 1
        return cost + self.config.bend_penalty * bends, overflows

    def _maze_route(
        self,
        source: GridNode,
        target: GridNode,
        grid: RoutingGrid,
    ) -> Optional[List[GridNode]]:
        """Dijkstra shortest path under the negotiated-congestion edge cost."""
        distances: Dict[GridNode, float] = {source: 0.0}
        parents: Dict[GridNode, GridNode] = {}
        visited: Set[GridNode] = set()
        heap: List[Tuple[float, GridNode]] = [(0.0, source)]
        while heap:
            dist, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            if node == target:
                break
            for neighbor in grid.neighbors(node):
                if neighbor in visited:
                    continue
                edge = grid.edge_between(node, neighbor)
                candidate = dist + grid.edge_cost(edge)
                if candidate < distances.get(neighbor, float("inf")):
                    distances[neighbor] = candidate
                    parents[neighbor] = node
                    heapq.heappush(heap, (candidate, neighbor))
        if target not in visited:
            return None
        path = [target]
        while path[-1] != source:
            path.append(parents[path[-1]])
        path.reverse()
        return path

    # -- negotiated rip-up and reroute --------------------------------------------------
    def _negotiate(self, routes: Dict[str, NetRoute], grid: RoutingGrid) -> int:
        iterations = 0
        for _ in range(self.config.max_ripup_iterations):
            overflow_edges = set(grid.overflow_edges())
            if not overflow_edges:
                break
            iterations += 1
            grid.bump_history()
            offenders = [
                name
                for name, route in routes.items()
                if any(edge in overflow_edges for edge in route.edges())
            ]
            for name in offenders:
                old_route = routes[name]
                for edge in old_route.edges():
                    grid.remove_usage(edge)
                routes[name] = self._route_net(name, old_route.pin_bins, grid, allow_maze=True)
        return iterations


def route_placement(
    placement: Placement,
    config: Optional[GlobalRouterConfig] = None,
    analysis_maps: Optional[Dict[str, np.ndarray]] = None,
    max_nets: Optional[int] = None,
) -> RoutingResult:
    """Convenience wrapper: route ``placement`` with a fresh :class:`GlobalRouter`."""
    return GlobalRouter(config).route(placement, analysis_maps=analysis_maps, max_nets=max_nets)
