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
   on the grid graph) when the cheaper pattern would overflow;
2. negotiated rip-up and reroute iterations then rip up every net crossing an
   over-capacity edge, raise those edges' history cost, and reroute the net
   with the maze router until no overflow remains or the iteration budget is
   exhausted.

The result exposes per-edge usage, bin-level congestion/overflow maps that
are key-compatible with :func:`repro.eda.routing.estimate_congestion`,
wirelength and via statistics, and the per-net routes.  It feeds the
``repro route`` reports and the router benchmark; DRC hotspot labels come
from the probabilistic model alone (:mod:`repro.eda.drc`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.eda import maps as map_ext
from repro.eda.placement import Placement
from repro.eda.steiner import decompose_to_two_pin
from repro.eda.technology import Technology
from repro.utils.validation import check_positive

#: A gcell coordinate as (row, col).
GridNode = Tuple[int, int]


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
    """

    macro_blockage_factor: float = 0.85
    pin_access_cost: float = 0.08
    overflow_penalty: float = 4.0
    history_increment: float = 0.5
    bend_penalty: float = 0.15
    max_ripup_iterations: int = 4

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

    Every edge has one flat id.  The horizontal edge from ``(r, c)`` to
    ``(r, c + 1)`` is ``r * (W - 1) + c``; the vertical edges follow, the one
    from ``(r, c)`` to ``(r + 1, c)`` at ``H * (W - 1) + r * W + c``.
    ``capacity``, ``usage`` and ``history`` are flat arrays over those ids,
    and ``*_h`` (shape ``(H, W - 1)``) and ``*_v`` (shape ``(H - 1, W)``) are
    views of their two parts.  Gcell ``(r, c)`` is node ``r * W + c``;
    ``adjacency[node]`` lists its ``(neighbour, edge)`` pairs right, left,
    down, up.
    """

    def __init__(self, placement: Placement, config: Optional[GlobalRouterConfig] = None):
        self.config = config if config is not None else GlobalRouterConfig()
        self.height, self.width = placement.grid_shape
        if self.height < 1 or self.width < 1:
            raise ValueError("routing grid needs at least one bin in each dimension")
        self.placement = placement

        technology: Technology = placement.technology
        capacity_h = technology.horizontal_capacity(placement.bin_height_um)
        capacity_v = technology.vertical_capacity(placement.bin_width_um)

        blockage = self.config.macro_blockage_factor * map_ext.macro_map(placement)
        pin_penalty = self.config.pin_access_cost * map_ext.pin_density_map(placement)
        available_h = np.maximum(capacity_h * (1.0 - blockage) - pin_penalty, 1.0)
        available_v = np.maximum(capacity_v * (1.0 - blockage) - pin_penalty, 1.0)

        # An edge's capacity is limited by the tighter of its two bins.
        self.capacity = np.concatenate(
            [
                np.minimum(available_h[:, :-1], available_h[:, 1:]).ravel(),
                np.minimum(available_v[:-1, :], available_v[1:, :]).ravel(),
            ]
        )
        self.usage = np.zeros_like(self.capacity)
        self.history = np.zeros_like(self.capacity)
        self.capacity_h, self.capacity_v = self._split(self.capacity)
        self.usage_h, self.usage_v = self._split(self.usage)
        self.history_h, self.history_v = self._split(self.history)
        self.adjacency = self._adjacency()

    def _split(self, flat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The horizontal and vertical parts of a per-edge array, as views."""
        split = self.height * (self.width - 1)
        return (
            flat[:split].reshape(self.height, self.width - 1),
            flat[split:].reshape(self.height - 1, self.width),
        )

    def _adjacency(self) -> List[Tuple[Tuple[int, int], ...]]:
        height, width = self.height, self.width
        first_vertical = height * (width - 1)
        table = []
        for r in range(height):
            for c in range(width):
                node = r * width + c
                pairs = []
                if c + 1 < width:
                    pairs.append((node + 1, r * (width - 1) + c))
                if c > 0:
                    pairs.append((node - 1, r * (width - 1) + c - 1))
                if r + 1 < height:
                    pairs.append((node + width, first_vertical + node))
                if r > 0:
                    pairs.append((node - width, first_vertical + node - width))
                table.append(tuple(pairs))
        return table

    # -- edge bookkeeping -----------------------------------------------------------
    def edge_id(self, a: GridNode, b: GridNode) -> int:
        """Flat id of the edge between two adjacent gcells, in either order."""
        (r0, c0), (r1, c1) = (a, b) if a <= b else (b, a)
        if r0 == r1 and c1 - c0 == 1:
            return r0 * (self.width - 1) + c0
        if c0 == c1 and r1 - r0 == 1:
            return self.height * (self.width - 1) + r0 * self.width + c0
        raise ValueError(f"{a} and {b} are not adjacent gcells")

    def edge_costs(self) -> List[float]:
        """Negotiated-congestion cost of one more track through each edge, by id.

        ``(1 + history) * (1 + overflow_penalty * max(usage + 1 - capacity, 0))``
        element by element, so every entry has the bits of that scalar sum.
        """
        over = np.maximum(self.usage + 1.0 - self.capacity, 0.0)
        return ((1.0 + self.history) * (1.0 + self.config.overflow_penalty * over)).tolist()

    def occupy(self, edges: Sequence[int]) -> None:
        """Add one track of usage per listed edge id (repeats add again)."""
        np.add.at(self.usage, edges, 1.0)

    def release(self, edges: Sequence[int]) -> None:
        """Remove one track per listed edge id; usage stops at zero."""
        np.subtract.at(self.usage, edges, 1.0)
        np.maximum(self.usage, 0.0, out=self.usage)

    def bump_history(self) -> int:
        """Raise history cost on every over-capacity edge; returns their count."""
        over = self.usage > self.capacity
        self.history[over] += self.config.history_increment
        return int(over.sum())

    # -- aggregate views -------------------------------------------------------------
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


def _bends(path: Sequence[GridNode]) -> int:
    """Direction changes along a gcell path (a via-count proxy)."""
    bends = 0
    for previous, current, following in zip(path[:-2], path[1:-1], path[2:]):
        first = (current[0] - previous[0], current[1] - previous[1])
        second = (following[0] - current[0], following[1] - current[1])
        if first != second:
            bends += 1
    return bends


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
    edges:
        The flat edge ids of every segment, in path order (with multiplicity).
    """

    net_name: str
    pin_bins: Tuple[GridNode, ...]
    segments: List[List[GridNode]] = field(default_factory=list)
    edges: List[int] = field(default_factory=list)

    def wirelength_bins(self) -> int:
        """Total routed length in grid-edge units."""
        return len(self.edges)

    def bend_count(self) -> int:
        """Number of direction changes over all segments (a via-count proxy)."""
        return sum(_bends(path) for path in self.segments)


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
        return int(np.count_nonzero(self.grid.usage > self.grid.capacity))

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
    def route(self, placement: Placement) -> RoutingResult:
        """Route every net of ``placement`` on the analysis grid."""
        grid = RoutingGrid(placement, self.config)
        routes = {
            net_name: self._route_net(net_name, pin_bins, grid)
            for net_name, pin_bins in self._net_pin_bins(placement).items()
        }
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
    def _net_pin_bins(placement: Placement) -> Dict[str, Tuple[GridNode, ...]]:
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
    def _route_net(self, net_name: str, pin_bins: Tuple[GridNode, ...], grid: RoutingGrid) -> NetRoute:
        route = NetRoute(net_name=net_name, pin_bins=pin_bins)
        points = np.asarray([(col, row) for row, col in pin_bins], dtype=np.float64)
        for i, j in decompose_to_two_pin(points):
            path = self._route_connection(pin_bins[i], pin_bins[j], grid)
            edges = [grid.edge_id(a, b) for a, b in zip(path[:-1], path[1:])]
            grid.occupy(edges)
            route.segments.append(path)
            route.edges.extend(edges)
        return route

    def _route_connection(self, source: GridNode, target: GridNode, grid: RoutingGrid) -> List[GridNode]:
        """The cheaper L-shape, or the maze route when that L-shape overflows."""
        if source == target:
            return [source]
        costs = grid.edge_costs()
        best_path: List[GridNode] = []
        best_cost = math.inf
        best_overflows = True
        for path in self._l_shape_paths(source, target):
            cost, overflows = self._path_cost(path, grid, costs)
            if cost < best_cost:
                best_path, best_cost, best_overflows = path, cost, overflows
        if best_overflows:
            return self._maze_route(source, target, grid, costs)
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

    def _path_cost(self, path: List[GridNode], grid: RoutingGrid, costs: List[float]) -> Tuple[float, bool]:
        """Cost of a path under ``grid.edge_costs()``, and whether it adds overflow.

        The edge costs are added one by one in path order, never summed as
        an array, so the total has the bits of the scalar loop.
        """
        cost = 0.0
        overflows = False
        for a, b in zip(path[:-1], path[1:]):
            edge = grid.edge_id(a, b)
            cost += costs[edge]
            if grid.usage[edge] + 1.0 > grid.capacity[edge]:
                overflows = True
        return cost + self.config.bend_penalty * _bends(path), overflows

    @staticmethod
    def _maze_route(source: GridNode, target: GridNode, grid: RoutingGrid, costs: List[float]) -> List[GridNode]:
        """Dijkstra shortest path under ``costs``, one entry per edge id.

        The heap holds ``(distance, node id)``; node ids order as their
        ``(row, col)`` gcells do, so equal distances pop in gcell order.
        """
        width, adjacency = grid.width, grid.adjacency
        heappop, heappush = heapq.heappop, heapq.heappush
        start = source[0] * width + source[1]
        goal = target[0] * width + target[1]
        distances = [math.inf] * len(adjacency)
        parents = [-1] * len(adjacency)
        visited = [False] * len(adjacency)
        distances[start] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, start)]
        while heap:
            dist, node = heappop(heap)
            if visited[node]:
                continue
            visited[node] = True
            if node == goal:
                break
            for neighbor, edge in adjacency[node]:
                if visited[neighbor]:
                    continue
                candidate = dist + costs[edge]
                if candidate < distances[neighbor]:
                    distances[neighbor] = candidate
                    parents[neighbor] = node
                    heappush(heap, (candidate, neighbor))
        path = [goal]
        while path[-1] != start:
            path.append(parents[path[-1]])
        return [divmod(node, width) for node in reversed(path)]

    # -- negotiated rip-up and reroute --------------------------------------------------
    def _negotiate(self, routes: Dict[str, NetRoute], grid: RoutingGrid) -> int:
        iterations = 0
        for _ in range(self.config.max_ripup_iterations):
            overflowing = (grid.usage > grid.capacity).tolist()
            if not any(overflowing):
                break
            iterations += 1
            grid.bump_history()
            offenders = [
                name for name, route in routes.items() if any(overflowing[edge] for edge in route.edges)
            ]
            for name in offenders:
                old_route = routes[name]
                grid.release(old_route.edges)
                routes[name] = self._route_net(name, old_route.pin_bins, grid)
        return iterations


def route_placement(placement: Placement, config: Optional[GlobalRouterConfig] = None) -> RoutingResult:
    """Convenience wrapper: route ``placement`` with a fresh :class:`GlobalRouter`."""
    return GlobalRouter(config).route(placement)
