"""The references ``tests/eda`` holds the global router's search to.

``RoutingGrid`` keeps each per-edge quantity in one flat array and the maze
router runs on integer node ids and flat edge ids.  These are the
``(row, col)``-tuple forms that replaced: an edge cost read as a scalar from
the ``*_h`` / ``*_v`` views, a path cost summed edge by edge, and Dijkstra
over tuple nodes with a distance dict and a visited set.
``GlobalRouter._maze_route`` and ``_path_cost`` must equal them bit for bit;
nothing in ``src/`` reaches them.

``tests/nn`` owns the module name ``oracles``; load this one by path
(``load_eda_oracles`` in ``test_global_router.py``).
"""

from __future__ import annotations

import heapq


def edge_views(grid, a, b):
    """``(capacity, usage, history, index)`` of the edge between adjacent gcells."""
    (r0, c0), (r1, c1) = (a, b) if a <= b else (b, a)
    if r0 == r1 and abs(c0 - c1) == 1:
        return grid.capacity_h, grid.usage_h, grid.history_h, (r0, min(c0, c1))
    if c0 == c1 and abs(r0 - r1) == 1:
        return grid.capacity_v, grid.usage_v, grid.history_v, (min(r0, r1), c0)
    raise ValueError(f"{a} and {b} are not adjacent gcells")


def edge_cost_oracle(grid, a, b):
    """Negotiated-congestion cost of one more track through one edge, as a scalar."""
    capacity, usage, history, index = edge_views(grid, a, b)
    over = max(usage[index] + 1.0 - capacity[index], 0.0)
    congestion_factor = 1.0 + grid.config.overflow_penalty * over
    return float((1.0 + history[index]) * congestion_factor)


def neighbors_oracle(grid, node):
    """A gcell's in-grid neighbours: right, left, down, up."""
    r, c = node
    result = []
    if c + 1 < grid.width:
        result.append((r, c + 1))
    if c - 1 >= 0:
        result.append((r, c - 1))
    if r + 1 < grid.height:
        result.append((r + 1, c))
    if r - 1 >= 0:
        result.append((r - 1, c))
    return result


def path_cost_oracle(grid, path):
    """``(cost, overflows)`` of a gcell path: edge costs added in path order, plus bends."""
    cost = 0.0
    overflows = False
    for a, b in zip(path[:-1], path[1:]):
        capacity, usage, _, index = edge_views(grid, a, b)
        cost += edge_cost_oracle(grid, a, b)
        if float(usage[index]) + 1.0 > float(capacity[index]):
            overflows = True
    bends = 0
    for previous, current, following in zip(path[:-2], path[1:-1], path[2:]):
        first = (current[0] - previous[0], current[1] - previous[1])
        second = (following[0] - current[0], following[1] - current[1])
        if first != second:
            bends += 1
    return cost + grid.config.bend_penalty * bends, overflows


def maze_route_oracle(grid, source, target):
    """Dijkstra over ``(row, col)`` tuples under :func:`edge_cost_oracle`."""
    distances = {source: 0.0}
    parents = {}
    visited = set()
    heap = [(0.0, source)]
    while heap:
        dist, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == target:
            break
        for neighbor in neighbors_oracle(grid, node):
            if neighbor in visited:
                continue
            candidate = dist + edge_cost_oracle(grid, node, neighbor)
            if candidate < distances.get(neighbor, float("inf")):
                distances[neighbor] = candidate
                parents[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor))
    path = [target]
    while path[-1] != source:
        path.append(parents[path[-1]])
    path.reverse()
    return path
