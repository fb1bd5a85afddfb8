"""Net topology estimation: HPWL, rectilinear spanning trees, and Steiner trees.

The global router works on two-pin connections, so every multi-pin net has to
be decomposed into a tree first.  This module provides the standard toolbox
used by placement and global routing:

* half-perimeter wirelength (HPWL), the placer's optimization proxy;
* the rectilinear minimum spanning tree (RMST) built with Prim's algorithm in
  Manhattan distance, whose edges are the two-pin connections handed to the
  router;
* an RSMT length estimate that corrects HPWL for pin count, used by
  wirelength reporting.

All functions operate on integer or floating-point point sets of shape
``(n, 2)`` in ``(x, y)`` order; the units (microns or grid bins) are the
caller's choice and are preserved.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

#: HPWL-to-RSMT correction factors indexed by pin count, following the
#: commonly used fit to FLUTE results (pin counts above the table saturate).
_RSMT_CORRECTION = {
    1: 1.00,
    2: 1.00,
    3: 1.00,
    4: 1.08,
    5: 1.15,
    6: 1.22,
    7: 1.28,
    8: 1.34,
    9: 1.39,
    10: 1.44,
    15: 1.69,
    20: 1.89,
    30: 2.23,
    40: 2.50,
    50: 2.73,
}


def _as_points(points: Sequence[Sequence[float]]) -> np.ndarray:
    array = np.asarray(points, dtype=np.float64)
    if array.ndim != 2 or array.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {array.shape}")
    return array


def hpwl(points: Sequence[Sequence[float]]) -> float:
    """Half-perimeter wirelength of a point set (0 for fewer than 2 points)."""
    array = _as_points(points)
    if array.shape[0] < 2:
        return 0.0
    spans = array.max(axis=0) - array.min(axis=0)
    return float(spans.sum())


def rectilinear_mst(points: Sequence[Sequence[float]]) -> Tuple[List[Tuple[int, int]], float]:
    """Rectilinear minimum spanning tree via Prim's algorithm.

    Parameters
    ----------
    points:
        ``(n, 2)`` point coordinates.

    Returns
    -------
    edges, total_length:
        ``edges`` is a list of ``(i, j)`` index pairs into ``points`` forming
        a spanning tree (empty for fewer than two points); ``total_length``
        is the sum of Manhattan edge lengths.
    """
    array = _as_points(points)
    n = array.shape[0]
    if n < 2:
        return [], 0.0

    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    # best_dist[i] / best_parent[i]: cheapest connection of node i to the tree.
    diff = np.abs(array - array[0])
    best_dist = diff.sum(axis=1)
    best_parent = np.zeros(n, dtype=int)
    best_dist[0] = np.inf

    edges: List[Tuple[int, int]] = []
    total = 0.0
    for _ in range(n - 1):
        candidates = np.where(in_tree, np.inf, best_dist)
        next_node = int(np.argmin(candidates))
        parent = int(best_parent[next_node])
        edges.append((parent, next_node))
        total += float(best_dist[next_node])
        in_tree[next_node] = True
        new_dist = np.abs(array - array[next_node]).sum(axis=1)
        closer = new_dist < best_dist
        best_dist = np.where(closer, new_dist, best_dist)
        best_parent = np.where(closer, next_node, best_parent)
        best_dist[next_node] = np.inf
    return edges, total


def decompose_to_two_pin(points: Sequence[Sequence[float]]) -> List[Tuple[int, int]]:
    """Two-pin connections (RMST edges) covering a multi-pin net.

    This is the decomposition handed to the global router; single-pin and
    empty nets decompose into no connections.
    """
    edges, _ = rectilinear_mst(points)
    return edges


def rsmt_length_estimate(points: Sequence[Sequence[float]]) -> float:
    """Estimated rectilinear Steiner minimal tree length.

    HPWL is exact for 2- and 3-pin nets; for larger nets it underestimates the
    Steiner length, so a pin-count-dependent correction factor (interpolated
    from the table used in wirelength-estimation literature) is applied.
    """
    array = _as_points(points)
    n = array.shape[0]
    base = hpwl(array)
    if n <= 3 or base == 0.0:
        return base
    keys = sorted(_RSMT_CORRECTION)
    if n >= keys[-1]:
        factor = _RSMT_CORRECTION[keys[-1]]
    else:
        upper = min(k for k in keys if k >= n)
        lower = max(k for k in keys if k <= n)
        if upper == lower:
            factor = _RSMT_CORRECTION[lower]
        else:
            span = upper - lower
            weight = (n - lower) / span
            factor = (1 - weight) * _RSMT_CORRECTION[lower] + weight * _RSMT_CORRECTION[upper]
    return base * factor

