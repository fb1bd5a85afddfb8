"""Frozen reports of the ``repro route`` path: placement and routing quality.

``quality_golden.json`` beside this file holds, for two small designs (one
with macros), every field of ``placement_quality(...).to_dict()`` and
``routing_quality(...).to_dict()`` as its ``repr``.  Those reports run through
``net_bounding_boxes``, the Steiner estimates and the global router's
per-net pin bins, none of which a corpus digest sees.  Regenerate with
``python tests/eda/test_quality_golden.py --write`` only when a change is
meant to move them.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.eda.benchmarks import generate_design
from repro.eda.global_router import GlobalRouterConfig, route_placement
from repro.eda.placement import PlacementConfig, Placer
from repro.eda.quality import placement_quality, routing_quality

GOLDEN_PATH = Path(__file__).with_name("quality_golden.json")
GRID = 12
CELLS = 150
#: ``(suite, seed)``; ISPD'15-style designs carry macros.
CASES = [("iscas89", 0), ("ispd15", 1)]


def case_reports(suite: str, seed: int) -> dict:
    """``repr`` of every field of one design's placement and routing quality reports."""
    design = generate_design(suite, f"quality_{suite}_{seed}", seed, cell_count=CELLS)
    placement = Placer().place(
        design, PlacementConfig(grid_width=GRID, grid_height=GRID, utilization=0.7, seed=seed)
    )
    routed = route_placement(placement, GlobalRouterConfig(max_ripup_iterations=2))
    return {
        "placement": {key: repr(value) for key, value in placement_quality(placement).to_dict().items()},
        "routing": {key: repr(value) for key, value in routing_quality(routed).to_dict().items()},
    }


@pytest.mark.parametrize("suite,seed", CASES)
def test_quality_reports_match_golden(suite, seed):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert case_reports(suite, seed) == golden[f"{suite}/{seed}"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/eda/test_quality_golden.py --write")
    table = {f"{suite}/{seed}": case_reports(suite, seed) for suite, seed in CASES}
    GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(table)} designs)")
