"""NumPy is the only runtime dependency.

A fresh interpreter that cannot import SciPy or networkx must still import
``repro.experiments``, label a placement and score an AUC.  SciPy is used by
the test suite only, as an oracle for the kernels that replaced it.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

BLOCKED_PROGRAM = textwrap.dedent(
    """
    import sys

    BLOCKED = ("scipy", "networkx")

    class Blocker:
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] in BLOCKED:
                raise ImportError(f"{name} is blocked in this interpreter")
            return None

    sys.meta_path.insert(0, Blocker())

    import numpy as np

    import repro.experiments
    from repro.eda.benchmarks import generate_design
    from repro.eda.drc import DrcHotspotLabeler
    from repro.eda.placement import PlacementConfig, Placer
    from repro.metrics import roc_auc_score

    design = generate_design("iscas89", "guard", seed=3, cell_count=120)
    placement = Placer().place(design, PlacementConfig(grid_width=8, grid_height=8, seed=1))
    result = DrcHotspotLabeler().label(placement)
    auc = roc_auc_score(result.hotspots, result.score)
    assert 0.0 <= auc <= 1.0, auc
    loaded = sorted(name for name in sys.modules if name.split(".")[0] in BLOCKED)
    assert not loaded, loaded
    print("ok", result.num_hotspots, auc)
    """
)


def test_repro_runs_without_scipy_or_networkx():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    completed = subprocess.run(
        [sys.executable, "-c", BLOCKED_PROGRAM], capture_output=True, text=True, env=env, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.startswith("ok "), completed.stdout
