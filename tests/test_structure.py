"""Structural gates: lines that must not come back into ``src/``.

Each row is ``(pattern, paths, exclusions, reason, pr, planted)``: no line
under ``paths`` may match the extended regex ``pattern``, except in a file
named in ``exclusions``, which allows that many hits (``None``: any).
``pr`` is the change that made the rule, and ``planted`` is a line the
pattern must match, so a pattern that can match nothing fails too.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

ROWS = [
    (r"isinstance\([^)]*FlatState", ["src"], {"src/repro/nn/state.py": 2},
     "a state is a FlatState: only as_flat_state and FlatState.from_state ask 'dict or flat?'", 22,
     "if isinstance(state, FlatState):"),
    (r"def (iter_client_updates|_run_unscheduled_rounds|_run_scheduled_rounds|_global_round|_local_proximal_mu"
     r"|_run_fedbuff)\b|class _InFlight\b|supports_(checkpointing|scheduling|resilience)", ["src"], {},
     "one round loop: no deleted round-loop fork or capability flag", 25, "    def _run_fedbuff(self):"),
    (r"for round_index in range\(", ["src/repro/fl"], {"src/repro/fl/algorithms/base.py": None},
     "one round loop: RoundAlgorithm._run_rounds is the only one", 30, "for round_index in range(rounds):"),
    (r"def (complete_round|commit_round|check_quorum|record_folds"
     r"|record_(dispatch|buffered|aggregation|discarded))\b|class RoundOutcome\b", ["src"], {},
     "one round ledger: participation is recorded in RoundLedger alone", 41, "    def record_dispatch(self, cohort):"),
    (r"ledger\.(selected|folded|late|rounds) \+=", ["src"], {"src/repro/fl/ledger.py": None},
     "one round ledger: only the ledger adds to a round total", 42, "        ledger.folded += 1"),
    (r"def (imap|map)\(", ["src/repro/fl/execution/backend.py"], {},
     "one dispatch path: every client pass goes through imap_outcomes under supervise", 40,
     "    def map(self, tasks):"),
    (r"(scheduler|resilience) is (not )?None", ["src/repro/fl/algorithms", "src/repro/experiments/runner.py"], {},
     "one dispatch path: every algorithm holds a scheduler and a resilience manager", 40,
     "        if self.scheduler is None:"),
    (r"class CommunicationTracker", ["src"], {}, "the channel keeps its own byte totals", 40,
     "class CommunicationTracker:"),
    (r"average_pairwise_distance", ["src"], {}, "client drift is folded per arrival; the pairwise loop is an oracle",
     26, "drift = average_pairwise_distance(states)"),
    (r"self\._model\s*=", ["src/repro/fl/client.py"], {}, "a client's model is lent, never its own", 27,
     "        self._model = factory()"),
    (r"col2im|one_filter_input_grad", ["src/repro/nn/layers/conv.py"], {},
     "a conv layer's input gradient is folded per tap; no columns for col2im", 37, "grad = col2im(cols, shape)"),
    (r"np\.repeat|reduceat", ["src/repro/fl/transport/codecs.py"], {},
     "the quantize codec encodes per tensor in place; the vectorised encode is an oracle", 33,
     "scales = np.repeat(scale, sizes)"),
    (r"_scratch2|empty_like|zeros_like|np\.zeros\(|np\.empty\(", ["src/repro/nn/optim.py"], {},
     "the optimizers allocate nothing: their state is lent from the workspace pool", 44,
     "        self.m = np.zeros(shape)"),
    (r"^\s*(import|from) (scipy|networkx)", ["src"], {}, "NumPy is the only runtime dependency", 32,
     "    from scipy import ndimage"),
    (r"ProcessPoolExecutor|_worker_run_task|_WorkerFailure|start_method", ["src"], {},
     "one remote executor: --backend process is the wire backend over forked joiners", 34,
     "pool = ProcessPoolExecutor(workers)"),
    (r"Cell\(|Pin\(|Net\(|iter_cells|iter_nets", ["src/repro/eda/benchmarks.py", "src/repro/eda/placement.py"], {},
     "a netlist is its arrays on the corpus path", 35, "    cells.append(Cell(name, width))"),
    (r"congestion_source|router_config", ["src/repro/eda/drc.py"], {},
     "one congestion source: the DRC labeler reads the probabilistic model only", 36,
     "    congestion_source: str = 'router'"),
    (r"edge_between|_edge_arrays|def neighbors", ["src/repro/eda/global_router.py"], {},
     "one edge representation: flat arrays over edge ids", 36, "    def neighbors(self, node):"),
    (r"^\s*(import|from) pickle|pickle\.(loads|dumps)", ["src/repro/fl/net"], {},
     "no pickle on the wire, in the journal, or anywhere under repro.fl.net", 21, "import pickle"),
    (r"def model_layout|_MODEL_LAYOUTS|class UpdateAccumulator|^Entry =", ["src"], {},
     "one layout from model to wire: a packed model's layout is its StateLayout", 48,
     "_MODEL_LAYOUTS = weakref.WeakKeyDictionary()"),
]


def _lines(path: Path):
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    for file in files:
        for number, line in enumerate(file.read_text(encoding="utf-8").splitlines(), 1):
            yield file.relative_to(ROOT).as_posix(), number, line


@pytest.mark.parametrize("pattern, paths, exclusions, reason, pr, planted", ROWS, ids=[row[3] for row in ROWS])
def test_no_line_comes_back(pattern, paths, exclusions, reason, pr, planted):
    regex = re.compile(pattern)
    assert regex.search(planted), f"the pattern matches nothing it is meant to (PR {pr})"
    hits = {}
    for path in paths:
        assert (ROOT / path).exists(), path
        for name, number, line in _lines(ROOT / path):
            if regex.search(line):
                hits.setdefault(name, []).append(f"{name}:{number}: {line.strip()}")
    over = [
        hit
        for name, found in hits.items()
        if name not in exclusions or (exclusions[name] is not None and len(found) > exclusions[name])
        for hit in found
    ]
    assert not over, f"{reason} (PR {pr}):\n" + "\n".join(over)
