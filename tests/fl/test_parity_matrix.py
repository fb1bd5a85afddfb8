"""The parity matrix: one table of cells, each a 2-round FLNet run on the trio.

Bit-identity to the serial run is what lets local, federated and
personalised rows be compared at all.  **Trajectory axes** (algorithm,
codec, round policy, compute dtype) choose what is trained; **transparent
axes** (backend, roster, fault plan, resume) choose how, and may not move a
bit.  A cell must equal its reference, which keeps its trajectory values and
runs serial, eager, fault-free and uninterrupted (once per session); its
fault plan must have fired, and nothing of its rounds may outlive ``run()``.

The table (``build_table``, seeded greedy) covers every pair of axis values
that some combination expected to hold holds, with a cell expected to hold;
then one strict-xfail cell per known hole (``HOLES``), each of ``TRIPLES``,
and more triples up to ``CELLS_TARGET`` cells.  To add an axis value, append
it to ``AXES``, teach ``_scheduler``, ``_resilience``, ``_backend`` or
``Trio`` what it means, and say in ``meaningless`` where it has none.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple
from contextlib import closing
from dataclasses import replace

import pytest

from repro.fl import (
    ALGORITHMS,
    CheckpointManager,
    FederatedClient,
    ProcessPoolBackend,
    ResilienceManager,
    ResilienceOptions,
    SerialBackend,
    ThreadPoolBackend,
    create_channel,
    create_resilience,
)
from repro.fl.net import WireBackend, WireFaultPlan
from conftest import ROUND_ALGORITHMS, TINY_CONFIG, KamikazeClient, build_named, digests, scheduled, wire_joiner
from test_state_door import load_fl_oracles

ORACLES = load_fl_oracles()

TRAJECTORY = {
    "algorithm": tuple(ROUND_ALGORITHMS),
    "codec": ("raw", "none", "float32", "quantize", "topk"),
    "policy": ("sync", "participation", "deadline", "fedbuff"),
    "dtype": ("float64", "float32"),
}
TRANSPARENT = {
    "backend": ("serial", "thread", "process", "wire"),
    "roster": ("eager", "directory"),
    "faults": ("inert", "retries", "supervisor", "wire", "sigkill"),
    "resume": ("uninterrupted", "resumed"),
}
AXES = {**TRAJECTORY, **TRANSPARENT}
Cell = namedtuple("Cell", AXES)
DEFAULTS = dict(backend="serial", roster="eager", faults="inert", resume="uninterrupted")

#: The table's size: every pair and ``TRIPLES``, then more cells until tier-1's pass count holds.
CELLS_TARGET = 80
#: A round record's keys a fault plan may move: its retry count, and the
#: virtual clock that a retry's backoff elapses on.
FAULT_KEYS = ("retries", "simulated_time_s")

SCHEDULES = {
    "sync": None,
    "participation": dict(participation=0.5, straggler_model="lognormal"),
    "deadline": dict(straggler_model="heavytail", round_policy="deadline", deadline=10.0),
    "fedbuff": dict(round_policy="fedbuff", buffer_size=2, straggler_model="lognormal"),
}


def meaningless(cell) -> bool:
    """A wire fault plan needs a wire, and a SIGKILL a joiner process running a real client."""
    if cell.faults == "wire":
        return cell.backend != "wire"
    return cell.faults == "sigkill" and (cell.backend != "process" or cell.roster != "eager")


def refusal(cell):
    """The ``ValueError`` message a refused combination raises, or ``None``.

    FedBuff needs delta aggregation, and takes no fault plan that retries:
    a retried update would change the simulated arrival order the buffer
    folds in.
    """
    if cell.policy != "fedbuff":
        return None
    if not ALGORITHMS[cell.algorithm].supports_fedbuff:
        return "does not support the fedbuff round policy"
    if cell.faults in ("retries", "supervisor", "wire"):
        return "not supported under the fedbuff round policy"
    return None


#: Where the seeded supervisor faults move bits: a retried client folds after
#: the wave it failed in, so a sync round's three-row average sums in another
#: order, and DP draws its per-update noise in arrival order.  Two-client
#: clusters (assigned_clustering), fedprox_alpha's sync and rounds that fold
#: at most two updates keep theirs.
REORDERED = {(name, "sync") for name in ROUND_ALGORITHMS if name not in ("assigned_clustering", "fedprox_alpha")}
REORDERED.add(("dp_fedprox", "participation"))


def xfail_reasons(cell):
    """Why the cell is known not to equal its reference: one reason per hole it falls in."""
    checkpointed = " are not checkpointed (fl/algorithms/base.py warns); ROADMAP 'Every resume bit-identical'"
    return [
        reason for reason, falls in (
            ("a retried client folds after its wave: the fold order is the arrival order (CHANGES.md FOUND)",
             cell.faults == "supervisor" and (cell.algorithm, cell.policy) in REORDERED),
            ("top-k's error-feedback residuals" + checkpointed, cell.resume == "resumed" and cell.codec == "topk"),
            ("FedBuff's in-flight updates" + checkpointed, cell.resume == "resumed" and cell.policy == "fedbuff"),
        ) if falls
    ]


def xfail_reason(cell):
    return "; ".join(xfail_reasons(cell)) or None


def _tuples(cell, size):
    """The cell's ``size``-way interactions: ``((axis, value), ...)``."""
    return itertools.combinations(enumerate(cell), size)


def runnable():
    """Every combination that runs and is not its own reference."""
    combos = map(Cell._make, itertools.product(*AXES.values()))
    return [
        cell for cell in combos if not (meaningless(cell) or refusal(cell) or cell == cell._replace(**DEFAULTS))
    ]


#: What a resume carries besides the model: a codec's state under every round
#: policy's, and a SIGKILLed joiner's replay under every codec.
TRIPLES = [dict(resume="resumed", codec=codec, policy=policy) for codec in AXES["codec"] for policy in AXES["policy"]]
TRIPLES += [dict(resume="resumed", faults="sigkill", codec=codec) for codec in AXES["codec"]]
#: The known holes (``xfail_reason``): each has a strict-xfail cell, so mending one shows.
HOLES = [dict(resume="resumed", codec="topk"), dict(resume="resumed", policy="fedbuff")]
HOLES += [dict(algorithm="fedavg", policy="sync", faults="supervisor")]


def holds(cell, values) -> bool:
    return all(getattr(cell, axis) == value for axis, value in values.items())


def build_table():
    """Greedy all-pairs, ``HOLES``, ``TRIPLES``, then more triples (seeded).

    Each step takes the cell that adds the most new tuples per ``run()`` call
    it costs: a resumed cell runs twice, and a cell whose trajectory no other
    cell has also runs its reference.  Only a cell that should equal its
    reference covers a tuple; the holes' cells are the strict xfails.
    """
    everything = runnable()
    combos = [cell for cell in everything if not xfail_reason(cell)]
    draw, table, covered, trajectories = random.Random(0), [], set(), set()

    def add(candidates, size):
        def score(cell):
            runs = 1 + (cell.resume == "resumed") + (cell[:4] not in trajectories)
            return sum(t not in covered for t in _tuples(cell, size)) / runs

        best = max(candidates, key=score)
        table.append(best)
        trajectories.add(best[:4])
        if not xfail_reason(best):
            covered.update(_tuples(best, 2), _tuples(best, 3))

    wanted = {pair for cell in combos for pair in _tuples(cell, 2)}
    while not wanted <= covered:
        add(draw.sample(combos, 100), 2)
    for values in HOLES:  # a cell in this hole and no other, so mending it shows
        add([cell for cell in everything if holds(cell, values) and len(xfail_reasons(cell)) == 1], 3)
    for values in TRIPLES:
        if not any(holds(cell, values) for cell in table):
            candidates = [cell for cell in combos if holds(cell, values)]
            if candidates:  # none holds where the triple is a hole
                add(draw.sample(candidates, min(100, len(candidates))), 3)
    while len(table) < CELLS_TARGET:
        add([cell for cell in draw.sample(combos, 100) if cell not in table], 3)
    return table


CELLS = build_table()
#: One refused cell per algorithm without FedBuff, and per fault plan FedBuff refuses.
REFUSED = [
    Cell(name, "raw", "fedbuff", "float64", "serial", "eager", "inert", "uninterrupted")
    for name in ROUND_ALGORITHMS
    if not ALGORITHMS[name].supports_fedbuff
] + [
    Cell("fedprox", "raw", "fedbuff", "float64", "wire", "eager", faults, "uninterrupted")
    for faults in ("retries", "supervisor", "wire")
]


def _scheduler(cell):
    options = SCHEDULES[cell.policy]
    return None if options is None else scheduled(**options)


def _resilience(cell):
    if cell.faults == "retries":
        return create_resilience(ResilienceOptions(max_retries=2), seed=0)
    if cell.faults == "supervisor":
        # A corrupted upload fails after its client trained: only the RNG restore keeps the retry's bits.
        options = ResilienceOptions(
            fault_crash_rate=0.1, fault_exception_rate=0.1, fault_timeout_rate=0.1, fault_corruption_rate=0.3,
            max_retries=8,
        )
        return create_resilience(options, seed=0)
    return ResilienceManager() if cell.faults == "wire" else None


def _backend(cell):
    if cell.backend == "wire":
        plan = None
        if cell.faults == "wire":
            plan = WireFaultPlan(disconnect_rate=0.25, corrupt_rate=0.2, delay_rate=0.1, delay_seconds=0.01, seed=3)
        return WireBackend(heartbeat_interval=0.2, client_timeout=1.5, fault_plan=plan)
    if cell.backend == "process":
        backend = ProcessPoolBackend(workers=2)
        backend.POLL_SECONDS = 0.02  # notice a killed joiner sooner; what it replays is the same
        return backend
    return ThreadPoolBackend(workers=2) if cell.backend == "thread" else SerialBackend()


class Trio:
    """Builds the cell's fresh 3-client roster, eager or from a directory."""

    def __init__(self, cell, make_trio, make_directory):
        self.cell, self.make_trio, self.make_directory = cell, make_trio, make_directory
        self.marker, self.directories = None, []

    def __call__(self, config):
        if self.cell.roster == "directory":
            self.directories.append(self.make_directory(3, config))
            return list(self.directories[-1].handles)
        clients = self.make_trio(config, KamikazeClient if self.cell.faults == "sigkill" else FederatedClient)
        clients[0].marker_path = self.marker
        return clients


def run_phase(cell, roster, config, checkpoint, num_channels):
    """One ``run()``: its digests and round records, and how often its faults fired.

    No update of the run may be alive once it has returned, while its closed
    backend still is.
    """
    backend, clients = _backend(cell), roster(config)
    joined = wire_joiner(backend, clients, roster(config), reconnect_delay=0.005) if cell.backend == "wire" else None
    with joined or closing(backend):
        algorithm = build_named(
            cell.algorithm, clients, num_channels, config, backend=backend, checkpoint=checkpoint,
            channel=create_channel(None if cell.codec == "raw" else cell.codec),
            scheduler=_scheduler(cell), resilience=_resilience(cell),
        )
        watched = ORACLES.watch_updates(algorithm)
        training = algorithm.run()
        network = backend.network_summary() if cell.backend == "wire" else {}
    summary = algorithm.ledger.resilience_summary()
    assert (summary.gave_up, summary.dropped_clients) == (0, []), "a client used up its retries: the run dropped it"
    if cell.faults in ("inert", "retries"):
        assert summary.retries == 0, "a fault-free run retried"
    fired = {
        "supervisor": summary.retries,
        "wire": sum(network.get(key, 0) for key in ("injected_disconnects", "injected_delays", "injected_corruptions")),
        "sigkill": getattr(backend, "respawns", 0),
    }.get(cell.faults, 1)
    # Every client's loss, but not their mean: a retry moves a client in the arrival order the mean sums in.
    rounds = [
        (record.round_index, record.per_client_loss,
         {key: value for key, value in record.extra.items() if key not in FAULT_KEYS})
        for record in training.history
    ]
    result = digests(training)
    del training, algorithm  # the closed backend stays: nothing it keeps may hold an update
    alive = ORACLES.count_alive(watched)
    assert watched and alive == 0, f"{alive} of {len(watched)} updates outlived run() on the {backend.name} backend"
    return result, rounds, fired


def run_cell(cell, make_trio, make_directory, num_channels, tmp_path):
    """The cell's digests and every round's record, after checking that its faults fired and its rounds left nothing alive."""
    config = replace(TINY_CONFIG, compute_dtype=cell.dtype)
    roster, checkpoint, rounds, fired = Trio(cell, make_trio, make_directory), None, [], 0
    if cell.resume == "resumed":
        checkpoint = CheckpointManager(tmp_path / "checkpoints")
        roster.marker = str(tmp_path / "died")
        _, rounds, fired = run_phase(cell, roster, replace(config, rounds=1), checkpoint, num_channels)
    roster.marker = str(tmp_path / "died-again")
    result, resumed, last = run_phase(cell, roster, config, checkpoint, num_channels)
    assert fired + last > 0, f"the {cell.faults} plan never fired"
    assert all(directory.materialized_count == 0 for directory in roster.directories)
    # The first phase's rounds, but not the fine-tuning pass that ended it early.
    return result, [record for record in rounds if record[0] < resumed[0][0]] + resumed


_REFERENCES = {}


def _param(cell):
    reason = xfail_reason(cell)
    marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
    return pytest.param(cell, marks=marks, id="-".join(cell))


@pytest.mark.parametrize("cell", [_param(cell) for cell in CELLS])
def test_cell(cell, make_trio, make_directory, num_channels, tmp_path):
    plain = cell._replace(**DEFAULTS)  # serial, eager, fault-free, uninterrupted: once per session
    if plain not in _REFERENCES:
        _REFERENCES[plain] = run_cell(plain, make_trio, make_directory, num_channels, tmp_path / "reference")
    assert run_cell(cell, make_trio, make_directory, num_channels, tmp_path) == _REFERENCES[plain]


@pytest.mark.parametrize("cell", [_param(cell) for cell in REFUSED])
def test_refused_cell(cell, make_trio, num_channels):
    with pytest.raises(ValueError, match=refusal(cell)):
        build_named(cell.algorithm, make_trio(), num_channels, scheduler=_scheduler(cell), resilience=_resilience(cell))


def test_the_table_covers_every_pair():
    """Every pair of axis values some combination that should hold holds is in a cell that should."""
    combos, holding = ([cell for cell in cells if not xfail_reason(cell)] for cells in (runnable(), CELLS))
    assert {pair for cell in combos for pair in _tuples(cell, 2)} <= {pair for cell in holding for pair in _tuples(cell, 2)}
    assert all(any(holds(cell, values) and len(xfail_reasons(cell)) == 1 for cell in CELLS) for values in HOLES)
    feasible = [values for values in TRIPLES if any(holds(cell, values) for cell in combos)]
    assert all(any(holds(cell, values) for cell in holding) for values in feasible)
    assert len(set(CELLS)) == len(CELLS) == CELLS_TARGET
    assert not any(meaningless(cell) or refusal(cell) for cell in CELLS)
    assert all(refusal(cell) for cell in REFUSED)
