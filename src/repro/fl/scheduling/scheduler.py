"""The round scheduler: cohorts, deadlines, stragglers, and simulated time.

A :class:`RoundScheduler` owns the client population *between* rounds.  It
composes the four scheduling primitives — a
:class:`~repro.fl.scheduling.samplers.ClientSampler`, an
:class:`~repro.fl.scheduling.availability.AvailabilityModel`, a
:class:`~repro.fl.scheduling.latency.LatencyModel`, and the
:class:`~repro.fl.scheduling.clock.VirtualClock` — into the three round
policies an algorithm can run under:

``sync``
    Barrier rounds over the sampled cohort.  Every selected client's update
    is kept; the round lasts as long as its slowest client.
``deadline``
    Barrier rounds with a cutoff.  The cohort is inflated by the
    over-selection factor; updates arriving after ``deadline`` simulated
    seconds are *dropped* (recorded, discarded — exactly what a production
    server does), and the round lasts at most the deadline.
``fedbuff``
    Buffered-asynchronous aggregation (Nguyen et al., 2022).  The scheduler
    supplies sampling, latency draws, the clock, and staleness bookkeeping;
    the event loop itself lives in the algorithm (it owns model versions
    and aggregation).

Everything stochastic lives in seeded private RNGs whose states are exposed
through :meth:`RoundScheduler.state` / :meth:`RoundScheduler.set_state`, so
a resumed run replays the exact cohort/latency sequence of an uninterrupted
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fl.scheduling.availability import (
    AVAILABILITY_CHOICES,
    AvailabilityModel,
    create_availability,
)
from repro.fl.scheduling.clock import VirtualClock
from repro.fl.scheduling.latency import STRAGGLER_CHOICES, LatencyModel, create_latency
from repro.fl.scheduling.samplers import SAMPLER_CHOICES, ClientSampler, create_sampler
from repro.utils.validation import check_choice, check_in_range, check_positive

#: Round policies understood by :func:`create_scheduler` (and the CLI).
ROUND_POLICY_CHOICES = ("sync", "deadline", "fedbuff")

#: How far the clock advances when nobody is available to dispatch.
IDLE_WAIT_SECONDS = 60.0

#: Consecutive idle waits tolerated before the scheduler declares deadlock.
MAX_IDLE_WAITS = 100_000


@dataclass
class RoundPlan:
    """One round's dispatch decision, made before any client computes."""

    round_index: int
    #: Sorted roster indices selected for this round (may be empty).
    cohort: List[int]
    #: Virtual time at which the cohort was dispatched.
    start_time: float
    #: Roster indices that were available when the cohort was drawn.
    available: List[int] = field(default_factory=list)


@dataclass
class RoundOutcome:
    """What actually came back from one barrier-style round."""

    plan: RoundPlan
    #: Client updates kept by the policy, in cohort (roster) order.
    kept: List[object]
    #: Roster indices whose updates missed the deadline (discarded).
    dropped: List[int]
    #: Simulated round-trip duration per cohort roster index.
    latencies: Dict[int, float]
    #: Simulated duration of the round (the barrier wait).
    duration: float

    @property
    def record_extra(self) -> Dict[str, object]:
        """Per-round extras merged into the algorithm's history record."""
        return {
            "selected": len(self.plan.cohort),
            "arrived": len(self.kept),
            "dropped": len(self.dropped),
            "dropped_indices": list(self.dropped),
            "round_duration_s": self.duration,
            "simulated_time_s": self.plan.start_time + self.duration,
        }


@dataclass(frozen=True)
class SchedulingSummary:
    """Participation / simulated-time / staleness totals of one run."""

    policy: str
    sampler: str
    availability: str
    straggler: str
    rounds: int
    total_selected: int
    total_arrived: int
    total_dropped: int
    simulated_seconds: float
    buffered_aggregations: int = 0
    updates_buffered: int = 0
    mean_staleness: float = 0.0
    max_staleness: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "sampler": self.sampler,
            "availability": self.availability,
            "straggler": self.straggler,
            "rounds": self.rounds,
            "total_selected": self.total_selected,
            "total_arrived": self.total_arrived,
            "total_dropped": self.total_dropped,
            "simulated_seconds": self.simulated_seconds,
            "buffered_aggregations": self.buffered_aggregations,
            "updates_buffered": self.updates_buffered,
            "mean_staleness": self.mean_staleness,
            "max_staleness": self.max_staleness,
        }


@dataclass(frozen=True)
class SchedulingOptions:
    """The client-population options of a run, each declared once.

    A field is the option: its name is the ``with_scheduling`` keyword and
    (dashed) the ``repro reproduce`` flag, its metadata the flag's help and
    choices, and ``__post_init__`` its range.  An option that only one round
    policy or availability model reads is refused under any other rather
    than silently ignored.  At the defaults nothing is :attr:`requested` and
    :func:`create_scheduler` builds no scheduler: every client trains every
    round, and nothing about scheduling is fingerprinted, checkpointed or
    reported.
    """

    participation: Optional[float] = field(default=None, metadata={
        "help": "fraction of clients sampled per round (partial participation; "
        "cohorts are seeded from the run seed and bit-reproducible)",
    })
    clients_per_round: Optional[int] = field(default=None, metadata={
        "help": "absolute cohort size per round (alternative to --participation)",
    })
    sampler: Optional[str] = field(default=None, metadata={
        "choices": SAMPLER_CHOICES,
        "help": "cohort sampling rule: full, uniform, or weighted "
        "(importance sampling by client sample count)",
    })
    availability: Optional[str] = field(default=None, metadata={
        "choices": AVAILABILITY_CHOICES,
        "help": "per-client availability model: always (default), bernoulli "
        "(each query succeeds with --availability-rate), daynight "
        "(phased duty cycles on the virtual clock)",
    })
    availability_rate: float = field(default=0.9, metadata={
        "help": "bernoulli success probability / daynight duty fraction (default 0.9)",
    })
    straggler_model: Optional[str] = field(default=None, metadata={
        "choices": STRAGGLER_CHOICES,
        "help": "simulated round-trip latency per dispatched client: none, "
        "uniform, lognormal, heavytail (Pareto); drives the virtual clock "
        "and the deadline/fedbuff policies",
    })
    round_policy: str = field(default="sync", metadata={
        "choices": ROUND_POLICY_CHOICES,
        "help": "what the server does with straggler updates: sync (barrier), "
        "deadline (drop updates later than --deadline, over-selecting by "
        "--over-selection), fedbuff (buffered-asynchronous aggregation)",
    })
    deadline: Optional[float] = field(default=None, metadata={
        "help": "round cutoff in virtual seconds for --round-policy deadline",
    })
    over_selection: float = field(default=1.0, metadata={
        "help": "cohort inflation factor under the deadline policy (default 1.0; "
        "1.3 selects 30%% extra clients expecting drops)",
    })
    buffer_size: int = field(default=2, metadata={
        "help": "updates buffered per aggregation for --round-policy fedbuff (default 2)",
    })

    def __post_init__(self):
        if self.participation is not None:
            check_in_range("participation", self.participation, 0.0, 1.0, "(]")
        if self.clients_per_round is not None:
            check_positive("clients_per_round", self.clients_per_round)
        check_choice("sampler", self.sampler, (None, *SAMPLER_CHOICES))
        check_choice("availability", self.availability, (None, *AVAILABILITY_CHOICES))
        check_in_range("availability_rate", self.availability_rate, 0.0, 1.0, "(]")
        check_choice("straggler_model", self.straggler_model, (None, *STRAGGLER_CHOICES))
        check_choice("round_policy", self.round_policy, ROUND_POLICY_CHOICES)
        if self.deadline is not None:
            check_positive("deadline", self.deadline)
        elif self.round_policy == "deadline":
            raise ValueError(
                "the deadline round policy needs a positive deadline (virtual seconds)"
            )
        # Finite: the cohort size is int(ceil(over_selection * cohort)).
        check_in_range("over_selection", self.over_selection, 1.0, math.inf, "[)")
        check_positive("buffer_size", self.buffer_size)
        # An option only one round policy (or availability model) reads is
        # refused under any other instead of being silently ignored.
        if self.round_policy != "deadline":
            if self.deadline is not None:
                raise ValueError("deadline needs --round-policy deadline")
            if self.over_selection != 1.0:
                raise ValueError("over_selection needs --round-policy deadline")
        if self.round_policy != "fedbuff" and self.buffer_size != 2:
            raise ValueError("buffer_size needs --round-policy fedbuff")
        if self.availability not in ("bernoulli", "daynight") and self.availability_rate != 0.9:
            raise ValueError("availability_rate needs --availability bernoulli or daynight")

    @property
    def requested(self) -> bool:
        """Whether any option departs from the defaults: the one
        predicate behind "a scheduler exists" and "scheduling is reported"."""
        return (
            self.participation is not None
            or self.clients_per_round is not None
            or self.sampler is not None
            or (self.availability is not None and self.availability != "always")
            or (self.straggler_model is not None and self.straggler_model != "none")
            or self.round_policy != "sync"
        )


class RoundScheduler:
    """Coordinates who trains each round and when their updates land.

    A scheduler is stateful (sampler/availability/latency RNGs, the virtual
    clock, and participation counters); use one fresh scheduler per
    algorithm run, and :meth:`bind` it to the roster before the first round
    (``FederatedAlgorithm`` does this on construction).
    """

    def __init__(
        self,
        sampler: ClientSampler,
        availability: AvailabilityModel,
        latency: LatencyModel,
        options: SchedulingOptions = SchedulingOptions(),
        staleness_exponent: float = 0.5,
        clock: Optional[VirtualClock] = None,
    ):
        check_positive("staleness_exponent", staleness_exponent, allow_zero=True)
        self.sampler = sampler
        self.availability = availability
        self.latency = latency
        # The policy knobs arrive validated (SchedulingOptions.__post_init__).
        self.policy = options.round_policy
        self.deadline = float(options.deadline) if options.deadline is not None else None
        self.over_selection = float(options.over_selection)
        self.buffer_size = int(options.buffer_size)
        self.staleness_exponent = float(staleness_exponent)
        self.clock = clock if clock is not None else VirtualClock()
        self._client_ids: List[int] = []
        self._idle_waits = 0
        # Participation counters (part of the checkpointed state so a
        # resumed run reports the same totals as an uninterrupted one).
        self._rounds = 0
        self._selected = 0
        self._arrived = 0
        self._dropped = 0
        self._aggregations = 0
        self._buffered = 0
        self._staleness_sum = 0.0
        self._staleness_max = 0

    # -- roster ------------------------------------------------------------------
    def bind(self, clients: Sequence) -> None:
        """Attach the client roster (ids and aggregation weights)."""
        self._client_ids = [int(client.client_id) for client in clients]
        self.sampler.bind(
            len(self._client_ids),
            weights=[float(client.num_samples) for client in clients],
        )

    @property
    def num_clients(self) -> int:
        return len(self._client_ids)

    def client_id(self, index: int) -> int:
        return self._client_ids[index]

    # -- availability / sampling --------------------------------------------------
    def available_indices(self, exclude: Sequence[int] = ()) -> List[int]:
        """Roster indices reachable right now, queried in roster order."""
        excluded = set(int(index) for index in exclude)
        now = self.clock.now
        return [
            index
            for index, client_id in enumerate(self._client_ids)
            if index not in excluded and self.availability.available(index, client_id, now)
        ]

    def _select(
        self,
        round_index: int,
        exclude: Sequence[int] = (),
        size: Optional[int] = None,
        multiplier: float = 1.0,
    ) -> "Tuple[List[int], List[int]]":
        """One availability query + cohort draw; returns (cohort, available)."""
        available = self.available_indices(exclude)
        if not available:
            return [], []
        # Someone was reachable: the idle-wait deadlock counter restarts
        # (it tracks *consecutive* starved waits, not a run total).
        self._idle_waits = 0
        cohort = self.sampler.select(round_index, available, size=size, multiplier=multiplier)
        return cohort, available

    def sample_clients(
        self,
        round_index: int,
        exclude: Sequence[int] = (),
        size: Optional[int] = None,
        multiplier: float = 1.0,
    ) -> List[int]:
        """One cohort draw over the currently available clients.

        A request for zero (or fewer) clients returns immediately without
        querying availability, so no-op refills never consume
        availability-RNG draws.
        """
        if size is not None and int(size) <= 0:
            return []
        cohort, _ = self._select(round_index, exclude=exclude, size=size, multiplier=multiplier)
        return cohort

    def wait_for_clients(self) -> None:
        """Advance the clock one idle quantum (nobody available to dispatch)."""
        self._idle_waits += 1
        if self._idle_waits > MAX_IDLE_WAITS:
            raise RuntimeError(
                "no client became available after "
                f"{MAX_IDLE_WAITS} idle waits ({IDLE_WAIT_SECONDS}s each); "
                "the availability model starves the scheduler"
            )
        self.clock.advance(IDLE_WAIT_SECONDS)

    def draw_latency(self, index: int) -> float:
        """One simulated round-trip duration for roster index ``index``."""
        return max(0.0, float(self.latency.sample(index, self._client_ids[index])))

    # -- barrier round policies (sync / deadline) ---------------------------------
    def begin_round(self, round_index: int) -> RoundPlan:
        """Select this round's cohort at the current virtual time.

        When nobody is available the clock advances one idle quantum and
        selection is retried, so a day/night availability trough delays the
        round instead of silently producing empty rounds forever.
        """
        multiplier = self.over_selection if self.policy == "deadline" else 1.0
        while True:
            cohort, available = self._select(round_index, multiplier=multiplier)
            if available:
                return RoundPlan(
                    round_index=round_index,
                    cohort=cohort,
                    start_time=self.clock.now,
                    available=available,
                )
            self.wait_for_clients()

    def arrival_schedule(self, plan: RoundPlan) -> Dict[int, float]:
        """Pre-draw the cohort's latencies, in cohort order.

        The round loop needs each client's arrival time *before* its update
        is folded (to apply the deadline policy one update at a time).
        Drawing here consumes the latency RNG in exactly the order
        :meth:`complete_round` would on its own, so passing the result back
        via its ``latencies=`` parameter leaves every drawn value — and all
        later RNG consumption — unchanged.
        """
        return {index: self.draw_latency(index) for index in plan.cohort}

    def complete_round(
        self,
        plan: RoundPlan,
        updates: Sequence[object],
        latencies: Optional[Dict[int, float]] = None,
    ) -> RoundOutcome:
        """Apply the round policy to the cohort's computed updates.

        ``updates`` is aligned with ``plan.cohort``.  Latencies are drawn in
        cohort order (or taken from a pre-drawn ``latencies`` mapping from
        :meth:`arrival_schedule`); under the deadline policy, updates
        arriving late are dropped (their computation is discarded, exactly
        like a production server ignoring a straggler's upload).  Advances
        the virtual clock by the round's duration and updates the
        participation counters.
        """
        if len(updates) != len(plan.cohort):
            raise ValueError(
                f"got {len(updates)} updates for a cohort of {len(plan.cohort)}"
            )
        if latencies is None:
            latencies = self.arrival_schedule(plan)
        elif set(latencies) != set(plan.cohort):
            raise ValueError("latencies= must cover exactly the round's cohort")
        if self.policy == "deadline":
            kept = [
                update
                for index, update in zip(plan.cohort, updates)
                if latencies[index] <= self.deadline
            ]
            dropped = [index for index in plan.cohort if latencies[index] > self.deadline]
            kept_latencies = [value for value in latencies.values() if value <= self.deadline]
            duration = self.deadline if dropped else (max(kept_latencies) if kept_latencies else 0.0)
        else:
            kept = list(updates)
            dropped = []
            duration = max(latencies.values()) if latencies else 0.0
        self.clock.advance(duration)
        self._rounds += 1
        self._selected += len(plan.cohort)
        self._arrived += len(kept)
        self._dropped += len(dropped)
        return RoundOutcome(
            plan=plan, kept=kept, dropped=dropped, latencies=latencies, duration=duration
        )

    # -- fedbuff bookkeeping -------------------------------------------------------
    def staleness_weight(self, staleness: int) -> float:
        """FedBuff down-weighting: ``(1 + staleness) ** -exponent``."""
        return float((1.0 + max(0, int(staleness))) ** (-self.staleness_exponent))

    def record_dispatch(self, count: int) -> None:
        self._selected += int(count)

    def record_buffered(self, staleness: int) -> None:
        self._arrived += 1
        self._buffered += 1
        self._staleness_sum += float(staleness)
        self._staleness_max = max(self._staleness_max, int(staleness))

    def record_aggregation(self) -> None:
        self._rounds += 1
        self._aggregations += 1

    def record_discarded(self, count: int) -> None:
        """In-flight updates thrown away when the run stops (never aggregated)."""
        self._dropped += int(count)

    # -- state / summary -----------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """Stable fingerprint of the scheduling configuration.

        Stored in checkpoint fingerprints: resuming a partial-participation
        run under a different sampler, straggler model, or policy would
        silently diverge, so it must fail loudly instead.
        """
        description: Dict[str, object] = {
            "policy": self.policy,
            "sampler": self.sampler.describe(),
            "availability": self.availability.describe(),
            "straggler": self.latency.describe(),
            "over_selection": self.over_selection,
        }
        if self.deadline is not None:
            description["deadline"] = self.deadline
        if self.policy == "fedbuff":
            description["buffer_size"] = self.buffer_size
            description["staleness_exponent"] = self.staleness_exponent
        return description

    def state(self) -> Dict[str, object]:
        """Everything needed to resume scheduling bit-identically."""
        return {
            "clock": self.clock.state(),
            "sampler": self.sampler.state(),
            "availability": self.availability.state(),
            "latency": self.latency.state(),
            "counters": {
                "rounds": self._rounds,
                "selected": self._selected,
                "arrived": self._arrived,
                "dropped": self._dropped,
                "aggregations": self._aggregations,
                "buffered": self._buffered,
                "staleness_sum": self._staleness_sum,
                "staleness_max": self._staleness_max,
            },
        }

    def set_state(self, state: Dict[str, object]) -> None:
        """Restore a snapshot produced by :meth:`state` (checkpoint resume)."""
        self.clock.set_state(state.get("clock", {}))
        self.sampler.set_state(state.get("sampler", {}))
        self.availability.set_state(state.get("availability", {}))
        self.latency.set_state(state.get("latency", {}))
        counters = state.get("counters", {})
        self._rounds = int(counters.get("rounds", 0))
        self._selected = int(counters.get("selected", 0))
        self._arrived = int(counters.get("arrived", 0))
        self._dropped = int(counters.get("dropped", 0))
        self._aggregations = int(counters.get("aggregations", 0))
        self._buffered = int(counters.get("buffered", 0))
        self._staleness_sum = float(counters.get("staleness_sum", 0.0))
        self._staleness_max = int(counters.get("staleness_max", 0))

    def summary(self) -> SchedulingSummary:
        mean_staleness = self._staleness_sum / self._buffered if self._buffered else 0.0
        return SchedulingSummary(
            policy=self.policy,
            sampler=self.sampler.describe(),
            availability=self.availability.describe(),
            straggler=self.latency.describe(),
            rounds=self._rounds,
            total_selected=self._selected,
            total_arrived=self._arrived,
            total_dropped=self._dropped,
            simulated_seconds=self.clock.now,
            buffered_aggregations=self._aggregations,
            updates_buffered=self._buffered,
            mean_staleness=mean_staleness,
            max_staleness=self._staleness_max,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoundScheduler({self.describe()})"


def create_scheduler(options: SchedulingOptions, seed: int = 0) -> Optional[RoundScheduler]:
    """Build the :class:`RoundScheduler` a :class:`SchedulingOptions` asks for.

    Returns ``None`` unless ``options.requested``: full participation,
    always-on clients, no stragglers and synchronous rounds need no
    scheduler of their own (the round loop holds an inert one).  ``seed`` is
    the run seed: sampler, availability and latency streams all derive from
    it.
    """
    if not options.requested:
        return None
    return RoundScheduler(
        create_sampler(
            options.sampler,
            fraction=options.participation,
            clients_per_round=options.clients_per_round,
            seed=seed,
        ),
        create_availability(options.availability, rate=options.availability_rate, seed=seed),
        create_latency(options.straggler_model, seed=seed),
        options,
    )
