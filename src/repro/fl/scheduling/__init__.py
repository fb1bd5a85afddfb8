"""Client-population scheduling: who trains, when updates land, what counts.

This subpackage owns the client population *between* communication rounds —
the layer real cross-device federated systems live and die by:

samplers (:mod:`~repro.fl.scheduling.samplers`)
    Which clients participate: full participation, uniform ``C``-fraction
    sampling, weighted/importance sampling.  Seeded from the run seed so
    cohorts are bit-reproducible across execution backends and resume.
availability (:mod:`~repro.fl.scheduling.availability`)
    Which clients are reachable: always-on, Bernoulli dropout, day/night
    duty cycles phased per client.
latency (:mod:`~repro.fl.scheduling.latency`)
    How long each dispatched client takes: none, uniform, log-normal, and
    heavy-tailed (Pareto) straggler distributions.
clock (:mod:`~repro.fl.scheduling.clock`)
    The deterministic virtual clock; every run reports *simulated
    wall-clock time*, not just round counts.
scheduler (:mod:`~repro.fl.scheduling.scheduler`)
    The :class:`RoundScheduler` composing the above into the three round
    policies: synchronous barriers, deadline cutoffs with over-selection,
    and FedBuff-style buffered-asynchronous aggregation.

The run options behind all of it are the fields of
:class:`SchedulingOptions`, declared once with their ranges and CLI help.
A run whose options are all at their defaults gets no scheduler
(``create_scheduler(options, seed)`` returns ``None`` unless
``options.requested``); its round loop then goes round an inert
full-participation, always-available, zero-latency scheduler of its own, so
every client trains every round and nothing is dropped.
"""

from repro.fl.scheduling.availability import (
    AVAILABILITY_CHOICES,
    AlwaysAvailable,
    AvailabilityModel,
    BernoulliAvailability,
    DayNightAvailability,
    create_availability,
)
from repro.fl.scheduling.clock import VirtualClock
from repro.fl.scheduling.latency import (
    STRAGGLER_CHOICES,
    LatencyModel,
    LogNormalLatency,
    ParetoLatency,
    UniformLatency,
    ZeroLatency,
    create_latency,
)
from repro.fl.scheduling.samplers import (
    SAMPLER_CHOICES,
    ClientSampler,
    FullParticipation,
    UniformSampler,
    WeightedSampler,
    create_sampler,
)
from repro.fl.scheduling.scheduler import (
    ROUND_POLICY_CHOICES,
    RoundOutcome,
    RoundPlan,
    RoundScheduler,
    SchedulingOptions,
    SchedulingSummary,
    create_scheduler,
)

__all__ = [
    "SAMPLER_CHOICES",
    "ClientSampler",
    "FullParticipation",
    "UniformSampler",
    "WeightedSampler",
    "create_sampler",
    "AVAILABILITY_CHOICES",
    "AvailabilityModel",
    "AlwaysAvailable",
    "BernoulliAvailability",
    "DayNightAvailability",
    "create_availability",
    "STRAGGLER_CHOICES",
    "LatencyModel",
    "ZeroLatency",
    "UniformLatency",
    "LogNormalLatency",
    "ParetoLatency",
    "create_latency",
    "VirtualClock",
    "ROUND_POLICY_CHOICES",
    "RoundPlan",
    "RoundOutcome",
    "RoundScheduler",
    "SchedulingOptions",
    "SchedulingSummary",
    "create_scheduler",
]
