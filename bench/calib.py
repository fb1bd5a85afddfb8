"""Machine-speed calibration and the ``cycle_s`` estimator.

The box this benchmark runs on is shared: its speed swings by tens of
percent over seconds to minutes while process CPU time still equals wall
time (the neighbours slow caches, memory and the sibling hyperthread, they
do not deschedule us), so no statistic of raw wall time repeats.  The
harness therefore samples the machine's speed with a fixed kernel at every
*marker* -- each cycle boundary and each client-task boundary inside a
cycle -- and rescales the wall time between two consecutive markers by the
mean of the two samples that bracket it:

    segment_s = wall / mean(slowness_before, slowness_after)

A cycle's calibrated time is the sum of its segments, so the unit stays
seconds, at the reference machine speed, and the samples' own time is never
inside a segment.  The kernel imports nothing from ``repro``: a change to
the program under test can never move the yardstick.
"""

from __future__ import annotations

import gc
import resource
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Repeats of the bulk kernel per marker sample.
SAMPLE_REPEATS = 4
#: Duration of one marker sample's two kernels at the reference machine speed
#: -- what this box takes on an ordinary day when the sample runs between two
#: stretches of the workload (cold caches), so calibrated seconds read close
#: to wall seconds here.  Committed constants: changing one rescales every
#: time metric.
BULK_REF_S = 0.019
DISPATCH_REF_S = 0.0014

_rng = np.random.default_rng(12345)
_TAKE_SOURCE = _rng.random(1 << 20)
_TAKE_INDEX = _rng.integers(0, 1 << 20, size=500_000)
_TAKE_OUT = np.empty(500_000)
_GEMM_A = _rng.random((64, 486))
_GEMM_B = _rng.random((486, 1024))
_GEMM_OUT = np.empty((64, 1024))
_EDGES = np.linspace(0.0, 1.0, 17)
del _rng


def calibration_kernel() -> Tuple[float, float]:
    """Run the two fixed kernels; returns their wall durations in seconds.

    *Bulk* mirrors what local training spends its time on: an index gather
    (im2col), a GEMM of the 9x9-conv shape, an elementwise pass (ReLU) and
    a little interpreter dispatch.  *Dispatch* mirrors the corpus code: a
    Python loop of NumPy calls on arrays of three elements, where the
    interpreter and NumPy's call overhead are the whole cost.  The two slow
    down by different amounts when the neighbours get busy.
    """
    start = time.perf_counter()
    for _ in range(SAMPLE_REPEATS):
        np.take(_TAKE_SOURCE, _TAKE_INDEX, out=_TAKE_OUT, mode="clip")
        np.matmul(_GEMM_A, _GEMM_B, out=_GEMM_OUT)
        np.maximum(_GEMM_OUT, 0.5, out=_GEMM_OUT)
        total = 0
        for value in range(2000):
            total += value
    middle = time.perf_counter()
    overlap = 0.0
    for index in range(150):
        columns = np.arange(index % 5, index % 5 + 3)
        shares = np.minimum(0.7, _EDGES[columns + 1]) - np.maximum(0.1, _EDGES[columns])
        overlap += float(np.clip(shares, 0.0, None).sum())
    return middle - start, time.perf_counter() - middle


def slowness(bulk_s: float, dispatch_s: float, dispatch_share: float) -> float:
    """How slow the machine is now (1.0 = reference speed), from one sample.

    ``dispatch_share`` is the weight of the dispatch kernel: 0 for the
    workloads local training dominates, 0.5 for the pipeline workload.
    Measured on this box (ten runs each, lower quartile of the cycles,
    interquartile range / median across runs): pipeline_smoke raw 20.6 %,
    bulk only 10.4 %, dispatch only 10.6 %, half and half 6.4 %;
    fed9_flnet16 across three runs ranged 1 % with bulk only, 5 % half and
    half.
    """
    return (1.0 - dispatch_share) * bulk_s / BULK_REF_S + dispatch_share * dispatch_s / DISPATCH_REF_S


def lower_quartile(values: Sequence[float]) -> float:
    """The 25th percentile (linear interpolation between order statistics).

    Contention only ever adds time and arrives in bursts, so the median of
    a run's cycles repeats worse than a lower quantile; the minimum is
    hostage to one lucky calibration sample.  The lower quartile sits
    between the two.
    """
    return quantile(values, 0.25)


def quantile(values: Sequence[float], share: float) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _kernel_seconds() -> float:
    """CPU time the kernel has spent on this process's behalf so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_stime


#: One marker: ``end`` of the segment before it, the sample's ``bulk`` and
#: ``dispatch`` seconds, ``start`` of the segment after it, ``label`` of the
#: phase it opens (``None`` for a tick), and the process's kernel CPU seconds
#: at ``end`` and at ``start``.
Mark = Dict[str, object]


class MarkerClock:
    """The run's timeline: markers, and the calibrated segments between them.

    ``boundary(label)`` closes the running phase and opens phase ``label``
    (it also collects garbage, outside any segment); ``tick()`` is a marker
    inside a phase.  Markers recorded by another process on the same
    monotonic clock join the timeline through :meth:`merge`.
    """

    def __init__(self, origin: float, dispatch_share: float = 0.0):
        #: Start of the first segment (the process's first line).
        self.origin = origin
        self.dispatch_share = dispatch_share
        self.marks: List[Mark] = []

    def _mark(self, label: Optional[str]) -> None:
        end, kernel_end = time.perf_counter(), _kernel_seconds()
        if label is not None:
            gc.collect()
        bulk, dispatch = calibration_kernel()
        self.marks.append(
            {"end": end, "bulk": bulk, "dispatch": dispatch, "start": time.perf_counter(), "label": label,
             "kernel_end": kernel_end, "kernel_start": _kernel_seconds()}
        )

    def boundary(self, label: str) -> None:
        self._mark(label)

    def tick(self) -> None:
        self._mark(None)

    def merge(self, marks: Sequence[Mark]) -> None:
        """Add tick markers (``end``, ``bulk``, ``dispatch``, ``start``) of another process."""
        self.marks.extend({**mark, "label": None} for mark in marks)
        self.marks.sort(key=lambda mark: mark["end"])

    def now(self) -> float:
        """The machine's slowness from a fresh sample (for work timed off the timeline)."""
        return slowness(*calibration_kernel(), self.dispatch_share)

    def phases(self) -> List[Dict[str, object]]:
        return phases_of(self.origin, self.marks, self.dispatch_share)


def phases_of(origin: float, marks: Sequence[Mark], dispatch_share: float = 0.0) -> List[Dict[str, object]]:
    """Every closed phase: label, start, end, raw, kernel and calibrated seconds.

    The stretch from ``origin`` to the first boundary is the phase
    ``"start"``; its first segment has no sample before it and is scaled by
    the one after it alone.  ``kernel_s`` is the kernel CPU time of the
    process that owns the clock between the phase's two boundaries.
    """
    phases: List[Dict[str, object]] = []
    label = "start"
    phase_start = segment_start = origin
    previous_sample: Optional[float] = None
    raw = scaled = kernel_start = 0.0
    for mark in marks:
        wall = mark["end"] - segment_start
        sample = slowness(mark["bulk"], mark["dispatch"], dispatch_share)
        before = sample if previous_sample is None else previous_sample
        raw += wall
        scaled += wall / (0.5 * (before + sample))
        if mark["label"] is not None:
            phases.append(
                {"label": label, "start": phase_start, "end": mark["end"], "raw_s": raw,
                 "calibrated_s": scaled, "kernel_s": mark["kernel_end"] - kernel_start}
            )
            label, phase_start, raw, scaled = mark["label"], mark["start"], 0.0, 0.0
            kernel_start = mark["kernel_start"]
        segment_start, previous_sample = mark["start"], sample
    return phases
