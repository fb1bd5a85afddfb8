"""Retry policy: bounded attempts with deterministic seeded backoff.

The policy is *stateless* — backoff jitter is a pure function of
``(seed, client id, attempt)`` via the counter-based
:class:`numpy.random.SeedSequence` idiom, so retried schedules are
bit-reproducible across backends and across checkpoint resumes without
carrying any mutable RNG state.

Backoff elapses on the **virtual clock** (the same clock the scheduler's
latency model advances), never wall time: a chaos run with thousands of
retries finishes as fast as a healthy one while still accounting the
simulated seconds spent waiting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.fl.faults.plan import _client_key
from repro.utils.validation import check_positive

#: Domain-separation tag for retry-jitter draws.
RETRY_SEED_TAG = 0x6B0F

#: Default bound on re-dispatches per task when supervision is requested
#: without an explicit ``max_retries``.
DEFAULT_MAX_RETRIES = 2


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential, deterministically jittered backoff.

    Parameters
    ----------
    max_retries:
        Re-dispatches allowed per task (0 = fail on first error).  A task
        therefore runs at most ``max_retries + 1`` times.
    backoff_base / backoff_factor:
        Virtual seconds waited before retry ``n`` (1-based) follow
        ``base * factor**(n-1)``, scaled by the jitter below.
    jitter:
        Relative jitter amplitude: the wait is multiplied by
        ``1 + jitter * u`` with ``u`` drawn uniformly from ``[0, 1)`` by a
        seeded counter-based RNG (deterministic per client and attempt).
    task_timeout:
        Optional per-task wall-clock timeout in seconds, enforced by the
        backends that can abandon a running task (process and wire; the
        thread pool stops *waiting* but cannot reclaim the thread; the
        serial backend ignores it — a task it runs has already finished).
    seed:
        Base seed for the jitter draws.
    """

    max_retries: int = DEFAULT_MAX_RETRIES
    backoff_base: float = 1.0
    backoff_factor: float = 2.0
    jitter: float = 0.1
    task_timeout: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("max_retries", self.max_retries, allow_zero=True)
        if self.backoff_base < 0.0 or self.backoff_factor < 1.0 or self.jitter < 0.0:
            raise ValueError(
                "backoff_base must be >= 0, backoff_factor >= 1, jitter >= 0"
            )
        if self.task_timeout is not None:
            check_positive("task_timeout", self.task_timeout)

    def backoff_seconds(self, client_id: str, attempt: int) -> float:
        """Virtual seconds to wait before re-dispatching ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        base = self.backoff_base * self.backoff_factor ** (attempt - 1)
        if self.jitter == 0.0 or base == 0.0:
            return float(base)
        entropy = [self.seed, RETRY_SEED_TAG, _client_key(client_id), attempt]
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        return float(base * (1.0 + self.jitter * float(rng.uniform())))

    def describe(self) -> str:
        """Short human-readable label used in reports."""
        parts = [f"max_retries={self.max_retries}"]
        if self.backoff_base:
            parts.append(f"backoff={self.backoff_base:g}s×{self.backoff_factor:g}")
        if self.task_timeout is not None:
            parts.append(f"timeout={self.task_timeout:g}s")
        return ", ".join(parts)


__all__ = ["DEFAULT_MAX_RETRIES", "RETRY_SEED_TAG", "RetryPolicy"]
