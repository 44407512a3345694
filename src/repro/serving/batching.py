"""Dynamic batching queue simulation.

Simulates a Triton-style dynamic batcher: requests arrive on a Poisson (or
supplied) process; an idle model instance collects up to ``max_batch``
requests, waiting at most ``max_queue_delay_ms`` for stragglers, then runs
one batched inference.  Per-request latency = completion − arrival, so the
simulation exposes the batching trade-off the lab measures: higher delay →
bigger batches → more throughput but worse p99 under light load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.common.errors import ValidationError


@dataclass(frozen=True)
class BatchingConfig:
    """Dynamic batcher settings."""

    max_batch: int = 8
    max_queue_delay_ms: float = 5.0
    n_instances: int = 1

    def __post_init__(self) -> None:
        if self.max_batch <= 0 or self.n_instances <= 0 or not (
            0 <= self.max_queue_delay_ms < math.inf
        ):
            raise ValidationError(f"invalid batching config: {self!r}")

    @property
    def delay_s(self) -> float:
        """The straggler window in seconds (simulation-time unit)."""
        return self.max_queue_delay_ms / 1e3

    def window_close(self, earliest_start_s: float) -> float:
        """Latest instant a follower may still join a batch whose leader
        could start service at ``earliest_start_s``.

        This is the one definition of the batching window; both
        :func:`simulate_batching` and the ``repro.loadgen`` request queue
        collect followers against it, so the closed-loop benchmark and the
        open-loop traffic simulation implement the same batcher.
        """
        return earliest_start_s + self.delay_s


@dataclass(frozen=True)
class BatchingResult:
    """Per-request latency statistics of one simulated run."""

    latencies_ms: np.ndarray
    batch_sizes: np.ndarray
    duration_s: float

    @property
    def throughput_rps(self) -> float:
        return len(self.latencies_ms) / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def mean_batch(self) -> float:
        return float(self.batch_sizes.mean()) if len(self.batch_sizes) else 0.0

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.latencies_ms, q))

    @property
    def p50_ms(self) -> float:
        return self.percentile(50)

    @property
    def p95_ms(self) -> float:
        return self.percentile(95)

    @property
    def p99_ms(self) -> float:
        return self.percentile(99)


def poisson_arrivals(rate_rps: float, n: int, *, seed: int = 0) -> np.ndarray:
    """Arrival timestamps (seconds) of a Poisson process."""
    if rate_rps <= 0 or n <= 0:
        raise ValidationError("rate and count must be positive")
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / rate_rps, size=n))


def simulate_batching(
    arrivals_s: np.ndarray,
    service_time_ms: Callable[[int], float],
    config: BatchingConfig,
) -> BatchingResult:
    """Run the batcher over ``arrivals_s`` (sorted seconds).

    ``service_time_ms(batch)`` is the device latency model (typically
    :meth:`repro.serving.engine.InferenceEngine.latency_ms`).
    """
    arrivals = np.asarray(arrivals_s, dtype=float)
    if arrivals.ndim != 1 or len(arrivals) == 0:
        raise ValidationError("need a non-empty 1-D arrival array")
    if np.any(np.diff(arrivals) < 0):
        raise ValidationError("arrivals must be sorted")

    n = len(arrivals)
    instance_free = np.zeros(config.n_instances)
    completion = np.empty(n)
    batch_sizes: list[int] = []

    i = 0
    while i < n:
        k = int(np.argmin(instance_free))
        # the batch leader is request i; service can start once the instance
        # is free and the leader has arrived
        earliest = max(instance_free[k], arrivals[i])
        # collect followers: anyone arriving within the delay window (from
        # the moment the leader could start), up to max_batch
        window_close = config.window_close(earliest)
        j = i + 1
        while j < n and j - i < config.max_batch and arrivals[j] <= window_close:
            j += 1
        batch = j - i
        start = max(earliest, arrivals[j - 1]) if batch > 1 else earliest
        finish = start + service_time_ms(batch) / 1e3
        completion[i:j] = finish
        instance_free[k] = finish
        batch_sizes.append(batch)
        i = j

    latencies_ms = (completion - arrivals) * 1e3
    duration = float(completion.max() - arrivals.min())
    return BatchingResult(
        latencies_ms=latencies_ms,
        batch_sizes=np.array(batch_sizes),
        duration_s=duration,
    )
