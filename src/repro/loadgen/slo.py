"""Service-level objectives: the serving stack's pass/fail contract.

An SLO here is the pair every serving team actually signs: a tail-latency
budget (p99 of *served* requests) and a loss budget (fraction of offered
requests that never got a response — rejected, dropped, errored, or
failed mid-flight).  Counting losses in the SLO matters: an admission
policy can make p99 arbitrarily good by shedding every queued request,
so latency alone is gameable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.errors import ValidationError
from repro.loadgen.sim import TrafficResult


@dataclass(frozen=True)
class SloPolicy:
    """The objective: tail latency under budget, losses under budget."""

    p99_budget_ms: float = 250.0
    max_loss_rate: float = 0.01

    def __post_init__(self) -> None:
        if not (0 < self.p99_budget_ms < math.inf):
            raise ValidationError(f"latency budget must be positive: {self!r}")
        if not (0.0 <= self.max_loss_rate < 1.0):
            raise ValidationError(f"loss budget must be in [0, 1): {self!r}")


@dataclass(frozen=True)
class SloOutcome:
    """One run judged against one policy."""

    policy: SloPolicy
    p50_ms: float
    p95_ms: float
    p99_ms: float
    loss_rate: float
    offered: int
    served: int

    @property
    def latency_ok(self) -> bool:
        """Vacuously true with zero served requests: percentiles are NaN
        (no latency evidence either way), and ``NaN <= budget`` would
        silently read as a latency violation.  A served-nothing run is
        judged — and fails — on the loss gate, which is the gate that
        actually observed the problem."""
        if self.served == 0:
            return True
        return self.p99_ms <= self.policy.p99_budget_ms

    @property
    def loss_ok(self) -> bool:
        return self.loss_rate <= self.policy.max_loss_rate

    @property
    def attained(self) -> bool:
        return self.latency_ok and self.loss_ok


def evaluate_slo(result: TrafficResult, policy: SloPolicy | None = None) -> SloOutcome:
    """Judge one simulated run against the policy."""
    policy = policy if policy is not None else SloPolicy()
    return SloOutcome(
        policy=policy,
        p50_ms=result.p50_ms,
        p95_ms=result.p95_ms,
        p99_ms=result.p99_ms,
        loss_rate=result.loss_rate,
        offered=result.offered,
        served=result.served,
    )
