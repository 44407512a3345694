"""Closed-loop resilience: retries, breakers, shedding, and the storm.

`repro.loadgen` answers "what does serving this traffic cost?" for
clients that shrug off failure.  This package models the clients real
systems actually have — ones that *retry* — and the defenses that keep
retries from becoming the outage:

* `repro.resilience.clients` — the closed loop: per-request retry
  schedules planned from seeded streams, a token-bucket retry budget
  capping amplification at 1 + fill ratio.
* `repro.resilience.breaker` — the serving front door's circuit breaker
  (the shared `repro.common.breaker` state machine plus the
  outcome-to-error-window mapping).
* `repro.resilience.shedding` — priority-tiered load shedding and the
  brownout mode, priced at a quality discount.
* `repro.resilience.scenario` — the metastable retry-storm experiment:
  one outage, the client-policy ladder, reported as amplification,
  time-to-recovery, and storm cost per policy.
* `repro.resilience.sweep` + `repro.resilience.report` — the one storm
  runner and the phase-map campaign: the storm fanned over load × outage
  length × outage scope × policy × budget fill × breaker threshold
  through `repro.parallel`, every point classified RECOVERED / DEGRADED /
  LOCKED and the defended survivors priced into a ($/M effective,
  time-to-recovery) Pareto frontier.  The ladder (`run_storm`) is its
  one-cell case.

Same determinism contract as every other subsystem: all randomness is
resolved at plan time, and ``python -m repro.verify storm sweep`` proves
the storm/sweep digests are byte-identical under rerun, evaluation-order
perturbation, and worker counts {1, 2, 4}.
"""

from repro.common.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerConfig,
    BreakerTelemetry,
    CircuitBreaker,
    RetryBreaker,
)
from repro.resilience.breaker import FrontDoor, serving_breaker_config
from repro.resilience.clients import (
    RETRYABLE,
    ClientConfig,
    ClosedLoopRuntime,
    ResilienceModel,
    ResilienceOutcome,
    RetryBudgetConfig,
    plan_resilience,
)
from repro.resilience.report import PointMetrics, SweepReport
from repro.resilience.scenario import (
    DEFENDED_POLICIES,
    POLICIES,
    RUNGS,
    RungMetrics,
    RungSpec,
    StormConfig,
    StormReport,
    policy_spec,
    storm_ladder,
)
from repro.resilience.shedding import CongestionConfig, SheddingConfig, assign_tiers
from repro.resilience.sweep import (
    PHASES,
    PointSpec,
    SweepAxes,
    SweepConfig,
    build_points,
    classify,
    quick_sweep_config,
    run_storm,
    run_sweep,
)

__all__ = [
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "BreakerConfig",
    "BreakerTelemetry",
    "CircuitBreaker",
    "RetryBreaker",
    "FrontDoor",
    "serving_breaker_config",
    "RETRYABLE",
    "ClientConfig",
    "ClosedLoopRuntime",
    "ResilienceModel",
    "ResilienceOutcome",
    "RetryBudgetConfig",
    "plan_resilience",
    "DEFENDED_POLICIES",
    "PHASES",
    "POLICIES",
    "RUNGS",
    "PointMetrics",
    "PointSpec",
    "RungMetrics",
    "RungSpec",
    "StormConfig",
    "StormReport",
    "SweepAxes",
    "SweepConfig",
    "SweepReport",
    "build_points",
    "classify",
    "policy_spec",
    "quick_sweep_config",
    "run_storm",
    "run_sweep",
    "storm_ladder",
    "CongestionConfig",
    "SheddingConfig",
    "assign_tiers",
]
