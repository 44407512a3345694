"""Deterministic testbed fault injection.

The paper's cost long tail is driven by operational friction — re-runs,
abandoned-then-relaunched labs, instances left running — yet a simulator
of a *perfectly reliable* testbed cannot ask how infrastructure
unreliability reshapes the usage and cost distributions it measures.
This package adds a seeded fault layer in two halves:

* **Plan-time** (:mod:`repro.faults.plan`): seeded generators resolve
  site outages, per-instance hardware failures, and transient API-error
  bursts into a static :class:`~repro.faults.plan.FaultCalendar`, and a
  :class:`~repro.faults.plan.FaultSweep` rewrites the planner's raw
  activity tables — killed segments, backoff-delayed relaunches with redo
  hours, abandoned labs — *before* the admission sweeps.  Execution
  stays RNG-free, so ``run_parallel(workers=N)`` and ``run_columnar``
  remain sha256 digest-identical to the serial run under any fault plan,
  and the empty calendar is byte-identical to no fault layer at all.
* **Runtime** (:mod:`repro.faults.inject`): a
  :class:`~repro.faults.inject.FaultInjector` drives a live testbed's
  compute/lease admission gates and unified terminal paths — raising
  :class:`~repro.common.errors.ServiceUnavailableError` during outages,
  :class:`~repro.common.errors.TransientError` during bursts, and
  force-terminating instances with their metering spans closed exactly
  once — for chaos tests and standalone what-ifs.

``python -m repro.faults`` runs the cohort under a fault plan and prints
the failure accounting (see ``--help``).
"""

from repro.faults.plan import (
    SERVING_SITE,
    ApiErrorBurst,
    FaultCalendar,
    FaultEvent,
    FaultLedger,
    FaultPlanConfig,
    FaultSweep,
    HardwareFailure,
    OutageWindow,
    build_fault_calendar,
    build_outage_calendar,
    build_serving_calendar,
    partial_serving_site,
    plan_faulted_cohort,
    serving_scope,
)
from repro.faults.inject import FaultInjector, InjectorStats

__all__ = [
    "FaultPlanConfig",
    "FaultCalendar",
    "OutageWindow",
    "ApiErrorBurst",
    "HardwareFailure",
    "FaultEvent",
    "FaultLedger",
    "FaultSweep",
    "SERVING_SITE",
    "build_fault_calendar",
    "build_outage_calendar",
    "build_serving_calendar",
    "partial_serving_site",
    "plan_faulted_cohort",
    "serving_scope",
    "FaultInjector",
    "InjectorStats",
]
