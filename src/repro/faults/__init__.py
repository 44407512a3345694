"""Deterministic testbed fault injection.

The paper's cost long tail is driven by operational friction — re-runs,
abandoned-then-relaunched labs, instances left running — yet a simulator
of a *perfectly reliable* testbed cannot ask how infrastructure
unreliability reshapes the usage and cost distributions it measures.
This package adds a seeded fault layer in two halves:

* **Plan-time** (:mod:`repro.faults.plan`, :mod:`repro.faults.sweep`):
  seeded generators resolve site outages, per-instance hardware
  failures, and transient API-error bursts into a static
  :class:`~repro.faults.plan.FaultCalendar`, and a
  :class:`~repro.faults.sweep.FaultSweep` rewrites the planner's raw
  activity tables — killed segments, backoff-delayed relaunches with redo
  hours, abandoned labs — *before* the admission sweeps.  Every cohort
  engine takes the sweep the same way, as ``faults=FaultSweep(calendar)``,
  and the ledger is read from the sweep afterwards.  Execution
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

The sweep and injector names bind on first use (PEP 562), so the
serving engines load the calendar half alone (DESIGN §15).
"""

import importlib
from typing import TYPE_CHECKING

from repro.faults.plan import (
    SERVING_SITE,
    ApiErrorBurst,
    FaultCalendar,
    FaultPlanConfig,
    OutageWindow,
    build_fault_calendar,
    build_outage_calendar,
    build_serving_calendar,
    partial_serving_site,
    serving_scope,
)

if TYPE_CHECKING:  # bound on first use by __getattr__ below
    from repro.faults.inject import FaultInjector, InjectorStats
    from repro.faults.sweep import (
        FaultEvent,
        FaultLedger,
        FaultSweep,
    )

__all__ = [
    "FaultPlanConfig",
    "FaultCalendar",
    "OutageWindow",
    "ApiErrorBurst",
    "FaultEvent",
    "FaultLedger",
    "FaultSweep",
    "SERVING_SITE",
    "build_fault_calendar",
    "build_outage_calendar",
    "build_serving_calendar",
    "partial_serving_site",
    "serving_scope",
    "FaultInjector",
    "InjectorStats",
]


def __getattr__(name: str) -> object:
    if name in __all__:
        for module in ("repro.faults.inject", "repro.faults.sweep"):
            namespace = vars(importlib.import_module(module))
            if name in namespace:
                globals()[name] = namespace[name]
                return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
