"""Deterministic process-pool execution of the cohort simulation.

The classic shape of a data-parallel training-stack runner, applied to
the semester: the cohort **plan** (already resolved into independent
per-student / per-group shards by :func:`repro.core.cohort.plan_cohort`,
with every seed derived from one ``numpy.random.SeedSequence`` tree) is
fanned out to worker processes, each shard executes on a private
testbed, and the resulting :class:`~repro.cloud.metering.UsageRecord`
shards are reduced under a canonical total order.  The contract — tested
in ``tests/parallel`` and gated in CI — is that

    ``run_parallel(course, config, workers=N, faults=sweep)``

is **digest-identical** to the serial ``CohortSimulation(course,
config, faults=sweep).run()`` for every seed, every ``N`` and every
fault calendar (each run takes its own
:class:`~repro.faults.sweep.FaultSweep` over the shared calendar).

Why that holds (the short version; EXPERIMENTS.md has the long one):

* planning is serial and deterministic, and resolves *all* randomness
  and all cross-shard coupling (duration pools, the slot calendar, quota
  admission) before any shard executes;
* shard execution is RNG-free and touches only its own testbed, so
  record *content* cannot depend on which process ran it;
* :func:`~repro.core.usage.canonicalize_records` erases the two
  sharding artifacts — record order and IdGenerator numbering — the
  same way for any shard partition, including the serial "one shard
  list" case.

Every name below binds on first use (PEP 562), so that
:mod:`repro.parallel.pool` loads without the cohort or the testbed.
"""

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # bound on first use by __getattr__ below
    from repro.parallel.engine import (
        EngineTelemetry,
        ShardResult,
        SupervisedRun,
        SupervisorHalt,
        SupervisorPolicy,
        batch_shards,
        run_parallel,
        run_parallel_supervised,
    )

__all__ = [
    "run_parallel",
    "run_parallel_supervised",
    "EngineTelemetry",
    "ShardResult",
    "SupervisedRun",
    "SupervisorHalt",
    "SupervisorPolicy",
    "batch_shards",
]


def __getattr__(name: str) -> object:
    if name in __all__:
        value = getattr(importlib.import_module("repro.parallel.engine"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
