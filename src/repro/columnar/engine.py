"""The columnar front end: plan → emit → merge, in one call.

``run_columnar`` is the array-path counterpart of
:meth:`repro.core.cohort.CohortSimulation.run` — same inputs, same plan,
same canonical record stream (by digest), with the testbed's event loop
replaced by closed-form emission.  A fault model goes straight to the
planner, which applies it to the raw tables before admission.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.cloud.metering import UsageRecord
from repro.columnar.kernels import iter_record_batches
from repro.columnar.merge import CanonicalMerger
from repro.columnar.planner import plan_columns
from repro.core.cohort import CohortConfig
from repro.core.course import COURSE, CourseDefinition

if TYPE_CHECKING:
    from repro.core.cohort import FaultModel


@dataclass(frozen=True)
class ColumnarRun:
    """Result of one columnar semester simulation."""

    seed: int
    students: int
    groups: int
    activities: int
    records: int
    unit_hours: float
    digest: str | None
    record_list: list[UsageRecord] | None
    sweep_info: dict[str, bool] = field(default_factory=dict)


def run_columnar(
    course: CourseDefinition = COURSE,
    config: CohortConfig | None = None,
    *,
    workers: int = 1,
    faults: "FaultModel | None" = None,
    include_project: bool = True,
    digest: bool = True,
    collect_records: bool = False,
    n_buckets: int = 64,
    chunk_rows: int = 2_000_000,
    spill_dir: str | Path | None = None,
) -> ColumnarRun:
    """Simulate one semester through the columnar engine.

    ``digest=False`` skips the digest (the merge still sorts, counts and
    sums unit-hours).  The digest formats each distinct field value once
    per slice of sorted rows, which adds about half again to a
    500×-cohort run, so throughput benchmarks leave it off.  ``spill_dir``
    bounds peak memory by spilling merge buckets to scratch files.
    """
    config = config if config is not None else CohortConfig()
    plan = plan_columns(course, config, workers=workers, faults=faults)
    tables = plan.tables
    if not include_project:
        tables = _labs_only(tables)
    merger = CanonicalMerger(
        plan.schema, plan.semester_hours, n_buckets=n_buckets, spill_dir=spill_dir
    )
    for batch in iter_record_batches(
        tables, plan.schema, plan.semester_hours, chunk_rows=chunk_rows
    ):
        merger.add(batch)
    result = merger.finalize(digest=digest, collect_records=collect_records)
    return ColumnarRun(
        seed=config.seed,
        students=plan.schema.n_students,
        groups=plan.schema.n_groups,
        activities=tables.activity_count,
        records=result.count,
        unit_hours=result.unit_hours,
        digest=result.digest,
        record_list=result.records,
        sweep_info=dict(plan.sweep_info),
    )


def _labs_only(tables):
    """Drop the project-phase families (the serial ``include_project=False``)."""
    for family in ("pvm", "pl", "ps"):
        tables = tables.take(family, slice(0, 0))
    return tables
