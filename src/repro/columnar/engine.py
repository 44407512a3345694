"""The columnar front end: plan → emit → merge, in one call.

``run_columnar`` is the array-path counterpart of
:meth:`repro.core.cohort.CohortSimulation.run` — same inputs, same plan,
same canonical record stream (by digest), with the testbed's event loop
replaced by closed-form emission.  A fault model goes straight to the
planner, which applies it to the raw tables before admission.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """Result of one columnar semester simulation.

    ``sweep_info`` and ``draw_info`` are the plan's
    (:class:`repro.columnar.planner.ColumnarPlan`): which admission fast
    paths held, and what the draw replay finished in place or redrew.
    """

    seed: int
    students: int
    groups: int
    activities: int
    records: int
    unit_hours: float
    digest: str | None
    record_list: list[UsageRecord] | None
    sweep_info: dict[str, bool] = field(default_factory=dict)
    draw_info: dict[str, int] = field(default_factory=dict)


def run_columnar(
    course: CourseDefinition = COURSE,
    config: CohortConfig | None = None,
    *,
    faults: "FaultModel | None" = None,
    digest: bool = True,
    collect_records: bool = False,
) -> ColumnarRun:
    """Simulate one semester through the columnar engine.

    ``digest=False`` skips the digest (the merge still sorts, counts and
    sums unit-hours).  The digest writes every record's ``repr`` text as
    bytes, with one ``float.__repr__`` per distinct float in a slice of
    sorted rows.  That about doubles the time of a 500×-cohort run, so
    throughput benchmarks leave it off.
    """
    config = config if config is not None else CohortConfig()
    plan = plan_columns(course, config, faults=faults)
    merger = CanonicalMerger(plan.schema, plan.semester_hours)
    for batch in iter_record_batches(plan.tables, plan.schema, plan.semester_hours):
        merger.add(batch)
    result = merger.finalize(digest=digest, collect_records=collect_records)
    return ColumnarRun(
        seed=config.seed,
        students=plan.schema.n_students,
        groups=plan.schema.n_groups,
        activities=plan.tables.activity_count,
        records=result.count,
        unit_hours=result.unit_hours,
        digest=result.digest,
        record_list=result.records,
        sweep_info=dict(plan.sweep_info),
        draw_info=dict(plan.draw_info),
    )
