"""Fault-sweep overhead and the digest contract under chaos.

Resolving a fault calendar into the plan is pure bookkeeping — the pitch
is that resilience costs a planning pass, not an execution model.  This
bench times the full faulted path (plan + sweep + parallel execute +
merge) on a nonzero calendar, asserts the serial digest still matches at
``workers=4``, and records the ledger's damage report in the benchmark
JSON via ``extra_info``.

``--quick`` (CI smoke) shrinks the cohort; the digest check is the part
that must never regress.
"""

from repro.core import records_digest, scaled_course
from repro.core.cohort import CohortConfig, CohortSimulation, plan_cohort
from repro.faults.plan import FaultPlanConfig, build_fault_calendar
from repro.faults.sweep import FaultSweep
from repro.parallel.engine import run_parallel

WORKERS = 4

CHAOS = FaultPlanConfig(
    seed=11,
    outage_rate_per_week=0.3,
    hazard_rate_per_khour=2.0,
    burst_rate_per_week=1.0,
)


def test_faulted_cohort_end_to_end(benchmark, quick):
    course = scaled_course(0.25 if quick else 1.0)
    config = CohortConfig(seed=42)
    calendar = build_fault_calendar(CHAOS, horizon_hours=course.semester_hours)

    def faulted_run():
        sweep = FaultSweep(calendar)
        return sweep.ledger, run_parallel(course, config, workers=WORKERS, faults=sweep)

    ledger, merged = benchmark.pedantic(faulted_run, rounds=1, iterations=1)

    serial = CohortSimulation(course, config, faults=FaultSweep(calendar)).run()
    assert records_digest(merged) == records_digest(serial)
    assert ledger.events  # the chaos config must actually bite

    benchmark.extra_info.update(
        {
            "students": course.enrollment,
            "workers": WORKERS,
            "records": len(merged),
            "fault_events": len(ledger.events),
            "outage_kills": ledger.outage_kills,
            "hardware_kills": ledger.hardware_kills,
            "delayed_starts": ledger.delayed_starts,
            "abandoned": ledger.abandoned,
            "lost_instance_hours": round(ledger.lost_instance_hours, 1),
            "redo_instance_hours": round(ledger.redo_instance_hours, 1),
            "quick": quick,
        }
    )
    print()
    print(
        f"faulted cohort of {course.enrollment} students: "
        f"{len(ledger.events)} fault events, "
        f"{ledger.redo_instance_hours:.0f} redo instance-hours, "
        f"digest stable at workers={WORKERS}"
    )


def test_fault_sweep_overhead(benchmark, quick):
    """The sweep itself, isolated: planning with faults vs the ~free null
    plan — how much bookkeeping a semester of chaos costs."""
    course = scaled_course(0.25 if quick else 1.0)
    config = CohortConfig(seed=42)

    def faulted_plan():
        sweep = FaultSweep(build_fault_calendar(CHAOS, horizon_hours=course.semester_hours))
        plan_cohort(course, config, faults=sweep)
        return sweep.ledger

    ledger = benchmark.pedantic(faulted_plan, rounds=1 if quick else 3, iterations=1)
    assert ledger.events
    benchmark.extra_info.update(
        {"students": course.enrollment, "fault_events": len(ledger.events)}
    )
