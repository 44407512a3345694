"""Outage what-if: what does an *unreliable* testbed cost the course?

The paper measures a semester on infrastructure that (mostly) stayed up.
This example asks the robustness counterfactual: run the same cohort
under a seeded fault plan — site outages, per-instance hardware
failures, transient API-error bursts — and price what the faults cost:
redo hours re-billed at commercial rates, labs abandoned outright, and
the analytic outage-inflation view of Table 1.

Run:  python examples/outage_whatif.py [seed]
"""

import sys

from repro.core import CohortConfig, OutageScenario
from repro.core.course import COURSE
from repro.core.report import fault_accounting, outage_whatif, records_digest, table1
from repro.faults import FaultPlanConfig, FaultSweep, build_fault_calendar
from repro.parallel.engine import run_parallel


def main(seed: int = 42) -> None:
    config = CohortConfig(seed=seed)

    # -- a reliability ladder: none -> realistic -> rough semester ---------
    ladder = [
        ("reliable", FaultPlanConfig()),
        ("realistic", FaultPlanConfig(seed=11, outage_rate_per_week=0.1,
                                      hazard_rate_per_khour=0.5,
                                      burst_rate_per_week=0.5)),
        ("rough", FaultPlanConfig(seed=11, outage_rate_per_week=0.5,
                                  hazard_rate_per_khour=3.0,
                                  burst_rate_per_week=2.0)),
    ]
    print(f"simulating the semester at three reliability levels (seed={seed})...\n")
    print(f"  {'plan':10s} {'events':>7s} {'redo h':>9s} {'lost h':>9s} "
          f"{'AWS redo $':>11s} {'lab total $':>12s} {'digest':>12s}")
    for name, fault_config in ladder:
        calendar = build_fault_calendar(fault_config, horizon_hours=COURSE.semester_hours)
        sweep = FaultSweep(calendar)
        records = run_parallel(COURSE, config, workers=2, faults=sweep)
        report = fault_accounting(sweep.ledger)
        totals = table1(records).totals
        print(f"  {name:10s} {report.events:>7d} "
              f"{report.redo_instance_hours:>9,.0f} "
              f"{report.lost_instance_hours:>9,.0f} "
              f"{report.aws_redo_usd:>11,.2f} "
              f"{totals['aws_cost']:>12,.2f} "
              f"{records_digest(records)[:12]:>12s}")
    print()

    # -- detailed accounting for the rough semester (the loop's last run) --
    print(f"the {name!r} fault calendar: {len(calendar.outages)} outages, "
          f"{len(calendar.bursts)} API-error bursts across {len(fault_config.sites)} sites\n")
    print(report.render(), "\n")

    # -- the analytic view: interruption rate -> cost inflation ------------
    scenario = OutageScenario.from_fault_plan(
        outage_rate_per_week=fault_config.outage_rate_per_week,
        hazard_rate_per_khour=fault_config.hazard_rate_per_khour,
    )
    print(outage_whatif(records, scenario=scenario).render())


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 42)
