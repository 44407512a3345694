"""CLI: run the cohort under a fault plan and print the failure accounting.

Examples
--------
A semester with weekly-ish outages and real hardware attrition::

    python -m repro.faults --outage-rate 0.3 --hazard-rate 2.0 --burst-rate 1.0

The same plan fanned over 4 workers (``python -m repro.verify parallel``
proves the digest equals the serial run's)::

    python -m repro.faults --outage-rate 0.3 --hazard-rate 2.0 --workers 4

Machine-readable output for sweep harnesses::

    python -m repro.faults --outage-rate 0.3 --json -
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from repro.common.errors import ValidationError
from repro.common.numerics import stable_sum
from repro.core.cohort import CohortConfig
from repro.core.costmodel import OutageScenario
from repro.core.course import COURSE, scaled_course
from repro.core.report import fault_accounting, outage_whatif, records_digest
from repro.faults.plan import FaultPlanConfig, build_fault_calendar
from repro.faults.sweep import FaultSweep
from repro.parallel.engine import run_parallel


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Cohort simulation under a deterministic fault plan.",
    )
    parser.add_argument("--seed", type=int, default=42, help="cohort seed (default 42)")
    parser.add_argument(
        "--fault-seed", type=int, default=7, help="fault-plan seed (default 7)"
    )
    parser.add_argument(
        "--outage-rate", type=float, default=0.0,
        help="site outages per site-week (default 0: none)",
    )
    parser.add_argument(
        "--hazard-rate", type=float, default=0.0,
        help="hardware failures per instance per 1000 hours (default 0)",
    )
    parser.add_argument(
        "--burst-rate", type=float, default=0.0,
        help="transient API-error bursts per site-week (default 0)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="cohort scale factor vs the paper's 191 students (default 1.0)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for execution (default 1: serial)",
    )
    parser.add_argument(
        "--whatif", action="store_true",
        help="print the outage what-if table implied by these fault rates",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the summary as JSON to PATH ('-' for stdout)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.whatif and args.json == "-":
        parser.error("--whatif does not apply with --json - (the JSON summary has no what-if)")
    if args.workers < 1:
        parser.error(f"--workers must be at least 1: {args.workers}")
    if not (math.isfinite(args.scale) and args.scale > 0):
        parser.error(f"--scale must be a positive number: {args.scale}")
    for flag in ("outage_rate", "hazard_rate", "burst_rate"):
        rate = getattr(args, flag)
        if not (math.isfinite(rate) and rate >= 0):
            parser.error(f"--{flag.replace('_', '-')} must be a non-negative number: {rate}")
    course = COURSE if args.scale == 1.0 else scaled_course(args.scale)
    try:
        config = CohortConfig(seed=args.seed)
        fault_config = FaultPlanConfig(
            seed=args.fault_seed,
            outage_rate_per_week=args.outage_rate,
            hazard_rate_per_khour=args.hazard_rate,
            burst_rate_per_week=args.burst_rate,
        )
    except ValidationError as err:
        parser.error(str(err))

    sweep = FaultSweep(build_fault_calendar(fault_config, horizon_hours=course.semester_hours))
    records = run_parallel(course, config, workers=args.workers, faults=sweep)
    digest = records_digest(records)
    report = fault_accounting(sweep.ledger, course=course)

    summary: dict[str, object] = {
        "seed": args.seed,
        "fault_seed": args.fault_seed,
        "workers": args.workers,
        "students": course.enrollment,
        "records": len(records),
        "unit_hours": round(stable_sum(rec.unit_hours for rec in records), 3),
        "fault_events": report.events,
        "hardware_kills": report.hardware_kills,
        "outage_kills": report.outage_kills,
        "delayed_starts": report.delayed_starts,
        "abandoned": report.abandoned,
        "redo_instance_hours": round(report.redo_instance_hours, 3),
        "lost_instance_hours": round(report.lost_instance_hours, 3),
        "aws_redo_usd": round(report.aws_redo_usd, 2),
        "gcp_redo_usd": round(report.gcp_redo_usd, 2),
        "digest": digest,
    }

    if args.json == "-":
        json.dump(summary, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        if not fault_config.is_null:
            print(report.render())
            print()
        if args.whatif:
            scenario = OutageScenario.from_fault_plan(
                outage_rate_per_week=args.outage_rate,
                hazard_rate_per_khour=args.hazard_rate,
            )
            print(outage_whatif(records, course=course, scenario=scenario).render())
            print()
        for key, value in summary.items():
            print(f"{key:>20}: {value}")
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(summary, fh, indent=2)
            print(f"{'json':>20}: {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
