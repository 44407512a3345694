"""CLI: run the metastable retry-storm ladder and print the verdict.

Examples
--------
The default storm — two-minute full-fleet outage under 250 rps, three
client policies::

    python -m repro.resilience --storm

Machine-readable output for sweep harnesses::

    python -m repro.resilience --storm --json -

The phase-map campaign — the storm fanned over load × outage length ×
outage scope × policy × budget fill × breaker threshold (336 points by
default; ``--quick`` swaps in the 24-point CI grid)::

    python -m repro.resilience --sweep --workers 4
    python -m repro.resilience --sweep --phase-map      # just the map

``python -m repro.verify storm sweep`` proves both digests invariant under
rerun, evaluation-order perturbation and worker count.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.resilience.scenario import StormConfig, run_storm
from repro.resilience.sweep import SweepConfig, quick_sweep_config, run_sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience",
        description="Closed-loop retry storms against the serving operations layer.",
    )
    parser.add_argument(
        "--storm", action="store_true",
        help="run the three-rung retry-storm ladder (the default action)",
    )
    parser.add_argument(
        "--sweep", action="store_true",
        help="run the phase-map sweep instead of the single-storm ladder",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="with --sweep: the 24-point CI grid instead of the full campaign",
    )
    parser.add_argument(
        "--phase-map", action="store_true",
        help="with --sweep: print only the rendered phase map",
    )
    parser.add_argument("--seed", type=int, default=11, help="scenario seed (default 11)")
    parser.add_argument(
        "--rpd", type=float, default=2.16e7,
        help="mean offered requests per day (default 2.16e7 = 250 rps)",
    )
    parser.add_argument(
        "--duration-s", type=float, default=1200.0,
        help="simulated horizon in seconds (default 1200)",
    )
    parser.add_argument(
        "--outage-start-s", type=float, default=300.0,
        help="outage start instant in seconds (default 300)",
    )
    parser.add_argument(
        "--outage-end-s", type=float, default=420.0,
        help="outage end instant in seconds (default 420)",
    )
    parser.add_argument(
        "--replicas", type=int, default=2, help="fixed fleet size (default 2)"
    )
    parser.add_argument(
        "--queue-cap", type=int, default=256,
        help="admission-control queue capacity (default 256)",
    )
    parser.add_argument(
        "--budget-fill", type=float, default=0.1,
        help="retry-budget tokens earned per fresh request (default 0.1)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the rung fan-out (default 1)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the storm report as JSON to PATH ('-' for stdout)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.sweep:
        report = run_sweep(
            quick_sweep_config() if args.quick else SweepConfig(), workers=args.workers
        )
        rendered = report.render_phase_map() if args.phase_map else report.render()
        label = "sweep digest"
    else:
        config = StormConfig(
            seed=args.seed,
            requests_per_day=args.rpd,
            duration_s=args.duration_s,
            outage_start_s=args.outage_start_s,
            outage_end_s=args.outage_end_s,
            queue_capacity=args.queue_cap,
            max_replicas=args.replicas,
            retry_budget_fill=args.budget_fill,
        )
        report = run_storm(config, workers=args.workers)
        rendered = report.render()
        label = "storm digest"
    payload = report.to_dict()

    if args.json == "-":
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(rendered)
        print()
        print(f"{label:>14}: {report.digest()}")
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(payload, fh, indent=2)
            print(f"{'json':>14}: {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
