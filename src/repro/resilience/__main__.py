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

The storm flags (``--seed``, ``--rpd``, ``--duration-s``, ...) set
:class:`~repro.resilience.scenario.StormConfig` fields for the ladder;
the sweep takes its storms from its own config, so it refuses them, and
the ladder refuses ``--quick`` and ``--phase-map`` (exit 2).

``python -m repro.verify storm sweep`` proves both digests invariant under
rerun, evaluation-order perturbation and worker count.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.resilience.scenario import StormConfig
from repro.resilience.sweep import SweepConfig, quick_sweep_config, run_storm, run_sweep

#: The storm flags: (flag, StormConfig field, type, help).  Each defaults
#: to the dataclass's own default, and none applies to ``--sweep``.
STORM_FLAGS = (
    ("--seed", "seed", int, "scenario seed"),
    ("--rpd", "requests_per_day", float, "mean offered requests per day"),
    ("--duration-s", "duration_s", float, "simulated horizon in seconds"),
    ("--outage-start-s", "outage_start_s", float, "outage start instant in seconds"),
    ("--outage-end-s", "outage_end_s", float, "outage end instant in seconds"),
    ("--replicas", "max_replicas", int, "fixed fleet size"),
    ("--queue-cap", "queue_capacity", int, "admission-control queue capacity"),
    ("--budget-fill", "retry_budget_fill", float, "retry-budget tokens earned per fresh request"),
)


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
    defaults = StormConfig()
    for flag, field, kind, text in STORM_FLAGS:
        parser.add_argument(
            flag, dest=field, type=kind, default=None,
            metavar=flag[2:].upper().replace("-", "_"),
            help=f"storm only: {text} (default {getattr(defaults, field):g})",
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    given = {f: getattr(args, f) for _, f, _, _ in STORM_FLAGS if getattr(args, f) is not None}
    if args.sweep and given:
        flags = ", ".join(flag for flag, f, _, _ in STORM_FLAGS if f in given)
        parser.error(f"{flags}: storm flags do not apply to --sweep")
    if not args.sweep and (args.quick or args.phase_map):
        parser.error("--quick and --phase-map apply only with --sweep")

    if args.sweep:
        report = run_sweep(
            quick_sweep_config() if args.quick else SweepConfig(), workers=args.workers
        )
        rendered = report.render_phase_map() if args.phase_map else report.render()
        label = "sweep digest"
    else:
        report = run_storm(StormConfig(**given), workers=args.workers)
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
