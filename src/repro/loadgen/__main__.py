"""CLI: serve a day of web-scale traffic and print the SLO/cost report.

Examples
--------
A two-million-request day with flash crowds on the 16-core CPU tier::

    python -m repro.loadgen --pattern flash --rpd 2e6

Sweep the SLO-vs-cost frontier, with outages striking the fleet::

    python -m repro.loadgen --pattern flash --rpd 2e6 --outage-rate 2 --whatif

Machine-readable output for sweep harnesses::

    python -m repro.loadgen --rpd 1e6 --json -
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.common.errors import ValidationError
from repro.faults.plan import build_serving_calendar
from repro.loadgen.arrivals import PATTERNS, TrafficConfig, generate_trace
from repro.loadgen.autoscaler import AutoscalerConfig
from repro.loadgen.queue import AdmissionConfig
from repro.loadgen.report import build_report, slo_cost_frontier
from repro.loadgen.sim import simulate_traffic
from repro.loadgen.slo import SloPolicy
from repro.serving.batching import BatchingConfig
from repro.serving.devices import DEVICE_CATALOG
from repro.serving.engine import InferenceEngine
from repro.serving.models import food11_classifier


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.loadgen",
        description="Seeded open-loop traffic through the serving operations layer.",
    )
    parser.add_argument("--seed", type=int, default=0, help="traffic seed (default 0)")
    parser.add_argument(
        "--pattern", choices=PATTERNS, default="diurnal",
        help="arrival pattern (default diurnal)",
    )
    parser.add_argument(
        "--rpd", type=float, default=1e6,
        help="mean offered requests per day (default 1e6)",
    )
    parser.add_argument(
        "--hours", type=float, default=24.0,
        help="simulated horizon in hours (default 24)",
    )
    parser.add_argument(
        "--device", choices=sorted(DEVICE_CATALOG), default="server-cpu-16c",
        help="serving device (default server-cpu-16c)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=8, help="dynamic-batching limit (default 8)"
    )
    parser.add_argument(
        "--delay-ms", type=float, default=5.0,
        help="batching window in milliseconds (default 5)",
    )
    parser.add_argument(
        "--queue-cap", type=int, default=512,
        help="admission-control queue capacity (default 512)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=1000.0,
        help="queueing deadline before a request is dropped (default 1000)",
    )
    parser.add_argument(
        "--min-replicas", type=int, default=1, help="autoscaler floor (default 1)"
    )
    parser.add_argument(
        "--max-replicas", type=int, default=8, help="autoscaler ceiling (default 8)"
    )
    parser.add_argument(
        "--lag", type=float, default=60.0,
        help="replica provisioning lag in seconds (default 60)",
    )
    parser.add_argument(
        "--p99-budget-ms", type=float, default=250.0,
        help="SLO tail-latency budget (default 250)",
    )
    parser.add_argument(
        "--max-loss", type=float, default=0.01,
        help="SLO loss budget as a fraction (default 0.01)",
    )
    parser.add_argument(
        "--outage-rate", type=float, default=0.0,
        help="serving-site outages per week (default 0: none)",
    )
    parser.add_argument(
        "--burst-rate", type=float, default=0.0,
        help="API-error bursts per week (default 0: none)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=7, help="fault-calendar seed (default 7)"
    )
    parser.add_argument(
        "--whatif", action="store_true",
        help="sweep replica ceilings x batch limits x admission thresholds and "
        "print the SLO-vs-cost Pareto table",
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
    if args.fault_seed < 0:  # refused whatever the rates, as repro.faults refuses it
        parser.error(
            f"fault-plan seed must be a non-negative integer: {args.fault_seed} (--fault-seed)"
        )

    # every config is built before anything is generated, so a bad flag
    # value is a usage error, not a traceback after the work
    try:
        traffic = TrafficConfig(
            seed=args.seed,
            pattern=args.pattern,
            requests_per_day=args.rpd,
            duration_hours=args.hours,
        )
        admission = AdmissionConfig(
            queue_capacity=args.queue_cap, deadline_ms=args.deadline_ms
        )
        batching = BatchingConfig(max_batch=args.max_batch, max_queue_delay_ms=args.delay_ms)
        autoscaler = AutoscalerConfig(
            min_replicas=args.min_replicas,
            max_replicas=args.max_replicas,
            provisioning_lag_s=args.lag,
        )
        policy = SloPolicy(p99_budget_ms=args.p99_budget_ms, max_loss_rate=args.max_loss)
        calendar = None
        if args.outage_rate or args.burst_rate:
            calendar = build_serving_calendar(
                duration_hours=args.hours,
                seed=args.fault_seed,
                outage_rate_per_week=args.outage_rate,
                burst_rate_per_week=args.burst_rate,
            )
    except ValidationError as err:
        parser.error(str(err))
    trace = generate_trace(traffic)
    engine = InferenceEngine(food11_classifier(), DEVICE_CATALOG[args.device])

    result = simulate_traffic(
        trace,
        engine,
        admission=admission,
        batching=batching,
        autoscaler=autoscaler,
        calendar=calendar,
    )
    report = build_report(result, engine, policy)
    digest = result.digest()

    summary: dict[str, object] = {
        "seed": args.seed,
        "pattern": args.pattern,
        "device": args.device,
        "offered": result.offered,
        "served": result.served,
        "rejected": result.rejected,
        "dropped": result.dropped,
        "errored": result.errored,
        "failed": result.failed,
        "loss_rate": round(result.loss_rate, 6),
        "p50_ms": round(result.p50_ms, 3),
        "p95_ms": round(result.p95_ms, 3),
        "p99_ms": round(result.p99_ms, 3),
        "peak_replicas": result.telemetry.peak_replicas,
        "replica_hours": round(result.replica_hours, 4),
        "usd_per_million": (
            round(report.cost_per_million_usd, 4)
            if report.cost_per_million_usd is not None
            else None
        ),
        "slo_attained": report.slo.attained,
        "faulted": result.faulted,
        "trace_digest": trace.digest(),
        "digest": digest,
    }

    if args.json == "-":
        json.dump(summary, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(report.render())
        print()
        if args.whatif:
            frontier = slo_cost_frontier(
                trace,
                engine,
                policy=policy,
                admission=admission,
                batching=batching,
                autoscaler=autoscaler,
                calendar=calendar,
            )
            print(frontier.render())
            print()
        for key, value in summary.items():
            print(f"{key:>18}: {value}")
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(summary, fh, indent=2)
            print(f"{'json':>18}: {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
