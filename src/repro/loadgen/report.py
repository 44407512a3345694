"""SLO-vs-cost reporting: what the run cost and whether it met the bar.

Two artifacts:

* :class:`ServingLoadReport` — one simulated run priced through the
  commercial-cloud catalog (`repro.core.costmodel`'s serving equivalents,
  the Table-1 methodology applied to replica-hours instead of
  training-hours), with latency percentiles, the loss breakdown, and the
  SLO verdict.
* :func:`slo_cost_frontier` — the ``--whatif`` sweep: replica ceilings ×
  batching policies × admission thresholds, reporting the Pareto set on
  (p99 latency, cost per million served requests) among configurations
  that stay inside the loss budget.  This is the operational question the
  course keeps asking — *what does the next nine cost?* — answered in
  dollars.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.common.tables import format_table
from repro.core.costmodel import ServingCostRow, serving_cost_row, usd_per_million
from repro.faults.plan import FaultCalendar
from repro.loadgen.arrivals import RequestTrace
from repro.loadgen.autoscaler import AutoscalerConfig
from repro.loadgen.queue import AdmissionConfig
from repro.loadgen.sim import TrafficResult, simulate_traffic
from repro.loadgen.slo import SloOutcome, SloPolicy, evaluate_slo
from repro.serving.batching import BatchingConfig
from repro.serving.engine import InferenceEngine

PROVIDERS = ("aws", "gcp")


@dataclass(frozen=True)
class ServingLoadReport:
    """One run, judged and priced."""

    result: TrafficResult
    slo: SloOutcome
    #: Commercial-cloud pricing of the replica-hours, one row per provider.
    cost_rows: tuple[ServingCostRow, ...]
    #: The device catalog's own hourly rate (0 for edge boards).
    device_hourly_usd: float

    @property
    def device_cost_usd(self) -> float:
        return self.device_hourly_usd * self.result.replica_hours

    @property
    def cost_usd(self) -> float:
        """The run's cost at the cheapest provider with a catalog
        equivalent (device rate when none has one)."""
        priced = [r.cost_usd for r in self.cost_rows if r.cost_usd is not None]
        return min(priced) if priced else self.device_cost_usd

    @property
    def cost_per_million_usd(self) -> float | None:
        """Dollars per million *served* requests at :attr:`cost_usd`."""
        return usd_per_million(self.cost_usd, self.result.served)

    def render(self) -> str:
        r = self.result
        outcome_rows = [
            ("offered", r.offered, ""),
            ("served", r.served, ""),
            ("rejected", r.rejected, "queue full at arrival"),
            ("dropped", r.dropped, "deadline exceeded in queue"),
            ("errored", r.errored, "API-error burst window"),
            ("failed", r.failed, "in flight during outage"),
        ]
        latency_rows = [
            ("p50", r.p50_ms),
            ("p95", r.p95_ms),
            ("p99", r.p99_ms),
        ]
        fleet = r.telemetry
        fleet_rows = [
            ("peak replicas", fleet.peak_replicas),
            ("scale-ups", fleet.scale_ups),
            ("scale-downs", fleet.scale_downs),
            ("outage kills", fleet.outage_kills),
            ("replica-hours", round(r.replica_hours, 3)),
            ("mean batch", round(r.mean_batch, 2)),
            ("max queue depth", r.max_queue_depth),
        ]
        cost_rows = [
            (
                row.provider,
                row.instance,
                row.hourly_usd,
                row.cost_usd,
                row.cost_per_million(r.served),
            )
            for row in self.cost_rows
        ]
        cost_rows.append(
            (
                "device-rate",
                r.device_name,
                self.device_hourly_usd,
                self.device_cost_usd,
                usd_per_million(self.device_cost_usd, r.served),
            )
        )
        slo = self.slo
        verdict = "ATTAINED" if slo.attained else "VIOLATED"
        parts = [
            f"serving load report: {r.model_name} on {r.device_name}"
            f" ({r.trace.config.pattern}, {r.trace.offered_per_day:,.0f} req/day"
            f"{', faulted' if r.faulted else ''})",
            "",
            format_table(
                ["outcome", "count", "meaning"], outcome_rows, title="request outcomes"
            ),
            "",
            format_table(
                ["percentile", "latency_ms"], latency_rows, title="served latency"
            ),
            "",
            format_table(["fleet", "value"], fleet_rows, title="fleet"),
            "",
            format_table(
                ["provider", "instance", "hourly_usd", "cost_usd", "usd_per_million"],
                cost_rows,
                title="cost (replica-hours priced per provider)",
                float_fmt=",.4f",
            ),
            "",
            f"SLO {verdict}: p99 {slo.p99_ms:.1f} ms vs {slo.policy.p99_budget_ms:.0f} ms"
            f" budget; loss {slo.loss_rate:.4%} vs {slo.policy.max_loss_rate:.2%} budget",
        ]
        return "\n".join(parts)


def build_report(
    result: TrafficResult, engine: InferenceEngine, policy: SloPolicy | None = None
) -> ServingLoadReport:
    """Price one run through every provider and judge it against the SLO."""
    rows = tuple(
        serving_cost_row(
            engine.device.name,
            provider,
            result.replica_hours,
            is_gpu=engine.device.is_gpu,
        )
        for provider in PROVIDERS
    )
    return ServingLoadReport(
        result=result,
        slo=evaluate_slo(result, policy),
        cost_rows=rows,
        device_hourly_usd=engine.device.hourly_cost_usd,
    )


def pareto_front(items, objectives) -> list[int]:
    """Indices of the Pareto-minimal items under ``objectives``.

    ``objectives(item)`` returns the tuple of values to *minimize*, or
    None to exclude the item from consideration entirely (e.g. unpriced
    points).  An item is on the front when no considered item is <= on
    every objective and < on at least one.  Indices come back in input
    order, so the front is deterministic for a deterministic sweep.

    Shared by :func:`slo_cost_frontier` (p99 vs $/M served) and the
    resilience sweep's defense frontier ($/M effective vs
    time-to-recovery) — one dominance definition, priced on whatever
    axes the caller sweeps.
    """
    scored = [
        (i, obj) for i, obj in ((i, objectives(item)) for i, item in enumerate(items))
        if obj is not None
    ]
    front: list[int] = []
    for i, oi in scored:
        dominated = any(
            all(a <= b for a, b in zip(oj, oi))
            and any(a < b for a, b in zip(oj, oi))
            for j, oj in scored
            if j != i
        )
        if not dominated:
            front.append(i)
    return front


@dataclass(frozen=True)
class FrontierPoint:
    """One configuration of the what-if sweep."""

    max_replicas: int
    max_batch: int
    queue_delay_ms: float
    queue_capacity: int
    p50_ms: float
    p99_ms: float
    loss_rate: float
    replica_hours: float
    cost_per_million_usd: float | None
    slo_ok: bool
    pareto: bool = False


@dataclass(frozen=True)
class Frontier:
    """The full sweep plus its Pareto subset.

    ``loss_gated`` records whether the loss budget actually filtered the
    candidate set: when a shared fault calendar makes *every* point bust
    the budget (an outage no admission policy can dodge), the Pareto set
    is computed over all priced points instead of coming back empty.
    """

    policy: SloPolicy
    points: tuple[FrontierPoint, ...]
    loss_gated: bool = True

    @property
    def pareto_points(self) -> tuple[FrontierPoint, ...]:
        return tuple(p for p in self.points if p.pareto)

    def render(self) -> str:
        rows = [
            (
                p.max_replicas,
                p.max_batch,
                p.queue_delay_ms,
                p.queue_capacity,
                p.p99_ms,
                f"{p.loss_rate:.3%}",
                p.replica_hours,
                p.cost_per_million_usd,
                "yes" if p.slo_ok else "no",
                "*" if p.pareto else "",
            )
            for p in self.points
        ]
        table = format_table(
            [
                "max_repl",
                "max_batch",
                "delay_ms",
                "queue_cap",
                "p99_ms",
                "loss",
                "repl_hrs",
                "usd_per_M",
                "slo",
                "pareto",
            ],
            rows,
            title=(
                "SLO-vs-cost frontier"
                f" (p99 budget {self.policy.p99_budget_ms:.0f} ms,"
                f" loss budget {self.policy.max_loss_rate:.2%};"
                " * = Pareto-optimal among SLO-loss-feasible points)"
                if self.loss_gated
                else "SLO-vs-cost frontier"
                f" (p99 budget {self.policy.p99_budget_ms:.0f} ms;"
                f" every point busts the {self.policy.max_loss_rate:.2%} loss"
                " budget, * = Pareto-optimal among all priced points)"
            ),
            float_fmt=",.2f",
        )
        return table


def slo_cost_frontier(
    trace: RequestTrace,
    engine: InferenceEngine,
    *,
    policy: SloPolicy | None = None,
    replica_ceilings: tuple[int, ...] = (2, 4, 8),
    max_batches: tuple[int, ...] = (1, 8, 32),
    queue_capacities: tuple[int, ...] = (256, 1024),
    admission: AdmissionConfig | None = None,
    batching: BatchingConfig | None = None,
    autoscaler: AutoscalerConfig | None = None,
    calendar: FaultCalendar | None = None,
) -> Frontier:
    """Sweep replica ceilings × batch limits × admission thresholds.

    Every point reruns the full simulation on the *same* trace (and fault
    calendar), so differences between points are policy, never luck.  The
    Pareto set minimizes (p99 latency, cost per million served) among
    points inside the loss budget; latency-budget attainment is reported
    per point but does not gate membership — seeing *how far* a cheap
    configuration misses the budget is the point of the exercise.
    """
    policy = policy if policy is not None else SloPolicy()
    admission = admission if admission is not None else AdmissionConfig()
    batching = batching if batching is not None else BatchingConfig()
    autoscaler = autoscaler if autoscaler is not None else AutoscalerConfig()

    points: list[FrontierPoint] = []
    for ceiling in replica_ceilings:
        for max_batch in max_batches:
            for capacity in queue_capacities:
                scaler = replace(
                    autoscaler,
                    max_replicas=ceiling,
                    min_replicas=min(autoscaler.min_replicas, ceiling),
                )
                result = simulate_traffic(
                    trace,
                    engine,
                    admission=replace(admission, queue_capacity=capacity),
                    batching=replace(batching, max_batch=max_batch),
                    autoscaler=scaler,
                    calendar=calendar,
                )
                report = build_report(result, engine, policy)
                points.append(
                    FrontierPoint(
                        max_replicas=ceiling,
                        max_batch=max_batch,
                        queue_delay_ms=batching.max_queue_delay_ms,
                        queue_capacity=capacity,
                        p50_ms=result.p50_ms,
                        p99_ms=result.p99_ms,
                        loss_rate=result.loss_rate,
                        replica_hours=result.replica_hours,
                        cost_per_million_usd=report.cost_per_million_usd,
                        slo_ok=report.slo.attained,
                    )
                )

    priced = [p for p in points if p.cost_per_million_usd is not None]
    feasible = [p for p in priced if p.loss_rate <= policy.max_loss_rate]
    loss_gated = bool(feasible)
    if not feasible:
        feasible = priced
    front = pareto_front(
        feasible, lambda p: (p.p99_ms, p.cost_per_million_usd)
    )
    pareto_keys = {
        (feasible[i].max_replicas, feasible[i].max_batch, feasible[i].queue_capacity)
        for i in front
    }
    flagged = tuple(
        replace(
            p, pareto=(p.max_replicas, p.max_batch, p.queue_capacity) in pareto_keys
        )
        for p in points
    )
    return Frontier(policy=policy, points=flagged, loss_gated=loss_gated)
