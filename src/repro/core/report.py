"""Report generators for the paper's tables and figures.

Each function takes the simulated usage records (plus the course and cost
model) and returns both structured data and a printable text rendering, so
the benchmark harness can show paper-style output and tests can assert on
numbers.  Each walks the records once, into one
:class:`~repro.core.usage.UsageSummary`, and reduces only that.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.cloud.inventory import CHAMELEON_NODE_TYPES
from repro.cloud.metering import UsageRecord
from repro.common.errors import ValidationError
from repro.common.tables import format_table
from repro.core.costmodel import (
    CostModel,
    LabCostRow,
    OutageScenario,
    SpotScenario,
    distribution_stats,
)
from repro.core.course import COURSE, CourseDefinition, LabKind
from repro.core.usage import UsageSummary, summarize_usage

if TYPE_CHECKING:  # imported lazily: repro.faults imports repro.core
    from repro.faults.sweep import FaultLedger


def records_digest(records: Iterable[UsageRecord]) -> str:
    """SHA-256 over the exact field tuples of a record stream.

    The equivalence contract of `repro.parallel`: serial and parallel
    executions of the same plan must agree on this digest (records are
    compared *in order*, so canonicalization is part of the contract).
    Each record contributes ``repr(dataclasses.astuple(rec))``; every field
    is a ``str``, ``float`` or ``None``, so a flat ``attrgetter`` over the
    fields yields the same tuple without ``astuple``'s recursive deep copy.
    """
    row = attrgetter(*(f.name for f in fields(UsageRecord)))
    h = hashlib.sha256()
    for rec in records:
        h.update(repr(row(rec)).encode())
    return h.hexdigest()


def _by_provider(provider: str, aws: dict[str, float], gcp: dict[str, float]) -> dict[str, float]:
    """The AWS or the GCP figures; any other provider is an error."""
    if provider == "aws":
        return aws
    if provider == "gcp":
        return gcp
    raise ValidationError(f"unknown provider {provider!r}")


def _cost_table_body(
    rows: list[LabCostRow],
    totals: dict[str, float],
    hours: str,
    enrollment: int,
) -> list[list[object]]:
    """Table 1's body: each row, then the totals, with metered hours, the
    ``hours`` column and each provider's ``$total ($per-student)`` cell."""

    def usd(cost: float | None) -> str | None:
        return None if cost is None else f"${cost:,.0f} (${cost / enrollment:,.2f})"

    body: list[list[object]] = [
        [r.title, r.resource_type, round(r.instance_hours), round(getattr(r, hours)),
         usd(r.aws_cost), usd(r.gcp_cost)]
        for r in rows
    ]
    body.append(["Total", "", round(totals["instance_hours"]), round(totals[hours]),
                 usd(totals["aws_cost"]), usd(totals["gcp_cost"])])
    return body


# -- Table 1 ---------------------------------------------------------------------


@dataclass(frozen=True)
class Table1:
    rows: list[LabCostRow]
    totals: dict[str, float]
    enrollment: int

    def render(self) -> str:
        return format_table(
            ["Assignment", "Instance Type", "Instance Hours", "Floating IP Hours",
             "AWS Cost", "GCP Cost"],
            _cost_table_body(self.rows, self.totals, "floating_ip_hours", self.enrollment),
            title="Table 1: Usage and estimated cost overall (and per student) "
                  "by lab assignment and Chameleon node type or VM flavor.",
        )


def table1(
    records: list[UsageRecord],
    *,
    course: CourseDefinition = COURSE,
    model: CostModel | None = None,
) -> Table1:
    model = model if model is not None else CostModel(course)
    rows = model.lab_rows(summarize_usage(records, course=course))
    return Table1(rows=rows, totals=model.lab_totals(rows), enrollment=course.enrollment)


# -- Figure 1 ----------------------------------------------------------------------


@dataclass(frozen=True)
class Fig1Row:
    lab_id: str
    title: str
    kind: str  # "vm" | "reserved" | "edge"
    expected_hours_per_student: float
    actual_hours_per_student: float

    @property
    def overshoot(self) -> float:
        return self.actual_hours_per_student / self.expected_hours_per_student


@dataclass(frozen=True)
class Fig1:
    vm_rows: list[Fig1Row]
    reserved_rows: list[Fig1Row]

    def render(self) -> str:
        def table(rows: list[Fig1Row], name: str) -> str:
            return format_table(
                ["Lab", "Expected h/student", "Actual h/student", "Actual/Expected"],
                [[r.title, r.expected_hours_per_student, r.actual_hours_per_student,
                  r.overshoot] for r in rows],
                title=name,
                float_fmt=",.1f",
            )

        return (
            table(self.vm_rows, "Fig 1(a): VM instances (no reservation, no auto-termination)")
            + "\n\n"
            + table(self.reserved_rows,
                    "Fig 1(b): bare metal and edge (advance reservation, auto-terminated)")
        )


def fig1_duration_data(
    records: list[UsageRecord], *, course: CourseDefinition = COURSE
) -> Fig1:
    """Expected vs actual per-student instance-hours, per assignment."""
    per_lab_hours: dict[str, float] = defaultdict(float)
    row_hours = summarize_usage(records, course=course).row_hours()
    for (lab_id, _rtype), (hours, _fip) in row_hours.items():
        per_lab_hours[lab_id] += hours  # a lab's rows in first-appearance order

    vm_rows, reserved_rows = [], []
    for lab in course.labs:
        actual = per_lab_hours.get(lab.id, 0.0) / course.enrollment
        row = Fig1Row(
            lab_id=lab.id,
            title=lab.title,
            kind=lab.kind.value,
            expected_hours_per_student=lab.expected_instance_hours,
            actual_hours_per_student=actual,
        )
        (vm_rows if lab.kind is LabKind.VM else reserved_rows).append(row)
    return Fig1(vm_rows=vm_rows, reserved_rows=reserved_rows)


# -- Figure 2 -------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig2:
    aws: dict[str, float]
    gcp: dict[str, float]
    aws_stats: dict[str, float | None]
    gcp_stats: dict[str, float | None]

    def histogram(self, provider: str, *, bins: int = 20) -> tuple[np.ndarray, np.ndarray]:
        costs = np.array(sorted(_by_provider(provider, self.aws, self.gcp).values()))
        return np.histogram(costs, bins=bins)

    def render(self) -> str:
        body = []
        for name, stats in (("AWS", self.aws_stats), ("GCP", self.gcp_stats)):
            body.append([
                name, stats["mean"], stats["median"], stats["p95"], stats["max"],
                stats["expected"], stats["pct_exceeding_expected"],
            ])
        return format_table(
            ["Provider", "Mean $", "Median $", "p95 $", "Max $",
             "Expected $", "% exceeding expected"],
            body,
            title="Fig 2: Distribution of estimated per-student lab cost on commercial clouds.",
        )


def fig2_cost_distribution(
    records: list[UsageRecord],
    *,
    course: CourseDefinition = COURSE,
    model: CostModel | None = None,
) -> Fig2:
    model = model if model is not None else CostModel(course)
    usage = summarize_usage(records, course=course)
    aws = model.per_student_costs(usage, "aws")
    gcp = model.per_student_costs(usage, "gcp")
    return Fig2(
        aws=aws,
        gcp=gcp,
        aws_stats=distribution_stats(aws, model.expected_cost_per_student("aws")),
        gcp_stats=distribution_stats(gcp, model.expected_cost_per_student("gcp")),
    )


# -- Figure 3 + §5 project numbers -------------------------------------------------------


@dataclass(frozen=True)
class Fig3:
    vm_hours_by_flavor: dict[str, float]
    gpu_hours_by_type: dict[str, float]
    baremetal_cpu_hours: float
    edge_hours: float
    block_storage_gb_peak: float
    object_storage_gb_peak: float
    aws_total_usd: float
    gcp_total_usd: float
    enrollment: int

    @property
    def vm_hours_total(self) -> float:
        return sum(self.vm_hours_by_flavor.values())

    @property
    def gpu_hours_total(self) -> float:
        return sum(self.gpu_hours_by_type.values())

    def render(self) -> str:
        rows = [["VM (non-GPU): " + f, "", h] for f, h in sorted(self.vm_hours_by_flavor.items())]
        rows += [["GPU: " + t, "", h] for t, h in sorted(self.gpu_hours_by_type.items())]
        rows += [
            ["Bare metal (non-GPU)", "", self.baremetal_cpu_hours],
            ["Edge devices", "", self.edge_hours],
            ["Block storage (peak GB)", "", self.block_storage_gb_peak],
            ["Object storage (peak GB)", "", self.object_storage_gb_peak],
            ["AWS cost", f"(${self.aws_total_usd / self.enrollment:,.0f}/student)", self.aws_total_usd],
            ["GCP cost", f"(${self.gcp_total_usd / self.enrollment:,.0f}/student)", self.gcp_total_usd],
        ]
        return format_table(
            ["Project usage", "", "Hours / GB / $"],
            rows,
            title="Fig 3 + §5: project usage by instance type, storage, and cost.",
            float_fmt=",.0f",
        )


def fig3_project_usage(
    records: list[UsageRecord],
    *,
    course: CourseDefinition = COURSE,
    model: CostModel | None = None,
) -> Fig3:
    model = model if model is not None else CostModel(course)
    return _fig3(summarize_usage(records, course=course), course, model)


def _fig3(usage: UsageSummary, course: CourseDefinition, model: CostModel) -> Fig3:
    """Each resource type's hours and each storage peak, added in record order."""
    vm: dict[str, float] = defaultdict(float)
    gpu: dict[str, float] = defaultdict(float)
    bm_cpu = 0.0
    edge = 0.0
    block_gb = 0.0
    object_gb = 0.0
    for rec in usage.project:
        if rec.kind == "server":
            vm[rec.resource_type] += rec.unit_hours
        elif rec.kind == "baremetal":
            node = CHAMELEON_NODE_TYPES.get(rec.resource_type)
            if node is not None and node.gpu is not None:
                gpu[rec.resource_type] += rec.unit_hours
            else:
                bm_cpu += rec.unit_hours
        elif rec.kind == "edge":
            edge += rec.unit_hours
        elif rec.kind == "volume":
            block_gb += rec.quantity
        elif rec.kind == "object_storage":
            object_gb += rec.quantity
    return Fig3(
        vm_hours_by_flavor=dict(vm),
        gpu_hours_by_type=dict(gpu),
        baremetal_cpu_hours=bm_cpu,
        edge_hours=edge,
        block_storage_gb_peak=block_gb,
        object_storage_gb_peak=object_gb,
        aws_total_usd=model.project_cost(usage, "aws").total_usd,
        gcp_total_usd=model.project_cost(usage, "gcp").total_usd,
        enrollment=course.enrollment,
    )


# -- Spot and outage what-ifs -------------------------------------------------------------


@dataclass(frozen=True)
class WhatIf:
    """Table 1 re-priced under a spot or an outage scenario.

    ``rows``/``totals`` are the what-if numbers; ``on_demand_totals`` are
    the matching Table-1 totals so the rendering can show the delta
    directly.  Spot trades interruptions for a discount (:meth:`savings`);
    outages add the same interruption re-work at full on-demand rates
    (:meth:`overhead`), the pure cost of infrastructure unreliability.
    Edge rows stay NA, exactly as in Table 1.
    """

    rows: list[LabCostRow]
    totals: dict[str, float]
    on_demand_totals: dict[str, float]
    scenario: SpotScenario | OutageScenario
    enrollment: int

    def savings(self, provider: str) -> float:
        """$ saved vs on-demand over the whole course's labs."""
        key = f"{provider}_cost"
        return self.on_demand_totals[key] - self.totals[key]

    def overhead(self, provider: str) -> float:
        """$ added vs the reliable-testbed Table 1."""
        key = f"{provider}_cost"
        return self.totals[key] - self.on_demand_totals[key]

    def render(self) -> str:
        s = self.scenario
        if isinstance(s, SpotScenario):
            billed, cost, verb, delta = "Billed Hours (spot)", "Spot Cost", "saves", self.savings
            lead = ("Spot what-if: lab costs on preemptible capacity "
                    f"(preemption rate {s.preempt_rate_per_hour:.3g}/h")
        else:
            billed, cost, verb, delta = "Billed Hours (w/ redo)", "Cost", "adds", self.overhead
            lead = ("Outage what-if: lab costs under infrastructure interruptions "
                    f"(rate {s.interruption_rate_per_hour:.3g}/h")
        return format_table(
            ["Assignment", "Instance Type", "Metered Hours", billed,
             f"AWS {cost}", f"GCP {cost}"],
            _cost_table_body(self.rows, self.totals, "billed_instance_hours", self.enrollment),
            title=(
                f"{lead}, time inflation ×{s.time_inflation:.3f}; "
                f"{verb} ${delta('aws'):,.0f} AWS / ${delta('gcp'):,.0f} GCP vs Table 1)."
            ),
        )


def _whatif(
    usage: UsageSummary,
    course: CourseDefinition,
    model: CostModel,
    scenario: SpotScenario | OutageScenario,
) -> WhatIf:
    rows = model.lab_rows(usage, scenario)
    return WhatIf(
        rows=rows,
        totals=model.lab_totals(rows),
        on_demand_totals=model.lab_totals(model.lab_rows(usage)),
        scenario=scenario,
        enrollment=course.enrollment,
    )


def spot_whatif(
    records: list[UsageRecord],
    *,
    course: CourseDefinition = COURSE,
    model: CostModel | None = None,
    scenario: SpotScenario | None = None,
) -> WhatIf:
    """The "VM labs on spot + guardrails" §5 extension table."""
    model = model if model is not None else CostModel(course)
    scenario = scenario if scenario is not None else SpotScenario()
    return _whatif(summarize_usage(records, course=course), course, model, scenario)


def outage_whatif(
    records: list[UsageRecord],
    *,
    course: CourseDefinition = COURSE,
    model: CostModel | None = None,
    scenario: OutageScenario | None = None,
) -> WhatIf:
    """The "unreliable testbed" what-if table."""
    model = model if model is not None else CostModel(course)
    scenario = scenario if scenario is not None else OutageScenario()
    return _whatif(summarize_usage(records, course=course), course, model, scenario)


def spot_headline_summary(
    records: list[UsageRecord],
    *,
    course: CourseDefinition = COURSE,
    scenario: SpotScenario | None = None,
) -> dict[str, float]:
    """§5 totals recomputed with VM labs on spot, projects on-demand.

    Projects stay on-demand: they include bare-metal GPU nodes and
    long-lived serving endpoints that a semester-long course cannot
    reasonably run preemptibly.
    """
    scenario = scenario if scenario is not None else SpotScenario()
    model = CostModel(course)
    usage = summarize_usage(records, course=course)
    what_if = _whatif(usage, course, model, scenario)
    f3 = _fig3(usage, course, model)
    n = course.enrollment
    on_demand = what_if.on_demand_totals
    return {
        "aws_lab_per_student": what_if.totals["aws_cost"] / n,
        "gcp_lab_per_student": what_if.totals["gcp_cost"] / n,
        "aws_total_per_student": (what_if.totals["aws_cost"] + f3.aws_total_usd) / n,
        "gcp_total_per_student": (what_if.totals["gcp_cost"] + f3.gcp_total_usd) / n,
        "aws_course_total": what_if.totals["aws_cost"] + f3.aws_total_usd,
        "gcp_course_total": what_if.totals["gcp_cost"] + f3.gcp_total_usd,
        "aws_lab_savings": what_if.savings("aws"),
        "gcp_lab_savings": what_if.savings("gcp"),
        "aws_course_savings": on_demand["aws_cost"] + f3.aws_total_usd
        - (what_if.totals["aws_cost"] + f3.aws_total_usd),
        "gcp_course_savings": on_demand["gcp_cost"] + f3.gcp_total_usd
        - (what_if.totals["gcp_cost"] + f3.gcp_total_usd),
        "time_inflation": scenario.time_inflation,
    }


# -- Failure accounting (fault-plan ledger -> dollars) -----------------------------------


@dataclass(frozen=True)
class FaultReport:
    """What a fault plan actually cost the cohort.

    Priced from a :class:`~repro.faults.sweep.FaultLedger`: redo hours are
    re-billed work (they appear in the metered records and in Table 1),
    lost hours are work that never ran (abandoned labs — an educational
    cost, not a billed one), delay hours shift work without billing it.
    """

    enrollment: int
    events: int
    hardware_kills: int
    outage_kills: int
    delayed_starts: int
    abandoned: int
    lost_instance_hours: float
    redo_instance_hours: float
    delay_hours: float
    aws_redo_usd: float
    gcp_redo_usd: float
    aws_redo_by_user: dict[str, float]
    gcp_redo_by_user: dict[str, float]

    @property
    def aws_redo_per_student(self) -> float:
        return self.aws_redo_usd / self.enrollment

    @property
    def gcp_redo_per_student(self) -> float:
        return self.gcp_redo_usd / self.enrollment

    def worst_user_redo(self, provider: str) -> float:
        by_user = _by_provider(provider, self.aws_redo_by_user, self.gcp_redo_by_user)
        return max(by_user.values(), default=0.0)

    def render(self) -> str:
        body = [
            ["Hardware kills (MTBF)", self.hardware_kills],
            ["Outage kills", self.outage_kills],
            ["Delayed starts", self.delayed_starts],
            ["Abandoned activities", self.abandoned],
            ["Redo instance-hours (re-billed)", round(self.redo_instance_hours)],
            ["Lost instance-hours (never ran)", round(self.lost_instance_hours)],
            ["Cumulative start delay (hours)", round(self.delay_hours)],
            ["AWS redo cost", f"${self.aws_redo_usd:,.0f} "
                              f"(${self.aws_redo_per_student:,.2f}/student, "
                              f"worst ${self.worst_user_redo('aws'):,.2f})"],
            ["GCP redo cost", f"${self.gcp_redo_usd:,.0f} "
                              f"(${self.gcp_redo_per_student:,.2f}/student, "
                              f"worst ${self.worst_user_redo('gcp'):,.2f})"],
        ]
        return format_table(
            ["Failure accounting", "Value"],
            body,
            title="Failure accounting: what the fault plan cost the cohort.",
        )


def fault_accounting(
    ledger: "FaultLedger",
    *,
    course: CourseDefinition = COURSE,
    model: CostModel | None = None,
) -> FaultReport:
    """Price a fault ledger's redo hours at commercial rates.

    Lab events are priced at the lab's matched-instance rate, project
    events at the project spec for their resource type; events with no
    commercial equivalent (edge devices) count hours but no dollars.
    """
    model = model if model is not None else CostModel(course)
    redo_usd = {"aws": 0.0, "gcp": 0.0}
    by_user: dict[str, dict[str, float]] = {"aws": {}, "gcp": {}}
    for event in ledger.events:
        if not event.redo_hours:
            continue
        for provider in ("aws", "gcp"):
            inst = model.record_equivalent(event.lab, event.resource_type, provider)
            if inst is None:
                continue
            cost = event.redo_hours * inst.hourly_usd
            redo_usd[provider] += cost
            by_user[provider][event.user] = by_user[provider].get(event.user, 0.0) + cost
    return FaultReport(
        enrollment=course.enrollment,
        events=len(ledger.events),
        hardware_kills=ledger.hardware_kills,
        outage_kills=ledger.outage_kills,
        delayed_starts=ledger.delayed_starts,
        abandoned=ledger.abandoned,
        lost_instance_hours=ledger.lost_instance_hours,
        redo_instance_hours=ledger.redo_instance_hours,
        delay_hours=ledger.delay_hours,
        aws_redo_usd=redo_usd["aws"],
        gcp_redo_usd=redo_usd["gcp"],
        aws_redo_by_user=by_user["aws"],
        gcp_redo_by_user=by_user["gcp"],
    )


# -- §5/§6 headline numbers --------------------------------------------------------------


def headline_summary(records: list[UsageRecord], *, course: CourseDefinition = COURSE) -> dict[str, float]:
    """The paper's headline statistics (abstract + §6)."""
    model = CostModel(course)
    usage = summarize_usage(records, course=course)
    t1 = model.lab_totals(model.lab_rows(usage))
    f3 = _fig3(usage, course, model)
    lab_hours = t1["instance_hours"]
    project_hours = (
        f3.vm_hours_total + f3.gpu_hours_total + f3.baremetal_cpu_hours + f3.edge_hours
    )
    n = course.enrollment
    return {
        "lab_instance_hours": lab_hours,
        "project_instance_hours": project_hours,
        "total_instance_hours": lab_hours + project_hours,
        "aws_lab_per_student": t1["aws_cost"] / n,
        "gcp_lab_per_student": t1["gcp_cost"] / n,
        "aws_project_per_student": f3.aws_total_usd / n,
        "gcp_project_per_student": f3.gcp_total_usd / n,
        "aws_total_per_student": (t1["aws_cost"] + f3.aws_total_usd) / n,
        "gcp_total_per_student": (t1["gcp_cost"] + f3.gcp_total_usd) / n,
        "aws_course_total": t1["aws_cost"] + f3.aws_total_usd,
        "gcp_course_total": t1["gcp_cost"] + f3.gcp_total_usd,
    }
