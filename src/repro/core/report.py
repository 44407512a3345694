"""Report generators for the paper's tables and figures.

Each function takes the simulated usage records (plus the course and cost
model) and returns both structured data and a printable text rendering, so
the benchmark harness can show paper-style output and tests can assert on
numbers.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.cloud.metering import UsageRecord
from repro.common.tables import format_table
from repro.core.costmodel import (
    CostModel,
    LabCostRow,
    OutageLabCostRow,
    OutageScenario,
    SpotLabCostRow,
    SpotScenario,
    distribution_stats,
)
from repro.core.course import COURSE, CourseDefinition, LabKind
from repro.core.usage import aggregate_by_assignment

if TYPE_CHECKING:  # imported lazily: repro.faults imports repro.core
    from repro.faults.plan import FaultLedger


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


# -- Table 1 ---------------------------------------------------------------------


@dataclass(frozen=True)
class Table1:
    rows: list[LabCostRow]
    totals: dict[str, float]
    enrollment: int

    def render(self) -> str:
        body = []
        for r in self.rows:
            body.append([
                r.title,
                r.resource_type,
                round(r.instance_hours),
                round(r.floating_ip_hours),
                None if r.aws_cost is None else
                f"${r.aws_cost:,.0f} (${r.aws_cost / self.enrollment:,.2f})",
                None if r.gcp_cost is None else
                f"${r.gcp_cost:,.0f} (${r.gcp_cost / self.enrollment:,.2f})",
            ])
        t = self.totals
        body.append([
            "Total", "",
            round(t["instance_hours"]),
            round(t["floating_ip_hours"]),
            f"${t['aws_cost']:,.0f} (${t['aws_cost'] / self.enrollment:,.2f})",
            f"${t['gcp_cost']:,.0f} (${t['gcp_cost'] / self.enrollment:,.2f})",
        ])
        return format_table(
            ["Assignment", "Instance Type", "Instance Hours", "Floating IP Hours",
             "AWS Cost", "GCP Cost"],
            body,
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
    rows = model.lab_rows(records)
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
    usage = aggregate_by_assignment(records)
    per_lab_hours: dict[str, float] = defaultdict(float)
    for (lab_id, _rtype), row in usage.items():
        per_lab_hours[lab_id] += row.instance_hours

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
    aws_stats: dict[str, float]
    gcp_stats: dict[str, float]

    def histogram(self, provider: str, *, bins: int = 20) -> tuple[np.ndarray, np.ndarray]:
        costs = np.array(sorted((self.aws if provider == "aws" else self.gcp).values()))
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
    aws = model.per_student_costs(records, "aws")
    gcp = model.per_student_costs(records, "gcp")
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
    vm: dict[str, float] = defaultdict(float)
    gpu: dict[str, float] = defaultdict(float)
    bm_cpu = 0.0
    edge = 0.0
    block_gb = 0.0
    object_gb = 0.0
    gpu_types = {"compute_gigaio", "compute_liqid", "compute_liqid_2", "gpu_mi100",
                 "gpu_p100", "gpu_a100_pcie", "gpu_v100"}
    for rec in records:
        if rec.lab != "project":
            continue
        if rec.kind == "server":
            vm[rec.resource_type] += rec.unit_hours
        elif rec.kind == "baremetal":
            if rec.resource_type in gpu_types:
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
        aws_total_usd=model.project_cost(records, "aws").total_usd,
        gcp_total_usd=model.project_cost(records, "gcp").total_usd,
        enrollment=course.enrollment,
    )


# -- Spot what-if (§5 extension) ---------------------------------------------------------


@dataclass(frozen=True)
class SpotWhatIf:
    """Table 1 re-priced under "VM labs on preemptible capacity".

    ``rows``/``totals`` are the spot what-if numbers; ``on_demand_totals``
    are the matching Table-1 totals so the rendering can show the saving
    directly.  Edge rows stay NA, exactly as in Table 1.
    """

    rows: list[SpotLabCostRow]
    totals: dict[str, float]
    on_demand_totals: dict[str, float]
    scenario: SpotScenario
    enrollment: int

    def savings(self, provider: str) -> float:
        """$ saved vs on-demand over the whole course's labs."""
        key = f"{provider}_cost"
        return self.on_demand_totals[key] - self.totals[key]

    def render(self) -> str:
        body = []
        for r in self.rows:
            body.append([
                r.title,
                r.resource_type,
                round(r.instance_hours),
                round(r.billed_instance_hours),
                None if r.aws_spot_cost is None else
                f"${r.aws_spot_cost:,.0f} (${r.aws_spot_cost / self.enrollment:,.2f})",
                None if r.gcp_spot_cost is None else
                f"${r.gcp_spot_cost:,.0f} (${r.gcp_spot_cost / self.enrollment:,.2f})",
            ])
        t = self.totals
        body.append([
            "Total", "",
            round(t["instance_hours"]),
            round(t["billed_instance_hours"]),
            f"${t['aws_cost']:,.0f} (${t['aws_cost'] / self.enrollment:,.2f})",
            f"${t['gcp_cost']:,.0f} (${t['gcp_cost'] / self.enrollment:,.2f})",
        ])
        inflation = self.scenario.time_inflation
        return format_table(
            ["Assignment", "Instance Type", "Metered Hours", "Billed Hours (spot)",
             "AWS Spot Cost", "GCP Spot Cost"],
            body,
            title=(
                "Spot what-if: lab costs on preemptible capacity "
                f"(preemption rate {self.scenario.preempt_rate_per_hour:.3g}/h, "
                f"time inflation ×{inflation:.3f}; "
                f"saves ${self.savings('aws'):,.0f} AWS / "
                f"${self.savings('gcp'):,.0f} GCP vs Table 1)."
            ),
        )


def spot_whatif(
    records: list[UsageRecord],
    *,
    course: CourseDefinition = COURSE,
    model: CostModel | None = None,
    scenario: SpotScenario | None = None,
) -> SpotWhatIf:
    """The "VM labs on spot + guardrails" §5 extension table."""
    model = model if model is not None else CostModel(course)
    scenario = scenario if scenario is not None else SpotScenario()
    rows = model.spot_lab_rows(records, scenario)
    on_demand = model.lab_rows(records)
    return SpotWhatIf(
        rows=rows,
        totals=model.spot_lab_totals(rows),
        on_demand_totals=model.lab_totals(on_demand),
        scenario=scenario,
        enrollment=course.enrollment,
    )


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
    what_if = spot_whatif(records, course=course, model=model, scenario=scenario)
    f3 = fig3_project_usage(records, course=course, model=model)
    n = course.enrollment
    base = headline_summary(records, course=course)
    return {
        "aws_lab_per_student": what_if.totals["aws_cost"] / n,
        "gcp_lab_per_student": what_if.totals["gcp_cost"] / n,
        "aws_total_per_student": (what_if.totals["aws_cost"] + f3.aws_total_usd) / n,
        "gcp_total_per_student": (what_if.totals["gcp_cost"] + f3.gcp_total_usd) / n,
        "aws_course_total": what_if.totals["aws_cost"] + f3.aws_total_usd,
        "gcp_course_total": what_if.totals["gcp_cost"] + f3.gcp_total_usd,
        "aws_lab_savings": what_if.savings("aws"),
        "gcp_lab_savings": what_if.savings("gcp"),
        "aws_course_savings": base["aws_course_total"]
        - (what_if.totals["aws_cost"] + f3.aws_total_usd),
        "gcp_course_savings": base["gcp_course_total"]
        - (what_if.totals["gcp_cost"] + f3.gcp_total_usd),
        "time_inflation": scenario.time_inflation,
    }


# -- Outage what-if (robustness extension) -----------------------------------------------


@dataclass(frozen=True)
class OutageWhatIf:
    """Table 1 re-priced under "the testbed is unreliable".

    The mirror image of :class:`SpotWhatIf`: spot trades interruptions
    for a discount, outages add the same interruption re-work at full
    on-demand rates, so the delta vs Table 1 is the pure cost of
    infrastructure unreliability.
    """

    rows: list[OutageLabCostRow]
    totals: dict[str, float]
    on_demand_totals: dict[str, float]
    scenario: OutageScenario
    enrollment: int

    def overhead(self, provider: str) -> float:
        """$ added vs the reliable-testbed Table 1."""
        key = f"{provider}_cost"
        return self.totals[key] - self.on_demand_totals[key]

    def render(self) -> str:
        body = []
        for r in self.rows:
            body.append([
                r.title,
                r.resource_type,
                round(r.instance_hours),
                round(r.billed_instance_hours),
                None if r.aws_cost is None else
                f"${r.aws_cost:,.0f} (${r.aws_cost / self.enrollment:,.2f})",
                None if r.gcp_cost is None else
                f"${r.gcp_cost:,.0f} (${r.gcp_cost / self.enrollment:,.2f})",
            ])
        t = self.totals
        body.append([
            "Total", "",
            round(t["instance_hours"]),
            round(t["billed_instance_hours"]),
            f"${t['aws_cost']:,.0f} (${t['aws_cost'] / self.enrollment:,.2f})",
            f"${t['gcp_cost']:,.0f} (${t['gcp_cost'] / self.enrollment:,.2f})",
        ])
        return format_table(
            ["Assignment", "Instance Type", "Metered Hours", "Billed Hours (w/ redo)",
             "AWS Cost", "GCP Cost"],
            body,
            title=(
                "Outage what-if: lab costs under infrastructure interruptions "
                f"(rate {self.scenario.interruption_rate_per_hour:.3g}/h, "
                f"time inflation ×{self.scenario.time_inflation:.3f}; "
                f"adds ${self.overhead('aws'):,.0f} AWS / "
                f"${self.overhead('gcp'):,.0f} GCP vs Table 1)."
            ),
        )


def outage_whatif(
    records: list[UsageRecord],
    *,
    course: CourseDefinition = COURSE,
    model: CostModel | None = None,
    scenario: OutageScenario | None = None,
) -> OutageWhatIf:
    """The "unreliable testbed" what-if table."""
    model = model if model is not None else CostModel(course)
    scenario = scenario if scenario is not None else OutageScenario()
    rows = model.outage_lab_rows(records, scenario)
    on_demand = model.lab_rows(records)
    return OutageWhatIf(
        rows=rows,
        totals=model.outage_lab_totals(rows),
        on_demand_totals=model.lab_totals(on_demand),
        scenario=scenario,
        enrollment=course.enrollment,
    )


# -- Failure accounting (fault-plan ledger -> dollars) -----------------------------------


@dataclass(frozen=True)
class FaultReport:
    """What a fault plan actually cost the cohort.

    Priced from a :class:`~repro.faults.plan.FaultLedger`: redo hours are
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
        by_user = self.aws_redo_by_user if provider == "aws" else self.gcp_redo_by_user
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
    rate_cache: dict[tuple[str, str, str], float | None] = {}
    for event in ledger.events:
        if not event.redo_hours:
            continue
        for provider in ("aws", "gcp"):
            key = (provider, event.lab, event.resource_type)
            if key not in rate_cache:
                if event.lab == "project":
                    inst = model.project_equivalent(event.resource_type, provider)
                    rate_cache[key] = None if inst is None else inst.hourly_usd
                else:
                    rate_cache[key] = model.hourly_rate(event.lab, provider)
            rate = rate_cache[key]
            if rate is None:
                continue
            cost = event.redo_hours * rate
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
    t1 = table1(records, course=course, model=model)
    f3 = fig3_project_usage(records, course=course, model=model)
    lab_hours = t1.totals["instance_hours"]
    project_hours = (
        f3.vm_hours_total + f3.gpu_hours_total + f3.baremetal_cpu_hours + f3.edge_hours
    )
    n = course.enrollment
    return {
        "lab_instance_hours": lab_hours,
        "project_instance_hours": project_hours,
        "total_instance_hours": lab_hours + project_hours,
        "aws_lab_per_student": t1.totals["aws_cost"] / n,
        "gcp_lab_per_student": t1.totals["gcp_cost"] / n,
        "aws_project_per_student": f3.aws_total_usd / n,
        "gcp_project_per_student": f3.gcp_total_usd / n,
        "aws_total_per_student": (t1.totals["aws_cost"] + f3.aws_total_usd) / n,
        "gcp_total_per_student": (t1.totals["gcp_cost"] + f3.gcp_total_usd) / n,
        "aws_course_total": t1.totals["aws_cost"] + f3.aws_total_usd,
        "gcp_course_total": t1.totals["gcp_cost"] + f3.gcp_total_usd,
    }
