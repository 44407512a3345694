"""Translating testbed usage into commercial-cloud dollars.

Implements the paper's §5 cost model: each assignment's requirement is
matched to the cheapest satisfying instance per provider
(:func:`~repro.core.matching.cheapest_match`); cost = instance-hours ×
rate + floating-IP-hours × address rate.  Lab storage is excluded ("we do
not include storage costs, which are negligible"), project storage is
included.  The "Serving from the Edge" rows have no commercial equivalent
and cost ``None`` (the paper's "NA").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cloud.metering import UsageRecord
from repro.common.errors import ValidationError
from repro.core.catalog import AWS_CATALOG, GCP_CATALOG, CloudInstance, PricingCatalog
from repro.core.course import COURSE, CourseDefinition, LabKind, TABLE1_ROWS
from repro.core.matching import RequirementSpec, cheapest_match
from repro.core.usage import (
    AssignmentUsage,
    aggregate_by_assignment,
    per_user_fip_hours,
    per_user_instance_hours,
)

HOURS_PER_MONTH = 730.0

#: Requirement specs for project usage, keyed by Chameleon resource type.
#: Projects are heterogeneous, so the paper's "conservative assumptions"
#: are modelled as one representative requirement per resource class.
PROJECT_SPECS: dict[str, RequirementSpec | None] = {
    "m1.small": RequirementSpec(vcpus=1, ram_gib=2),
    # project services run continuously -> dedicated cores, unlike lab 7's VM
    "m1.medium": RequirementSpec(vcpus=2, ram_gib=4, dedicated_cores=True),
    "m1.large": RequirementSpec(vcpus=2, ram_gib=8, dedicated_cores=True),
    "m1.xlarge": RequirementSpec(vcpus=8, ram_gib=16),
    # project training is mostly single-GPU fine-tuning on mid-range parts
    "compute_gigaio": RequirementSpec(vcpus=4, ram_gib=16, gpus=1, gpu_mem_gib=24,
                                      min_compute_capability=7.0),
    "compute_liqid": RequirementSpec(vcpus=4, ram_gib=16, gpus=1, gpu_mem_gib=24,
                                     min_compute_capability=7.0),
    "compute_liqid_2": RequirementSpec(vcpus=8, ram_gib=32, gpus=2, gpu_mem_gib=24),
    "gpu_mi100": RequirementSpec(vcpus=8, ram_gib=32, gpus=2, gpu_mem_gib=16),
    "gpu_p100": RequirementSpec(vcpus=8, ram_gib=32, gpus=2, gpu_mem_gib=16,
                                min_compute_capability=6.0),
    "gpu_a100_pcie": RequirementSpec(vcpus=8, ram_gib=64, gpus=4, gpu_mem_gib=40, needs_bf16=True),
    "gpu_v100": RequirementSpec(vcpus=8, ram_gib=32, gpus=4, gpu_mem_gib=16,
                                min_compute_capability=7.0),
    "compute_cascadelake": RequirementSpec(vcpus=30, ram_gib=96),
    "raspberrypi5": None,  # no commercial equivalent
    "jetson-nano": None,
}


@dataclass(frozen=True)
class LabCostRow:
    """One Table-1 row with both providers' costs (None = NA)."""

    lab_id: str
    title: str
    resource_type: str
    instance_hours: float
    floating_ip_hours: float
    aws_instance: str | None
    aws_cost: float | None
    gcp_instance: str | None
    gcp_cost: float | None


@dataclass(frozen=True)
class SpotScenario:
    """Assumptions for the "VM labs on spot" what-if (§5 extension).

    Preemptions arrive at ``preempt_rate_per_hour``; workloads checkpoint
    every ``checkpoint_interval_hours`` (None = the Young/Daly optimum)
    at ``checkpoint_overhead_hours`` per write and pay
    ``restart_overhead_hours`` per preemption.  The re-work this implies
    inflates billable hours via
    :func:`repro.spot.advisor.expected_time_inflation`.
    ``default_spot_fraction`` prices instances whose catalog entry has no
    spot rate.
    """

    preempt_rate_per_hour: float = 0.05
    checkpoint_interval_hours: float | None = None
    checkpoint_overhead_hours: float = 30.0 / 3600.0
    restart_overhead_hours: float = 3.0 / 60.0
    default_spot_fraction: float = 0.32

    def __post_init__(self) -> None:
        if self.preempt_rate_per_hour < 0:
            raise ValidationError(f"negative preemption rate: {self!r}")
        if self.checkpoint_interval_hours is not None and self.checkpoint_interval_hours <= 0:
            raise ValidationError(f"checkpoint interval must be positive: {self!r}")
        if self.checkpoint_overhead_hours <= 0 or self.restart_overhead_hours < 0:
            raise ValidationError(f"invalid overheads: {self!r}")
        if not (0 < self.default_spot_fraction <= 1):
            raise ValidationError(f"invalid default spot fraction: {self!r}")

    @property
    def time_inflation(self) -> float:
        """Expected wall-clock per useful hour under these assumptions."""
        from repro.spot.advisor import expected_time_inflation

        return expected_time_inflation(
            self.preempt_rate_per_hour,
            checkpoint_interval_hours=self.checkpoint_interval_hours,
            checkpoint_overhead_hours=self.checkpoint_overhead_hours,
            restart_overhead_hours=self.restart_overhead_hours,
        )


@dataclass(frozen=True)
class OutageScenario:
    """Assumptions for the "unreliable testbed" what-if.

    Infrastructure interruptions (site outages taking the host down,
    per-instance hardware failures) arrive at
    ``interruption_rate_per_hour``; workloads checkpoint every
    ``checkpoint_interval_hours`` (None = the Young/Daly optimum) and pay
    ``restart_overhead_hours`` per interruption — by default slower than
    a spot restart, since infrastructure failures come with no notice
    window to drain into.  The implied re-work inflates billable hours
    via :func:`repro.spot.advisor.expected_time_inflation`, exactly like
    :class:`SpotScenario` — but at *on-demand* rates: unreliability is
    pure overhead, never a discount.
    """

    interruption_rate_per_hour: float = 0.01
    checkpoint_interval_hours: float | None = None
    checkpoint_overhead_hours: float = 30.0 / 3600.0
    restart_overhead_hours: float = 10.0 / 60.0

    def __post_init__(self) -> None:
        if self.interruption_rate_per_hour < 0:
            raise ValidationError(f"negative interruption rate: {self!r}")
        if self.checkpoint_interval_hours is not None and self.checkpoint_interval_hours <= 0:
            raise ValidationError(f"checkpoint interval must be positive: {self!r}")
        if self.checkpoint_overhead_hours <= 0 or self.restart_overhead_hours < 0:
            raise ValidationError(f"invalid overheads: {self!r}")

    @classmethod
    def from_fault_plan(
        cls,
        *,
        outage_rate_per_week: float,
        hazard_rate_per_khour: float,
        restart_overhead_hours: float = 10.0 / 60.0,
    ) -> "OutageScenario":
        """Derive the per-instance interruption rate from fault-plan knobs
        (an instance sees its site's outages plus its own hazard)."""
        return cls(
            interruption_rate_per_hour=(
                outage_rate_per_week / 168.0 + hazard_rate_per_khour / 1000.0
            ),
            restart_overhead_hours=restart_overhead_hours,
        )

    @property
    def time_inflation(self) -> float:
        """Expected wall-clock per useful hour under these assumptions."""
        from repro.spot.advisor import expected_time_inflation

        return expected_time_inflation(
            self.interruption_rate_per_hour,
            checkpoint_interval_hours=self.checkpoint_interval_hours,
            checkpoint_overhead_hours=self.checkpoint_overhead_hours,
            restart_overhead_hours=self.restart_overhead_hours,
        )


@dataclass(frozen=True)
class OutageLabCostRow:
    """A Table-1 row re-priced under infrastructure interruptions (None = NA)."""

    lab_id: str
    title: str
    resource_type: str
    instance_hours: float
    billed_instance_hours: float  # instance_hours × scenario inflation
    floating_ip_hours: float
    aws_cost: float | None
    gcp_cost: float | None


@dataclass(frozen=True)
class SpotLabCostRow:
    """A Table-1 row re-priced on preemptible capacity (None = NA)."""

    lab_id: str
    title: str
    resource_type: str
    instance_hours: float
    billed_instance_hours: float  # instance_hours × scenario inflation
    floating_ip_hours: float
    aws_spot_cost: float | None
    gcp_spot_cost: float | None


@dataclass(frozen=True)
class ProjectCost:
    provider: str
    instance_usd: float
    floating_ip_usd: float
    block_storage_usd: float
    object_storage_usd: float

    @property
    def total_usd(self) -> float:
        return (
            self.instance_usd
            + self.floating_ip_usd
            + self.block_storage_usd
            + self.object_storage_usd
        )


class CostModel:
    """The §5 cost analysis over a set of usage records."""

    def __init__(
        self,
        course: CourseDefinition = COURSE,
        *,
        aws: PricingCatalog = AWS_CATALOG,
        gcp: PricingCatalog = GCP_CATALOG,
    ) -> None:
        self.course = course
        self.catalogs = {"aws": aws, "gcp": gcp}

    # -- matching helpers --------------------------------------------------------

    def lab_equivalent(self, lab_id: str, provider: str) -> CloudInstance | None:
        """The cheapest instance for a lab's requirement (None for edge)."""
        spec = self.course.lab(lab_id).requirement
        if spec is None:
            return None
        return cheapest_match(spec, self._catalog(provider))

    def project_equivalent(self, resource_type: str, provider: str) -> CloudInstance | None:
        try:
            spec = PROJECT_SPECS[resource_type]
        except KeyError:
            raise ValidationError(f"no project spec for {resource_type!r}") from None
        if spec is None:
            return None
        return cheapest_match(spec, self._catalog(provider))

    def hourly_rate(self, lab_id: str, provider: str) -> float | None:
        inst = self.lab_equivalent(lab_id, provider)
        return None if inst is None else inst.hourly_usd

    # -- Table 1 --------------------------------------------------------------------

    def lab_rows(self, records: list[UsageRecord]) -> list[LabCostRow]:
        """Compute every Table-1 row (in the paper's order) from records."""
        usage = aggregate_by_assignment(records)
        rows: list[LabCostRow] = []
        ordered_keys = [k for k in TABLE1_ROWS if k in usage]
        extra = sorted(k for k in usage if k not in TABLE1_ROWS and k[0] != "project")
        for lab_id, rtype in ordered_keys + extra:
            row = usage[(lab_id, rtype)]
            rows.append(self._cost_row(row))
        return rows

    def _cost_row(self, usage: AssignmentUsage) -> LabCostRow:
        lab = self.course.lab(usage.lab_id)
        out = {}
        for provider in ("aws", "gcp"):
            inst = self.lab_equivalent(usage.lab_id, provider)
            if inst is None:
                out[provider] = (None, None)
                continue
            catalog = self._catalog(provider)
            # the matched instance replaces the whole per-student VM set of
            # one Chameleon instance, so instance-hours translate 1:1
            cost = usage.instance_hours * inst.hourly_usd + (
                usage.floating_ip_hours * catalog.ip_hourly_usd
            )
            out[provider] = (inst.name, cost)
        return LabCostRow(
            lab_id=usage.lab_id,
            title=lab.title,
            resource_type=usage.resource_type,
            instance_hours=usage.instance_hours,
            floating_ip_hours=usage.floating_ip_hours,
            aws_instance=out["aws"][0],
            aws_cost=out["aws"][1],
            gcp_instance=out["gcp"][0],
            gcp_cost=out["gcp"][1],
        )

    # -- spot what-if (§5 extension) ---------------------------------------------------

    def spot_hourly_rate(
        self, lab_id: str, provider: str, scenario: SpotScenario | None = None
    ) -> float | None:
        """The matched instance's spot rate (None for edge labs)."""
        scenario = scenario if scenario is not None else SpotScenario()
        inst = self.lab_equivalent(lab_id, provider)
        if inst is None:
            return None
        if inst.spot_hourly_usd is not None:
            return inst.spot_hourly_usd
        return inst.hourly_usd * scenario.default_spot_fraction

    def spot_lab_rows(
        self, records: list[UsageRecord], scenario: SpotScenario | None = None
    ) -> list[SpotLabCostRow]:
        """Table 1 re-priced as if every VM lab ran on spot capacity.

        Billable hours are the metered hours times the scenario's expected
        time inflation (preemption re-work, checkpoint writes); floating-IP
        hours inflate identically because the address is held for the whole
        — longer — run.
        """
        scenario = scenario if scenario is not None else SpotScenario()
        inflation = scenario.time_inflation
        out: list[SpotLabCostRow] = []
        for row in self.lab_rows(records):
            billed = row.instance_hours * inflation
            billed_fip = row.floating_ip_hours * inflation
            costs: dict[str, float | None] = {}
            for provider in ("aws", "gcp"):
                rate = self.spot_hourly_rate(row.lab_id, provider, scenario)
                if rate is None:
                    costs[provider] = None
                    continue
                catalog = self._catalog(provider)
                costs[provider] = billed * rate + billed_fip * catalog.ip_hourly_usd
            out.append(SpotLabCostRow(
                lab_id=row.lab_id,
                title=row.title,
                resource_type=row.resource_type,
                instance_hours=row.instance_hours,
                billed_instance_hours=billed,
                floating_ip_hours=row.floating_ip_hours,
                aws_spot_cost=costs["aws"],
                gcp_spot_cost=costs["gcp"],
            ))
        return out

    def spot_lab_totals(self, rows: list[SpotLabCostRow]) -> dict[str, float]:
        """Totals of the spot what-if table."""
        return {
            "instance_hours": sum(r.instance_hours for r in rows),
            "billed_instance_hours": sum(r.billed_instance_hours for r in rows),
            "floating_ip_hours": sum(r.floating_ip_hours for r in rows),
            "aws_cost": sum(r.aws_spot_cost or 0.0 for r in rows),
            "gcp_cost": sum(r.gcp_spot_cost or 0.0 for r in rows),
        }

    # -- outage what-if ----------------------------------------------------------------

    def outage_lab_rows(
        self, records: list[UsageRecord], scenario: OutageScenario | None = None
    ) -> list[OutageLabCostRow]:
        """Table 1 re-priced as if the testbed suffered the scenario's
        interruptions: the same on-demand rates, but every metered hour
        inflates by the expected re-work (redo after kills, checkpoint
        writes, restart overheads).  Floating-IP hours inflate identically
        — the address is held for the whole, longer, run.
        """
        scenario = scenario if scenario is not None else OutageScenario()
        inflation = scenario.time_inflation
        out: list[OutageLabCostRow] = []
        for row in self.lab_rows(records):
            billed = row.instance_hours * inflation
            billed_fip = row.floating_ip_hours * inflation
            costs: dict[str, float | None] = {}
            for provider in ("aws", "gcp"):
                rate = self.hourly_rate(row.lab_id, provider)
                if rate is None:
                    costs[provider] = None
                    continue
                catalog = self._catalog(provider)
                costs[provider] = billed * rate + billed_fip * catalog.ip_hourly_usd
            out.append(OutageLabCostRow(
                lab_id=row.lab_id,
                title=row.title,
                resource_type=row.resource_type,
                instance_hours=row.instance_hours,
                billed_instance_hours=billed,
                floating_ip_hours=row.floating_ip_hours,
                aws_cost=costs["aws"],
                gcp_cost=costs["gcp"],
            ))
        return out

    def outage_lab_totals(self, rows: list[OutageLabCostRow]) -> dict[str, float]:
        """Totals of the outage what-if table."""
        return {
            "instance_hours": sum(r.instance_hours for r in rows),
            "billed_instance_hours": sum(r.billed_instance_hours for r in rows),
            "floating_ip_hours": sum(r.floating_ip_hours for r in rows),
            "aws_cost": sum(r.aws_cost or 0.0 for r in rows),
            "gcp_cost": sum(r.gcp_cost or 0.0 for r in rows),
        }

    # -- per-student distribution (Fig 2) --------------------------------------------

    def per_student_costs(self, records: list[UsageRecord], provider: str) -> dict[str, float]:
        """Lab cost per student (edge rows excluded, like the paper)."""
        catalog = self._catalog(provider)
        lab_ids = {lab.id for lab in self.course.labs}
        inst_hours = per_user_instance_hours(records, labs=lab_ids)
        fip_hours = per_user_fip_hours(records, labs=lab_ids)
        rates: dict[str, float | None] = {}  # one catalog match per lab
        costs: dict[str, float] = {}
        for user, by_row in inst_hours.items():
            total = 0.0
            for (lab_id, _rtype), hours in by_row.items():
                if lab_id not in rates:
                    rates[lab_id] = self.hourly_rate(lab_id, provider)
                rate = rates[lab_id]
                if rate is None:
                    continue  # edge lab: excluded from the commercial estimate
                total += hours * rate
            total += fip_hours.get(user, 0.0) * catalog.ip_hourly_usd
            costs[user] = total
        return costs

    def expected_cost_per_student(self, provider: str) -> float:
        """The §3-durations cost (the paper's $79.80 AWS / $58.85 GCP)."""
        catalog = self._catalog(provider)
        total = 0.0
        for lab in self.course.labs:
            rate = self.hourly_rate(lab.id, provider)
            if rate is None:
                continue
            if lab.kind is LabKind.VM:
                inst_hours = lab.expected_hours * lab.vm_count
                fip_hours = lab.expected_hours
            else:
                inst_hours = lab.expected_hours
                fip_hours = lab.expected_hours
            total += inst_hours * rate + fip_hours * catalog.ip_hourly_usd
        return total

    # -- project costs (§5) -------------------------------------------------------------

    def project_cost(self, records: list[UsageRecord], provider: str) -> ProjectCost:
        catalog = self._catalog(provider)
        instance_usd = 0.0
        fip_usd = 0.0
        block_usd = 0.0
        object_usd = 0.0
        matched: dict[str, CloudInstance | None] = {}  # one catalog match per type
        for rec in records:
            if rec.lab != "project":
                continue
            if rec.kind in ("server", "baremetal", "edge"):
                rtype = rec.resource_type
                if rtype not in matched:
                    matched[rtype] = self.project_equivalent(rtype, provider)
                inst = matched[rtype]
                if inst is not None:
                    instance_usd += rec.unit_hours * inst.hourly_usd
            elif rec.kind == "floating_ip":
                fip_usd += rec.unit_hours * catalog.ip_hourly_usd
            elif rec.kind == "volume":
                block_usd += rec.unit_hours / HOURS_PER_MONTH * catalog.block_gb_month_usd
            elif rec.kind == "object_storage":
                object_usd += rec.unit_hours / HOURS_PER_MONTH * catalog.object_gb_month_usd
        return ProjectCost(
            provider=provider,
            instance_usd=instance_usd,
            floating_ip_usd=fip_usd,
            block_storage_usd=block_usd,
            object_storage_usd=object_usd,
        )

    # -- summary -----------------------------------------------------------------------

    def lab_totals(self, rows: list[LabCostRow]) -> dict[str, float]:
        """Totals row of Table 1."""
        return {
            "instance_hours": sum(r.instance_hours for r in rows),
            "floating_ip_hours": sum(r.floating_ip_hours for r in rows),
            "aws_cost": sum(r.aws_cost or 0.0 for r in rows),
            "gcp_cost": sum(r.gcp_cost or 0.0 for r in rows),
        }

    def _catalog(self, provider: str) -> PricingCatalog:
        try:
            return self.catalogs[provider]
        except KeyError:
            raise ValidationError(f"unknown provider {provider!r}") from None


def distribution_stats(costs: dict[str, float], expected: float) -> dict[str, float]:
    """The Fig-2 statistics over a per-student cost mapping.

    An empty cohort (nobody incurred cost — e.g. a filtered sub-cohort or
    an all-edge course) yields all-zero statistics rather than an error,
    and a zero/negative ``expected`` is rejected up front so the
    "% exceeding expected" column can never silently divide a bad
    baseline.
    """
    if expected <= 0:
        raise ValidationError(f"expected cost must be positive: {expected!r}")
    if not costs:
        return {
            "n": 0.0,
            "mean": 0.0,
            "median": 0.0,
            "p75": 0.0,
            "p95": 0.0,
            "max": 0.0,
            "expected": float(expected),
            "pct_exceeding_expected": 0.0,
        }
    arr = np.array(sorted(costs.values()))
    return {
        "n": float(arr.size),
        "mean": float(arr.mean()),
        "median": float(np.percentile(arr, 50)),
        "p75": float(np.percentile(arr, 75)),
        "p95": float(np.percentile(arr, 95)),
        "max": float(arr.max()),
        "expected": float(expected),
        "pct_exceeding_expected": float((arr > expected).mean() * 100.0),
    }


# -- serving replica pricing (Table-1 methodology applied to inference) ------------


#: Serving device name -> catalog ``gpu_model`` string.  Devices without a
#: commercial GPU row (edge boards, datacenter parts absent from the
#: July-2025 snapshot) map to None and price as "NA", like Table 1's edge
#: rows.
#: Catalog ``gpu_model`` string per serving device; ``None`` marks a
#: device with no commercial equivalent (the paper's "NA" rows: retired
#: GPUs and the CHI@Edge boards).  Devices absent from this mapping are
#: priced by the generic CPU path.
SERVING_GPU_MODELS: dict[str, str | None] = {
    "a100": "A100-40",
    "t4": "T4",
    "a30": None,   # no A30 shape in either July-2025 catalog
    "p100": None,  # P100 retired from both on-demand catalogs
    "raspberrypi5": None,
    "jetson-nano": None,
}

#: Dedicated vCPUs a CPU serving replica occupies (the `server-cpu-16c`
#: device profile).
SERVING_CPU_VCPUS = 16


@dataclass(frozen=True)
class ServingCostRow:
    """One provider's pricing of a replica fleet, in replica-hours.

    ``hourly_usd`` is the per-replica rate: a matched GPU instance's rate
    divided by its GPU count (one replica = one device, per the serving
    lab's instance-group model), or the full rate of the cheapest
    dedicated-core CPU shape that fits.  ``None`` costs mean the device
    has no commercial equivalent — the paper's "NA".
    """

    device: str
    provider: str
    instance: str | None
    replica_hours: float
    hourly_usd: float | None

    @property
    def cost_usd(self) -> float | None:
        if self.hourly_usd is None:
            return None
        return self.replica_hours * self.hourly_usd

    def cost_per_million(self, served_requests: int) -> float | None:
        """Dollars per one million served requests (None = NA / no traffic)."""
        cost = self.cost_usd
        if cost is None or served_requests <= 0:
            return None
        return cost / served_requests * 1e6


def serving_equivalent(
    device_name: str, provider: str, *, is_gpu: bool = True
) -> CloudInstance | None:
    """The cheapest commercial instance that can host one serving replica.

    GPU devices match on the catalog's ``gpu_model`` string and are
    priced per GPU (multi-GPU shapes host one replica per device, exactly
    the instance-group model of the Triton lab).  CPU devices take the
    cheapest dedicated-core shape with at least
    :data:`SERVING_CPU_VCPUS` vCPUs.  Returns None when no shape
    qualifies.
    """
    catalog = {"aws": AWS_CATALOG, "gcp": GCP_CATALOG}.get(provider)
    if catalog is None:
        raise ValidationError(f"unknown provider {provider!r}")
    if device_name in SERVING_GPU_MODELS and SERVING_GPU_MODELS[device_name] is None:
        return None  # NA row: retired GPU or edge board, on either path
    if is_gpu:
        model = SERVING_GPU_MODELS.get(device_name)
        if model is None:
            return None
        candidates = [i for i in catalog if i.gpus > 0 and i.gpu_model == model]
        return min(candidates, key=lambda i: (i.hourly_usd / i.gpus, i.name), default=None)
    candidates = [
        i for i in catalog
        if i.gpus == 0 and not i.shared_core and i.vcpus >= SERVING_CPU_VCPUS
    ]
    return min(candidates, key=lambda i: (i.hourly_usd, i.name), default=None)


def serving_cost_row(
    device_name: str, provider: str, replica_hours: float, *, is_gpu: bool = True
) -> ServingCostRow:
    """Price a fleet's replica-hours on one provider (Table-1 style)."""
    if replica_hours < 0:
        raise ValidationError(f"replica hours cannot be negative: {replica_hours!r}")
    inst = serving_equivalent(device_name, provider, is_gpu=is_gpu)
    if inst is None:
        return ServingCostRow(
            device=device_name, provider=provider, instance=None,
            replica_hours=replica_hours, hourly_usd=None,
        )
    rate = inst.hourly_usd / inst.gpus if (is_gpu and inst.gpus) else inst.hourly_usd
    return ServingCostRow(
        device=device_name, provider=provider, instance=inst.name,
        replica_hours=replica_hours, hourly_usd=rate,
    )


def quality_adjusted_served(
    served_full: int, served_brownout: int, quality_discount: float
) -> float:
    """Effective full-quality request count of a brownout-mode run.

    The resilience layer's brownout defense serves degraded responses
    (smaller model, truncated inputs) when the queue is deep; pretending
    a degraded answer equals a full one would make brownout look free.
    Each brownout-served request counts as ``1 - quality_discount`` of a
    full response, so cost-per-million stays comparable across the
    policy ladder.
    """
    if served_full < 0 or served_brownout < 0:
        raise ValidationError(
            f"served counts cannot be negative: {served_full!r}, {served_brownout!r}"
        )
    if not (0.0 <= quality_discount < 1.0):
        raise ValidationError(
            f"quality_discount must be in [0, 1): {quality_discount!r}"
        )
    return served_full + served_brownout * (1.0 - quality_discount)
