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

from repro.common.errors import ValidationError
from repro.common.numerics import stable_sum
from repro.core.catalog import AWS_CATALOG, GCP_CATALOG, CloudInstance, PricingCatalog
from repro.core.course import COURSE, CourseDefinition, TABLE1_ROWS
from repro.core.matching import RequirementSpec, cheapest_match
from repro.core.usage import UsageSummary

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
    """One Table-1 row with both providers' costs (None = NA).

    ``billed_instance_hours`` is ``instance_hours`` times the pricing's
    time inflation: equal to it in Table 1, inflated in a what-if.
    """

    lab_id: str
    title: str
    resource_type: str
    instance_hours: float
    billed_instance_hours: float
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

    def hourly_usd(self, inst: CloudInstance) -> float:
        """The instance's spot rate (a fixed fraction of on-demand when the
        catalog has none)."""
        if inst.spot_hourly_usd is not None:
            return inst.spot_hourly_usd
        return inst.hourly_usd * self.default_spot_fraction


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

    def hourly_usd(self, inst: CloudInstance) -> float:
        """The instance's on-demand rate: unreliability earns no discount."""
        return inst.hourly_usd


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
    """The §5 cost analysis over a :class:`~repro.core.usage.UsageSummary`.

    Each requirement (a lab's, or a project resource type's) is matched
    to its cheapest instance once per provider and model, in a memo that
    lives on the model and dies with it (DESIGN §15).
    """

    def __init__(
        self,
        course: CourseDefinition = COURSE,
        *,
        aws: PricingCatalog = AWS_CATALOG,
        gcp: PricingCatalog = GCP_CATALOG,
    ) -> None:
        self.course = course
        self.catalogs = {"aws": aws, "gcp": gcp}
        self._matches: dict[tuple[str, str, str], CloudInstance | None] = {}

    # -- matching helpers --------------------------------------------------------

    def lab_equivalent(self, lab_id: str, provider: str) -> CloudInstance | None:
        """The cheapest instance for a lab's requirement (None for edge)."""
        return self._match("lab", lab_id, provider)

    def record_equivalent(
        self, lab: str | None, resource_type: str, provider: str
    ) -> CloudInstance | None:
        """The instance that prices usage of ``resource_type`` in ``lab``.

        Project (and unattributed, ``lab=None``) usage takes the project
        spec's match for its resource type; lab usage takes the lab's
        match.  None means no commercial equivalent (the paper's "NA").
        """
        if lab == "project" or lab is None:
            return self._match("project", resource_type, provider)
        return self._match("lab", lab, provider)

    def hourly_rate(self, lab_id: str, provider: str) -> float | None:
        inst = self.lab_equivalent(lab_id, provider)
        return None if inst is None else inst.hourly_usd

    def _match(self, scope: str, name: str, provider: str) -> CloudInstance | None:
        """The memoized match for lab ``name`` or project type ``name``."""
        key = (scope, name, provider)
        if key not in self._matches:
            if scope == "lab":
                spec = self.course.lab(name).requirement
            elif name in PROJECT_SPECS:
                spec = PROJECT_SPECS[name]
            else:
                raise ValidationError(f"no project spec for {name!r}")
            self._matches[key] = (
                None if spec is None else cheapest_match(spec, self._catalog(provider))
            )
        return self._matches[key]

    # -- Table 1 and the spot and outage what-ifs ----------------------------------------

    def lab_rows(
        self, usage: UsageSummary, scenario: SpotScenario | OutageScenario | None = None
    ) -> list[LabCostRow]:
        """Every Table-1 row, in the paper's order, priced on demand or
        under a spot or outage scenario.

        Billable hours are the metered hours times the scenario's expected
        time inflation (preemption or interruption re-work, checkpoint
        writes, restarts); floating-IP hours inflate identically because
        the address is held for the whole — longer — run.  Instance hours
        are billed at the scenario's rate for the lab's matched instance:
        the spot rate, or on-demand for outages.  Table 1 is the pricing
        at inflation 1.0 and on-demand rates (``scenario=None``); the
        matched instance replaces the whole per-student VM set of one
        Chameleon instance, so instance-hours translate 1:1.
        """
        inflation = 1.0 if scenario is None else scenario.time_inflation
        hours = usage.row_hours()
        keys = [k for k in TABLE1_ROWS if k in hours]
        keys += sorted(k for k in hours if k not in TABLE1_ROWS)
        rows: list[LabCostRow] = []
        for lab_id, rtype in keys:
            instance_hours, fip_hours = hours[(lab_id, rtype)]
            billed = instance_hours * inflation
            billed_fip = fip_hours * inflation
            title = self.course.lab(lab_id).title
            priced: dict[str, tuple[str | None, float | None]] = {}
            for provider in ("aws", "gcp"):
                inst = self.lab_equivalent(lab_id, provider)
                if inst is None:
                    priced[provider] = (None, None)
                    continue
                rate = inst.hourly_usd if scenario is None else scenario.hourly_usd(inst)
                priced[provider] = (
                    inst.name,
                    billed * rate + billed_fip * self._catalog(provider).ip_hourly_usd,
                )
            rows.append(LabCostRow(
                lab_id=lab_id,
                title=title,
                resource_type=rtype,
                instance_hours=instance_hours,
                billed_instance_hours=billed,
                floating_ip_hours=fip_hours,
                aws_instance=priced["aws"][0],
                aws_cost=priced["aws"][1],
                gcp_instance=priced["gcp"][0],
                gcp_cost=priced["gcp"][1],
            ))
        return rows

    # -- per-student distribution (Fig 2) --------------------------------------------

    def per_student_costs(self, usage: UsageSummary, provider: str) -> dict[str, float]:
        """Lab cost per student.

        Edge labs have no commercial equivalent and are excluded, like the
        paper: their instance hours and their floating-IP hours both, so
        the costs sum to Table 1's total.
        """
        catalog = self._catalog(provider)
        priced = {
            lab.id for lab in self.course.labs if self.lab_equivalent(lab.id, provider) is not None
        }
        costs: dict[str, float] = {}
        for user, use in usage.users.items():
            if not use.hours:
                continue  # floating IPs alone make no Fig 2 row
            total = 0.0
            for (lab_id, rtype), hours in use.by_row().items():
                inst = self.record_equivalent(lab_id, rtype, provider)
                if inst is None:
                    continue  # edge lab: excluded from the commercial estimate
                total += stable_sum(hours) * inst.hourly_usd
            fip = (h for lab_id, h in zip(use.fip_labs, use.fip_hours) if lab_id in priced)
            total += stable_sum(fip) * catalog.ip_hourly_usd
            costs[user] = total
        return costs

    def expected_cost_per_student(self, provider: str) -> float | None:
        """The §3-durations cost (the paper's $79.80 AWS / $58.85 GCP);
        None (NA) when no lab has a commercial equivalent."""
        catalog = self._catalog(provider)
        total = 0.0
        priced = False
        for lab in self.course.labs:
            rate = self.hourly_rate(lab.id, provider)
            if rate is None:
                continue
            priced = True
            # every VM of a lab bills, but the lab holds one floating IP
            total += lab.expected_instance_hours * rate + lab.expected_hours * catalog.ip_hourly_usd
        return total if priced else None

    # -- project costs (§5) -------------------------------------------------------------

    def project_cost(self, usage: UsageSummary, provider: str) -> ProjectCost:
        """The project's costs, each component added in record order."""
        catalog = self._catalog(provider)
        instance_usd = 0.0
        fip_usd = 0.0
        block_usd = 0.0
        object_usd = 0.0
        for rec in usage.project:
            if rec.kind in ("server", "baremetal", "edge"):
                inst = self.record_equivalent(rec.lab, rec.resource_type, provider)
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
        """Totals row of Table 1 or of a what-if table."""
        return {
            "instance_hours": sum(r.instance_hours for r in rows),
            "billed_instance_hours": sum(r.billed_instance_hours for r in rows),
            "floating_ip_hours": sum(r.floating_ip_hours for r in rows),
            "aws_cost": sum(r.aws_cost or 0.0 for r in rows),
            "gcp_cost": sum(r.gcp_cost or 0.0 for r in rows),
        }

    def _catalog(self, provider: str) -> PricingCatalog:
        try:
            return self.catalogs[provider]
        except KeyError:
            raise ValidationError(f"unknown provider {provider!r}") from None


def distribution_stats(
    costs: dict[str, float], expected: float | None
) -> dict[str, float | None]:
    """The Fig-2 statistics over a per-student cost mapping.

    An empty cohort (nobody incurred cost — e.g. a filtered sub-cohort or
    an all-edge course) yields all-zero statistics rather than an error,
    and a zero/negative ``expected`` is rejected up front so the
    "% exceeding expected" column can never silently divide a bad
    baseline.  ``expected=None`` (no lab has a commercial equivalent)
    reports both expected-cost statistics as None, the paper's "NA".
    """
    if expected is not None and expected <= 0:
        raise ValidationError(f"expected cost must be positive: {expected!r}")
    if not costs:
        return {
            "n": 0.0,
            "mean": 0.0,
            "median": 0.0,
            "p75": 0.0,
            "p95": 0.0,
            "max": 0.0,
            "expected": None if expected is None else float(expected),
            "pct_exceeding_expected": None if expected is None else 0.0,
        }
    arr = np.array(sorted(costs.values()))
    return {
        "n": float(arr.size),
        "mean": float(arr.mean()),
        "median": float(np.percentile(arr, 50)),
        "p75": float(np.percentile(arr, 75)),
        "p95": float(np.percentile(arr, 95)),
        "max": float(arr.max()),
        "expected": None if expected is None else float(expected),
        "pct_exceeding_expected": (
            None if expected is None else float((arr > expected).mean() * 100.0)
        ),
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
        return usd_per_million(self.cost_usd, served_requests)


def usd_per_million(cost_usd: float | None, served: float) -> float | None:
    """Dollars per one million served requests (None = NA / no traffic).

    ``served`` may be a quality-adjusted count
    (:func:`quality_adjusted_served`).
    """
    if cost_usd is None or served <= 0:
        return None
    return cost_usd / served * 1e6


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
