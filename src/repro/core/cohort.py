"""The student-cohort behaviour simulation.

Drives the :mod:`repro.cloud` testbed with 191 simulated students over a
14-week semester, reproducing the *mechanisms* behind the paper's §5
observations:

* **VM labs** (Units 1-3, 7, 8): students provision on-demand instances
  that persist until explicitly deleted.  Persistence is drawn from a
  heavy-tailed lognormal whose mean is calibrated from Table 1 —
  "sometimes intentionally (to avoid repeating lengthy setup), other
  times due to neglect" (§5).  Durations are capped at semester end
  (staff clean-up).
* **Reserved labs** (Units 4-6): students book 2-3-hour slots on
  bare-metal/edge nodes through the lease system; auto-termination makes
  actual usage equal booked usage (Fig 1(b)).  Re-run counts are Poisson
  with Table-1-calibrated means.
* **Projects**: groups of 3-4 run long-lived service VMs, GPU training
  slots, big-data bare-metal jobs, edge deployments, and storage for the
  final ~6.5 weeks (§5's project usage).

Architecture: **plan → execute → merge.**  All randomness and all
cross-student coupling (the stratified duration pools, the shared slot
calendar, quota admission) are resolved up front by :func:`plan_cohort`
into per-student / per-group :class:`ShardPlan`\\ s whose activities carry
fully resolved absolute times.  Planning itself lives in
:mod:`repro.columnar.planner`, the one cohort planner; this module holds
the cohort-level draws and seed tree it uses, the shard types, and
execution on the testbed.  Seeds derive from one
``numpy.random.SeedSequence`` tree (cohort stream, one stream per
student, one per group), so any subset of shards can be planned and
executed independently of the rest.  Executing a shard
(:func:`execute_shard`) is RNG-free and touches only its own activities,
which is what lets :func:`repro.parallel.run_parallel` fan shards out to
worker processes and still merge back a record stream digest-identical
to the serial :meth:`CohortSimulation.run` (see
:func:`repro.core.usage.canonicalize_records`).

Everything is seeded; totals land within a few percent of Table 1
(asserted in tests with tolerant bands), while the *distribution* of
per-student cost (Fig 2) emerges from the behaviour model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Protocol

import numpy as np
from scipy.special import ndtr, ndtri

from repro.cloud.inventory import CHAMELEON_NODE_TYPES, EDGE_DEVICE_TYPES
from repro.cloud.metering import UsageRecord
from repro.cloud.quota import Quota
from repro.cloud.site import Site
from repro.cloud.testbed import Testbed, chameleon
from repro.common.errors import ConflictError, QuotaExceededError, ValidationError
from repro.common.retry import RetryPolicy
from repro.core.course import COURSE, CourseDefinition, LabKind
from repro.core.usage import canonicalize_records

if TYPE_CHECKING:
    from repro.columnar.planner import ActivityTables
    from repro.columnar.schema import ColumnSchema

KVM_SITE = "kvm@tacc"
METAL_SITE = "chi@tacc"
EDGE_SITE = "chi@edge"

#: The enrollment the paper's KVM quota increase (§4) was granted for;
#: larger cohorts get the quota scaled up proportionally.
QUOTA_BASELINE_ENROLLMENT = 191


@dataclass(frozen=True)
class CohortConfig:
    """Knobs of the behaviour model."""

    seed: int = 42
    participation: float = 1.0  # fraction of students attempting each lab
    # how a student reacts to quota exhaustion: check again every 6 hours,
    # give up after 60 retries (the historical reactive behaviour, now one
    # policy object shared with the fault layer's relaunch logic)
    quota_retry: RetryPolicy = RetryPolicy.quota_default()
    vm_reaper: bool = False  # ablation: auto-terminate VM labs at expected+grace
    vm_reaper_grace: float = 2.0  # hours beyond expected before the reaper fires
    # per-student "negligence propensity": one lognormal factor applied to a
    # student's behaviour in EVERY lab (VM persistence, re-run counts), so
    # the long tail of Fig 2 is a few students who are costly everywhere.
    propensity_sigma: float = 0.5

    def __post_init__(self) -> None:
        if not (0 < self.participation <= 1):
            raise ValidationError(f"participation must be in (0,1]: {self.participation!r}")
        if self.propensity_sigma < 0:
            raise ValidationError("propensity sigma cannot be negative")


def stratified_lognormal(mean: float, sigma: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` lognormal draws with the exact target mean, heavy tail intact.

    Uses stratified inverse-CDF sampling (one jittered quantile per stratum,
    then a random permutation).  The sample mean is within a fraction of a
    percent of ``mean`` even for n=191 and sigma>1 — which is what lets the
    cohort's Table-1 row totals land on the calibration targets without
    giving up the lognormal's tail (the variance-reduction idiom of the
    HPC guides: restructure the sampling, don't inflate the sample).
    """
    if mean <= 0 or sigma < 0 or n <= 0:
        raise ValidationError("invalid stratified-lognormal parameters")
    mu = np.log(mean) - sigma**2 / 2.0
    quantiles = (np.arange(n) + rng.uniform(0.02, 0.98, size=n)) / n
    draws = np.exp(mu + sigma * ndtri(quantiles))
    rng.shuffle(draws)
    return draws


def capped_mean_compensation(target_mean: float, sigma: float, cap: float) -> float:
    """Raw lognormal mean whose cap-at-``cap`` expectation equals the target.

    E[min(X, c)] for X ~ LN(mu, sigma) is
    ``e^{mu+s^2/2} Phi((ln c - mu - s^2)/s) + c (1 - Phi((ln c - mu)/s))``;
    we bisect on the raw mean.  Compensates for the semester-end staff
    clean-up truncating the persistence distribution.
    """
    if cap <= target_mean:
        raise ValidationError(f"cap {cap} must exceed the target mean {target_mean}")

    def capped_mean(raw_mean: float) -> float:
        mu = np.log(raw_mean) - sigma**2 / 2.0
        z1 = (np.log(cap) - mu - sigma**2) / sigma
        z2 = (np.log(cap) - mu) / sigma
        # ndtr(-z2) is the upper tail norm.sf computes, not 1 - ndtr(z2)
        return float(raw_mean * ndtr(z1) + cap * ndtr(-z2))

    lo, hi = target_mean, target_mean * 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if capped_mean(mid) < target_mean:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9 * target_mean:
            break
    return 0.5 * (lo + hi)


# -- shardable plan units ---------------------------------------------------------
#
# Every activity carries fully resolved absolute times and scalar Python
# values (no numpy scalars), so shards pickle cheaply and execute without
# any RNG or cross-shard state.


@dataclass(frozen=True)
class VmLabActivity:
    """One student's on-demand VM set for one lab."""

    lab_id: str
    user: str
    start: float
    duration: float
    flavor: str
    vm_count: int
    block_gb: int = 0
    object_gb: float = 0.0


@dataclass(frozen=True)
class SlotActivity:
    """One booked reservation slot (bare-metal or edge lab)."""

    lab_id: str
    user: str
    site: str
    node_type: str
    start: float
    slot_hours: float
    edge: bool


@dataclass(frozen=True)
class ProjectVmActivity:
    """One long-lived project service VM."""

    user: str
    flavor: str
    start: float
    hours: float
    with_fip: bool


@dataclass(frozen=True)
class ProjectLeaseActivity:
    """One project lease (GPU training slot, big-data job, edge deploy)."""

    user: str
    site: str
    node_type: str
    start: float
    hours: float
    edge_session: bool


@dataclass(frozen=True)
class ProjectStorageActivity:
    """One group's block volume + object-store footprint."""

    user: str
    start: float
    block_gb: int
    object_gb: float
    hours: float


@dataclass(frozen=True)
class ShardPlan:
    """All activities of one independent execution unit (student or group).

    ``spawn_key`` records the shard's position in the SeedSequence spawn
    tree (provenance; execution itself is RNG-free).
    """

    shard_id: str
    spawn_key: tuple[int, ...]
    vm_labs: tuple[VmLabActivity, ...] = ()
    slots: tuple[SlotActivity, ...] = ()
    project_vms: tuple[ProjectVmActivity, ...] = ()
    project_leases: tuple[ProjectLeaseActivity, ...] = ()
    project_storage: tuple[ProjectStorageActivity, ...] = ()

    @property
    def activity_count(self) -> int:
        return (
            len(self.vm_labs)
            + len(self.slots)
            + len(self.project_vms)
            + len(self.project_leases)
            + len(self.project_storage)
        )


@dataclass(frozen=True)
class CohortPlan:
    """The fully resolved semester: every shard, ready to execute anywhere."""

    seed: int
    semester_hours: float
    quota: Quota
    student_shards: tuple[ShardPlan, ...]
    group_shards: tuple[ShardPlan, ...]

    def shards(self, *, include_project: bool = True) -> tuple[ShardPlan, ...]:
        if include_project:
            return self.student_shards + self.group_shards
        return self.student_shards

    @property
    def activity_count(self) -> int:
        return sum(s.activity_count for s in self.shards())


class FaultModel(Protocol):
    """Anything that may rewrite the *raw* activity tables before admission.

    The canonical implementation is
    :class:`repro.faults.plan.FaultSweep`, which resolves a seeded
    :class:`~repro.faults.plan.FaultCalendar` into killed / relaunched /
    delayed activities.  The planner only sees this protocol, so neither
    :mod:`repro.core` nor :mod:`repro.columnar` imports
    :mod:`repro.faults` (the dependency points one way) and a ``None``
    fault model leaves the plan byte-identical to the fault-free planner.
    """

    def apply(
        self, tables: ActivityTables, *, schema: ColumnSchema, semester_hours: float
    ) -> ActivityTables: ...


def quota_for(course: CourseDefinition) -> Quota:
    """The KVM@TACC quota for ``course``: the paper's grant, scaled up
    proportionally for cohorts larger than the 191 it was sized for."""
    scale = course.enrollment / QUOTA_BASELINE_ENROLLMENT
    base = Quota.course_quota()
    if scale <= 1.0:
        return base
    return base.scaled(scale)


# -- planning ----------------------------------------------------------------------


# The seed hierarchy is ``SeedSequence(seed).spawn(3)`` → (cohort stream,
# student root, group root), then one child per student / group.  numpy
# spawn keys are positional, so a child is reconstructible *directly*
# from (seed, spawn_key) without walking the tree: the cohort stream is
# spawn_key (0,), student ``i`` is (1, i), group ``g`` is (2, g).  The
# helpers below are that reconstruction — they let any worker rebuild an
# arbitrary student range's streams from two integers instead of
# shipping a million pickled SeedSequences (``repro.columnar`` fans its
# whole-cohort draw loop out this way), and a regression test
# (``tests/core/test_seed_tree.py``) pins them to the spawn tree
# bit-for-bit.


def cohort_seed_sequence(seed: int) -> np.random.SeedSequence:
    """The cohort-level stream (propensity + duration pools)."""
    return np.random.SeedSequence(seed, spawn_key=(0,))


def student_seed_sequence(seed: int, index: int) -> np.random.SeedSequence:
    """Student ``index``'s private stream, identical to the spawned child."""
    return np.random.SeedSequence(seed, spawn_key=(1, index))


def group_seed_sequence(seed: int, index: int) -> np.random.SeedSequence:
    """Project group ``index``'s private stream."""
    return np.random.SeedSequence(seed, spawn_key=(2, index))


def draw_cohort_level(
    course: CourseDefinition, config: CohortConfig, rng: np.random.Generator
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Propensity + per-VM-lab stratified duration pools (cohort stream).

    Consumes the cohort stream in a fixed order: one propensity vector,
    then one sorted duration pool per VM lab in ``course.labs`` order.
    """
    n = course.enrollment
    propensity = stratified_lognormal(1.0, config.propensity_sigma, n, rng)
    pools: dict[str, np.ndarray] = {}
    semester_end = course.semester_hours
    for lab in course.labs:
        if lab.kind is not LabKind.VM:
            continue
        # calibrated mean, corrected for participation and semester-end capping
        target = (lab.mean_actual_hours or 1.0) / config.participation
        cap = semester_end - (lab.week * 168.0 + 48.0)
        raw_mean = capped_mean_compensation(target, lab.sigma, cap)
        pools[lab.id] = np.sort(stratified_lognormal(raw_mean, lab.sigma, n, rng))
    return propensity, pools


class SlotCalendar:
    """The serial, conflict-free reservation cursor per node type.

    One cursor walk hands out slot start times in a canonical global
    order (lab-major / student-minor during labs, then the project
    phase) — the walk itself is the shared-resource resolution.  The
    planner walks it in closed form over ``cursors``/``capacity``;
    :meth:`next_start` is the one-booking-at-a-time definition.
    """

    def __init__(self) -> None:
        self.cursors: dict[str, int] = {}  # node_type -> next slot index
        self.capacity: dict[str, int] = {
            **{n.name: n.count_available for n in CHAMELEON_NODE_TYPES.values()},
            **{d.name: d.count_available for d in EDGE_DEVICE_TYPES.values()},
        }

    def next_start(self, node_type: str, week_start: float, slot_hours: float) -> float:
        """Book the next free slot; round ``k`` starts ``k`` slots in."""
        capacity = self.capacity[node_type]
        cursor = self.cursors.get(node_type, 0)
        self.cursors[node_type] = cursor + 1
        round_idx = cursor // capacity
        return week_start + round_idx * slot_hours


def plan_cohort(
    course: CourseDefinition = COURSE,
    config: CohortConfig | None = None,
    *,
    faults: FaultModel | None = None,
) -> CohortPlan:
    """Resolve one semester into independently executable shards.

    Plans through :func:`repro.columnar.planner.plan_columns` (draws,
    calendar walk, ``faults``, admission) and regroups the admitted
    tables into one shard per student and per group.  ``faults`` (see
    :class:`FaultModel`) rewrites the raw tables before admission;
    ``None`` (or a sweep over an empty calendar) yields the fault-free
    plan.
    """
    # imported here: repro.columnar.planner imports this module
    from repro.columnar.planner import plan_columns, shards_from_columns

    config = config if config is not None else CohortConfig()
    columns = plan_columns(course, config, faults=faults)
    student_shards, group_shards = shards_from_columns(columns.tables, columns.schema)
    return CohortPlan(
        seed=config.seed,
        semester_hours=course.semester_hours,
        quota=quota_for(course),
        student_shards=student_shards,
        group_shards=group_shards,
    )


# -- execution ---------------------------------------------------------------------
#
# Executing a shard schedules its activities onto whatever testbed it is
# handed: the serial path hands every shard the one shared testbed, the
# parallel path hands each worker a fresh one.  The callbacks below are
# the same provisioning flows the reactive simulator used; the retry /
# conflict branches are kept as a defensive mirror but are dead code for
# plan-admitted activities (see :mod:`repro.columnar.admission`).


def execute_shard(
    shard: ShardPlan, testbed: Testbed, *, semester_hours: float, config: CohortConfig
) -> None:
    """Schedule every activity of ``shard`` onto ``testbed``."""
    for act in shard.vm_labs:
        _schedule_vm_set(testbed, act, semester_hours, config)
    for slot_act in shard.slots:
        _schedule_slot(testbed, slot_act)
    for vm_act in shard.project_vms:
        _schedule_project_vm(testbed, vm_act, semester_hours)
    for lease_act in shard.project_leases:
        _schedule_project_lease(testbed, lease_act, semester_hours)
    for storage_act in shard.project_storage:
        _schedule_project_storage(testbed, storage_act, semester_hours)


def _schedule_vm_set(
    testbed: Testbed, act: VmLabActivity, semester_hours: float, config: CohortConfig
) -> None:
    site = testbed.site(KVM_SITE)
    testbed.loop.schedule(
        act.start,
        lambda: _provision_vm_set(testbed, site, act, semester_hours, config, retries=0),
        label=f"{act.lab_id}:{act.user}:provision",
    )


def _provision_vm_set(
    testbed: Testbed,
    site: Site,
    act: VmLabActivity,
    semester_hours: float,
    config: CohortConfig,
    *,
    retries: int,
) -> None:
    now = testbed.clock.now
    end = min(now + act.duration, semester_hours - 1e-6)
    if end <= now:
        return
    try:
        fip = site.network.allocate_floating_ip("course", lab=act.lab_id, user=act.user)
        servers = []
        try:
            for k in range(act.vm_count):
                servers.append(
                    site.compute.create_server(
                        "course", f"{act.user}-{act.lab_id}-node{k}", act.flavor,
                        user=act.user, lab=act.lab_id,
                    )
                )
        except QuotaExceededError:
            for s in servers:
                site.compute.delete_server(s.id)
            site.network.release_floating_ip(fip.id)
            raise
    except QuotaExceededError:
        if not config.quota_retry.allows_retry(retries, elapsed_hours=now - act.start):
            return  # the student gives up this week
        testbed.loop.schedule(
            now + config.quota_retry.backoff_hours(retries + 1),
            lambda: _provision_vm_set(
                testbed, site, act, semester_hours, config, retries=retries + 1
            ),
            label=f"{act.lab_id}:{act.user}:retry",
        )
        return

    site.compute.associate_floating_ip(servers[0].id, fip.id)
    volume = None
    if act.block_gb:
        volume = site.block_storage.create_volume(
            "course", f"{act.user}-{act.lab_id}-vol", act.block_gb, user=act.user, lab=act.lab_id
        )
        site.block_storage.attach(volume.id, servers[0].id)

    def teardown(servers=servers, fip=fip, volume=volume) -> None:
        for s in servers:
            if s.id in site.compute.servers:
                site.compute.delete_server(s.id)
        if fip.id in site.network.floating_ips:
            site.network.release_floating_ip(fip.id)
        if volume is not None and volume.id in site.block_storage.volumes:
            site.block_storage.detach(volume.id)
            site.block_storage.delete_volume(volume.id)

    testbed.loop.schedule(max(now, end), teardown, label=f"{act.lab_id}:{act.user}:teardown")
    if act.object_gb:
        # object data persists as long as the lab instance
        span_hours = max(0.0, end - now)
        testbed.loop.schedule(
            max(now, end),
            lambda: site.object_storage.record_external_usage(
                "course", gb=act.object_gb, hours=span_hours, user=act.user, lab=act.lab_id
            ),
            label=f"{act.lab_id}:{act.user}:objspan",
        )


def _schedule_slot(testbed: Testbed, act: SlotActivity) -> None:
    site = testbed.site(act.site)

    def provision() -> None:
        now = testbed.clock.now
        try:
            lease = site.leases.create_lease(
                "course", act.node_type,
                start=now, end=now + act.slot_hours,
                user=act.user, lab=act.lab_id,
            )
        except ConflictError:
            # calendar contention: take the next slot
            _schedule_slot(testbed, replace(act, start=now + act.slot_hours))
            return
        fip = site.network.allocate_floating_ip("course", lab=act.lab_id, user=act.user)
        if act.edge:
            site.compute.create_edge_session(
                "course", f"{act.user}-{act.lab_id}", act.node_type, lease.id,
                user=act.user, lab=act.lab_id,
            )
        else:
            site.compute.create_baremetal(
                "course", f"{act.user}-{act.lab_id}", act.node_type, lease.id,
                user=act.user, lab=act.lab_id,
            )
        # the floating IP is released when the lease auto-terminates
        testbed.loop.schedule(
            lease.end,
            lambda: site.network.release_floating_ip(fip.id)
            if fip.id in site.network.floating_ips
            else None,
            priority=10,  # after the lease-expiry event
            label=f"{act.lab_id}:{act.user}:fip-release",
        )

    testbed.loop.schedule(act.start, provision, label=f"{act.lab_id}:{act.user}:slot")


def _schedule_project_vm(testbed: Testbed, act: ProjectVmActivity, semester_hours: float) -> None:
    site = testbed.site(KVM_SITE)

    def provision() -> None:
        fip = None
        try:
            server = site.compute.create_server(
                "course", f"{act.user}-{act.flavor}", act.flavor, user=act.user, lab="project"
            )
            if act.with_fip:
                fip = site.network.allocate_floating_ip("course", lab="project", user=act.user)
                site.compute.associate_floating_ip(server.id, fip.id)
        except QuotaExceededError:
            testbed.loop.schedule_in(12.0, provision, label=f"project:{act.user}:retry")
            return
        end = min(testbed.clock.now + act.hours, semester_hours - 1e-6)

        def teardown() -> None:
            if server.id in site.compute.servers:
                site.compute.delete_server(server.id)
            if fip is not None and fip.id in site.network.floating_ips:
                site.network.release_floating_ip(fip.id)

        testbed.loop.schedule(end, teardown, label=f"project:{act.user}:teardown")

    testbed.loop.schedule(act.start, provision, label=f"project:{act.user}:{act.flavor}")


def _schedule_project_lease(
    testbed: Testbed, act: ProjectLeaseActivity, semester_hours: float, *, retries: int = 0
) -> None:
    site = testbed.site(act.site)

    def provision() -> None:
        now = testbed.clock.now
        end = min(now + act.hours, semester_hours - 1e-6)
        if end <= now:
            return
        try:
            lease = site.leases.create_lease(
                "course", act.node_type, start=now, end=end, user=act.user, lab="project"
            )
        except ConflictError:
            if retries < 200:  # calendar contention: try the next slot
                _schedule_project_lease(
                    testbed, replace(act, start=now + act.hours), semester_hours,
                    retries=retries + 1,
                )
            return
        if act.edge_session:
            site.compute.create_edge_session(
                "course", f"{act.user}-{act.node_type}", act.node_type, lease.id,
                user=act.user, lab="project",
            )
        else:
            site.compute.create_baremetal(
                "course", f"{act.user}-{act.node_type}", act.node_type, lease.id,
                user=act.user, lab="project",
            )

    testbed.loop.schedule(act.start, provision, label=f"project:{act.user}:{act.node_type}")


def _schedule_project_storage(
    testbed: Testbed, act: ProjectStorageActivity, semester_hours: float
) -> None:
    site = testbed.site(KVM_SITE)

    def provision() -> None:
        vol = site.block_storage.create_volume(
            "course", f"{act.user}-data", max(1, act.block_gb), user=act.user, lab="project"
        )
        end = min(testbed.clock.now + act.hours, semester_hours - 1e-6)
        testbed.loop.schedule(
            end,
            lambda: site.block_storage.delete_volume(vol.id)
            if vol.id in site.block_storage.volumes
            else None,
            label=f"project:{act.user}:vol-delete",
        )
        testbed.loop.schedule(
            end,
            lambda: site.object_storage.record_external_usage(
                "course", gb=act.object_gb, hours=act.hours, user=act.user, lab="project"
            ),
            label=f"project:{act.user}:obj",
        )

    testbed.loop.schedule(act.start, provision, label=f"project:{act.user}:storage")


def cleanup_leftovers(testbed: Testbed) -> None:
    """Staff teardown at semester end: close any still-open spans."""
    for site in testbed.sites.values():
        for server_id in list(site.compute.servers):
            site.compute.delete_server(server_id)
        for fip_id in list(site.network.floating_ips):
            site.network.release_floating_ip(fip_id)
        for vol_id in list(site.block_storage.volumes):
            vol = site.block_storage.volumes[vol_id]
            if vol.attached_to is not None:
                site.block_storage.detach(vol_id)
            site.block_storage.delete_volume(vol_id)


# -- the serial front-end ----------------------------------------------------------


class CohortSimulation:
    """One semester of simulated usage on a Chameleon-shaped testbed.

    ``run()`` is the serial reference execution: it plans the cohort,
    schedules every shard onto the one shared testbed, and returns the
    canonicalized record stream.  ``repro.parallel.run_parallel`` executes
    the same plan across worker processes and merges to the identical
    stream.
    """

    def __init__(
        self,
        course: CourseDefinition = COURSE,
        config: CohortConfig | None = None,
        *,
        faults: FaultModel | None = None,
        plan: CohortPlan | None = None,
    ) -> None:
        self.course = course
        self.config = config if config is not None else CohortConfig()
        self.faults = faults
        self.testbed: Testbed = chameleon(quota=quota_for(course))
        self._ran = False
        # an injected plan (e.g. one already fault-swept) is reused as-is,
        # so serial and parallel runs of the same plan share its bytes
        self._plan: CohortPlan | None = plan

    def plan(self) -> CohortPlan:
        """The resolved semester plan (computed once, cached)."""
        if self._plan is None:
            self._plan = plan_cohort(self.course, self.config, faults=self.faults)
        return self._plan

    def run(self, *, include_project: bool = True) -> list[UsageRecord]:
        """Simulate the semester and return all usage records."""
        if self._ran:
            raise ValidationError("simulation already ran; build a fresh CohortSimulation")
        self._ran = True
        plan = self.plan()
        for shard in plan.shards(include_project=include_project):
            execute_shard(shard, self.testbed, semester_hours=plan.semester_hours, config=self.config)
        self.testbed.run_until(plan.semester_hours)
        cleanup_leftovers(self.testbed)
        return canonicalize_records([self.testbed.usage_records()])
