"""The course definition (paper §2–§3).

Encodes every lab assignment's infrastructure shape: which site it runs
on, what it provisions, the expected duration (§3's per-unit estimates —
the dashed lines of Fig 1), and the *behavioural calibration* of the
cohort simulator (mean actual durations / reservation-slot counts, set
from Table 1's per-student actuals; see DESIGN.md §4).

Also encodes each assignment's :class:`~repro.core.matching.RequirementSpec`
— the "specific needs" the paper's cost model matches against commercial
catalogs.  The requirement belongs to the assignment, not the Chameleon
node type: Table 1 maps both ``gpu_a100_pcie`` and ``gpu_v100`` (Unit 4
multi-GPU) to the same cloud equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from repro.common.errors import ValidationError
from repro.core.matching import RequirementSpec

#: The testbed sites the labs run on: on-demand VMs, bare metal, edge devices.
KVM_SITE = "kvm@tacc"
METAL_SITE = "chi@tacc"
EDGE_SITE = "chi@edge"


class LabKind(str, Enum):
    VM = "vm"  # on-demand KVM instances: no reservation, no auto-kill
    RESERVED = "reserved"  # bare-metal behind leases with auto-termination
    EDGE = "edge"  # CHI@Edge devices behind leases


@dataclass(frozen=True)
class ReservedOption:
    """One Chameleon node-type choice within a reserved lab."""

    node_type: str
    weight: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValidationError(f"weight must be positive: {self!r}")


@dataclass(frozen=True)
class LabAssignment:
    """One Table-1 assignment.

    Calibration fields (from Table 1 per-student actuals):

    * VM labs — ``mean_actual_hours`` is the mean time a student's VM
      stays running (per instance); ``sigma`` shapes the lognormal
      persistence tail ("VM instances often persisted beyond expected
      durations", §5).
    * Reserved labs — ``mean_slots`` is the mean number of
      ``slot_hours``-long reservations a student books (re-runs, redos);
      auto-termination makes actual == booked.
    """

    id: str
    title: str
    unit: int
    kind: LabKind
    week: int  # semester week the lab is assigned (0-based)
    expected_hours: float  # §3 expected infra duration, per instance/slot set
    requirement: RequirementSpec | None
    # VM labs
    flavor: str | None = None
    vm_count: int = 1
    mean_actual_hours: float | None = None
    sigma: float = 0.95
    # reserved / edge labs
    options: tuple[ReservedOption, ...] = ()
    slot_hours: float = 2.0
    mean_slots: float = 1.0
    # storage provisioned by the lab
    block_gb: int = 0
    object_gb: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is LabKind.VM:
            if self.flavor is None or self.mean_actual_hours is None:
                raise ValidationError(f"VM lab {self.id} needs flavor and calibration")
            if self.vm_count <= 0:
                raise ValidationError(f"vm_count must be positive: {self.id}")
        else:
            if not self.options:
                raise ValidationError(f"reserved lab {self.id} needs node-type options")
            total = sum(o.weight for o in self.options)
            if abs(total - 1.0) > 1e-6:
                raise ValidationError(f"option weights of {self.id} sum to {total}, not 1")

    @property
    def expected_instance_hours(self) -> float:
        """Expected §3 usage in instance-hours (all VMs / one slot set)."""
        if self.kind is LabKind.VM:
            return self.expected_hours * self.vm_count
        return self.expected_hours


@dataclass(frozen=True)
class ProjectPhase:
    """Calibration of the open-ended project period (paper §5, Fig 3)."""

    weeks: float = 6.5
    groups: int = 48  # 191 students in groups of 3-4
    vm_hours_total: float = 70_259.0
    vm_flavor_shares: tuple[tuple[str, float], ...] = (
        ("m1.medium", 0.40),
        ("m1.large", 0.15),
        ("m1.xlarge", 0.40),
        ("m1.small", 0.05),
    )
    gpu_hours_total: float = 5_446.0
    gpu_type_shares: tuple[tuple[str, float], ...] = (
        ("compute_liqid", 0.50),
        ("compute_gigaio", 0.40),
        ("gpu_p100", 0.06),
        ("gpu_mi100", 0.04),
    )
    baremetal_cpu_hours: float = 975.0
    baremetal_cpu_type: str = "compute_cascadelake"
    edge_hours: float = 175.0
    edge_type: str = "raspberrypi5"
    block_storage_gb: float = 9_000.0
    object_storage_gb: float = 1_541.0


#: Hours before ``semester_hours`` at which a run that would outlive the
#: semester is torn down, so its teardown fires inside the semester's
#: event loop (which stops at ``semester_hours``).  Execution, admission
#: and the columnar kernels all cap run ends at ``semester_hours`` minus
#: this band.
SEMESTER_END_GUARD_H = 1e-6


@dataclass(frozen=True)
class CourseDefinition:
    """The whole course: enrollment, labs, project phase."""

    enrollment: int
    labs: tuple[LabAssignment, ...]
    project: ProjectPhase
    semester_weeks: int = 14

    def lab(self, lab_id: str) -> LabAssignment:
        for lab in self.labs:
            if lab.id == lab_id:
                return lab
        raise ValidationError(f"no lab {lab_id!r}")

    @property
    def semester_hours(self) -> float:
        return self.semester_weeks * 168.0


def _build_course() -> CourseDefinition:
    labs = (
        LabAssignment(
            id="lab1", title="1. Hello, Chameleon", unit=1, kind=LabKind.VM, week=1,
            expected_hours=1.5,
            requirement=RequirementSpec(vcpus=1, ram_gib=1),
            flavor="m1.small", vm_count=1,
            mean_actual_hours=13.7,  # 2,620 h / 191 students
        ),
        LabAssignment(
            id="lab2", title="2. Cloud Computing", unit=2, kind=LabKind.VM, week=2,
            expected_hours=5.0,
            requirement=RequirementSpec(vcpus=2, ram_gib=4, dedicated_cores=True),
            flavor="m1.medium", vm_count=3,
            mean_actual_hours=91.3,  # 52,332 h / 191 / 3 VMs
        ),
        LabAssignment(
            id="lab3", title="3. MLOps", unit=3, kind=LabKind.VM, week=3,
            expected_hours=7.5,  # 5 h hands-on + unattended Kubernetes install
            requirement=RequirementSpec(vcpus=2, ram_gib=4, dedicated_cores=True),
            flavor="m1.medium", vm_count=3,
            mean_actual_hours=56.4,  # 32,344 h / 191 / 3 VMs
        ),
        LabAssignment(
            id="lab4_multi", title="4. Train at Scale (Multi GPU)", unit=4,
            kind=LabKind.RESERVED, week=4,
            expected_hours=2.0,
            requirement=RequirementSpec(
                vcpus=8, ram_gib=64, gpus=4, gpu_mem_gib=40, needs_bf16=True
            ),
            options=(
                ReservedOption("gpu_a100_pcie", 167 / 377),
                ReservedOption("gpu_v100", 210 / 377),
            ),
            slot_hours=2.0,
            mean_slots=0.987,  # 377 h / 191 / 2 h (some reused the multi-GPU slot)
        ),
        LabAssignment(
            id="lab4_single", title="4. Train at Scale (One GPU)", unit=4,
            kind=LabKind.RESERVED, week=4,
            expected_hours=2.0,
            requirement=RequirementSpec(
                vcpus=8, ram_gib=64, gpus=1, gpu_mem_gib=48, needs_bf16=True
            ),
            options=(ReservedOption("compute_gigaio", 1.0),),
            slot_hours=2.0,
            mean_slots=0.571,  # 218 h / 191 / 2 h — below 1: work folded into multi slot
        ),
        LabAssignment(
            id="lab5_multi", title="5. Training in a Cluster (Multi GPU)", unit=5,
            kind=LabKind.RESERVED, week=5,
            expected_hours=3.0,
            requirement=RequirementSpec(vcpus=8, ram_gib=32, gpus=2, gpu_mem_gib=24),
            options=(
                ReservedOption("compute_liqid_2", 330 / 1332),
                ReservedOption("gpu_mi100", 1002 / 1332),
            ),
            slot_hours=3.0,
            mean_slots=2.325,  # 1,332 h / 191 / 3 h — re-runs above expectation
        ),
        LabAssignment(
            id="lab5_single", title="5. Experiment Tracking (One GPU)", unit=5,
            kind=LabKind.RESERVED, week=5,
            expected_hours=3.0,
            requirement=RequirementSpec(vcpus=16, ram_gib=32, gpus=1, gpu_mem_gib=16),
            options=(
                ReservedOption("compute_gigaio", 28 / 158),
                ReservedOption("compute_liqid", 130 / 158),
            ),
            slot_hours=3.0,
            mean_slots=0.276,  # 158 h / 191 / 3 h
        ),
        LabAssignment(
            id="lab6_opt", title="6. Model Serving Optimizations", unit=6,
            kind=LabKind.RESERVED, week=6,
            expected_hours=3.0,
            requirement=RequirementSpec(
                vcpus=4, ram_gib=16, gpus=1, gpu_mem_gib=16, min_compute_capability=8.0
            ),
            options=(
                ReservedOption("compute_gigaio", 215 / 675),
                ReservedOption("compute_liqid", 460 / 675),
            ),
            slot_hours=3.0,
            mean_slots=1.178,  # 675 h / 191 / 3 h
        ),
        LabAssignment(
            id="lab6_edge", title="6. Serving from the Edge", unit=6,
            kind=LabKind.EDGE, week=6,
            expected_hours=2.0,
            requirement=None,  # "no commercial clouds offer Raspberry Pi devices"
            options=(ReservedOption("raspberrypi5", 1.0),),
            slot_hours=2.0,
            mean_slots=1.288,  # 492 h / 191 / 2 h
        ),
        LabAssignment(
            id="lab6_sys", title="6. System Serving Optimizations", unit=6,
            kind=LabKind.RESERVED, week=7,
            expected_hours=3.0,
            requirement=RequirementSpec(
                vcpus=4, ram_gib=16, gpus=2, gpu_mem_gib=16, min_compute_capability=6.0
            ),
            options=(ReservedOption("gpu_p100", 1.0),),
            slot_hours=3.0,
            mean_slots=1.234,  # 707 h / 191 / 3 h
        ),
        LabAssignment(
            id="lab7", title="7. Monitoring and Evaluation", unit=7, kind=LabKind.VM, week=8,
            expected_hours=6.0,
            requirement=RequirementSpec(vcpus=2, ram_gib=4),
            flavor="m1.medium", vm_count=1,
            mean_actual_hours=51.8,  # 9,889 h / 191
        ),
        LabAssignment(
            id="lab8", title="8. Persistent Data", unit=8, kind=LabKind.VM, week=9,
            expected_hours=3.0,
            requirement=RequirementSpec(vcpus=2, ram_gib=8),
            flavor="m1.large", vm_count=1,
            mean_actual_hours=45.5,  # 8,693 h / 191
            block_gb=2, object_gb=1.2,
        ),
    )
    return CourseDefinition(enrollment=191, labs=labs, project=ProjectPhase())


#: The Spring-2025 *ML Systems Engineering and Operations* offering.
COURSE: CourseDefinition = _build_course()


def scaled_course(factor: float, *, course: CourseDefinition = COURSE) -> CourseDefinition:
    """A what-if offering with ``factor``× the cohort.

    Enrollment and project group count scale (and round) together, and the
    cohort-level project totals (VM/GPU/bare-metal/edge hours, storage GB)
    scale by the *achieved* enrollment ratio, so per-student and per-group
    intensities stay at the paper's calibration.  The lab definitions and
    semester length are untouched.
    """
    if factor <= 0:
        raise ValidationError(f"cohort scale factor must be positive: {factor!r}")
    enrollment = max(1, round(course.enrollment * factor))
    achieved = enrollment / course.enrollment
    groups = max(1, round(course.project.groups * achieved))
    project = replace(
        course.project,
        groups=groups,
        vm_hours_total=course.project.vm_hours_total * achieved,
        gpu_hours_total=course.project.gpu_hours_total * achieved,
        baremetal_cpu_hours=course.project.baremetal_cpu_hours * achieved,
        edge_hours=course.project.edge_hours * achieved,
        block_storage_gb=course.project.block_storage_gb * achieved,
        object_storage_gb=course.project.object_storage_gb * achieved,
    )
    return replace(course, enrollment=enrollment, project=project)

#: Table-1 row order: (lab id, Chameleon resource type) pairs.
TABLE1_ROWS: tuple[tuple[str, str], ...] = (
    ("lab1", "m1.small"),
    ("lab2", "m1.medium"),
    ("lab3", "m1.medium"),
    ("lab4_multi", "gpu_a100_pcie"),
    ("lab4_multi", "gpu_v100"),
    ("lab4_single", "compute_gigaio"),
    ("lab5_multi", "compute_liqid_2"),
    ("lab5_multi", "gpu_mi100"),
    ("lab5_single", "compute_gigaio"),
    ("lab5_single", "compute_liqid"),
    ("lab6_opt", "compute_gigaio"),
    ("lab6_opt", "compute_liqid"),
    ("lab6_edge", "raspberrypi5"),
    ("lab6_sys", "gpu_p100"),
    ("lab7", "m1.medium"),
    ("lab8", "m1.large"),
)

#: The paper's Table 1 (usage columns), for paper-vs-measured comparisons.
PAPER_TABLE1_HOURS: dict[tuple[str, str], tuple[float, float]] = {
    ("lab1", "m1.small"): (2620, 2620),
    ("lab2", "m1.medium"): (52332, 17444),
    ("lab3", "m1.medium"): (32344, 10781),
    ("lab4_multi", "gpu_a100_pcie"): (167, 167),
    ("lab4_multi", "gpu_v100"): (210, 210),
    ("lab4_single", "compute_gigaio"): (218, 218),
    ("lab5_multi", "compute_liqid_2"): (330, 330),
    ("lab5_multi", "gpu_mi100"): (1002, 1002),
    ("lab5_single", "compute_gigaio"): (28, 28),
    ("lab5_single", "compute_liqid"): (130, 130),
    ("lab6_opt", "compute_gigaio"): (215, 215),
    ("lab6_opt", "compute_liqid"): (460, 460),
    ("lab6_edge", "raspberrypi5"): (492, 492),
    ("lab6_sys", "gpu_p100"): (707, 707),
    ("lab7", "m1.medium"): (9889, 9889),
    ("lab8", "m1.large"): (8693, 8693),
}
