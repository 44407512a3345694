"""Plan-time: the cohort's randomness resolved into activity tables.

The one cohort planner.  Every engine plans its semester here: the
columnar engine emits records straight from the tables, and the testbed
paths (the serial :class:`~repro.core.cohort.CohortSimulation`, the
parallel engine, the checkpoint journal) execute the per-student /
per-group shards :func:`shards_from_columns` regroups them into.

:func:`plan_columns` resolves one semester in four steps: whole-cohort
draws from the ``SeedSequence`` tree (fanned out over worker processes
by contiguous student range, each worker rebuilding its streams via
:func:`repro.core.cohort.student_seed_sequence`), the vectorized slot
calendar walk, an optional fault model that rewrites the raw tables,
then the admission sweeps (:mod:`repro.columnar.admission`).

The one RNG call replayed manually is ``rng.choice(names, p=weights)``:
numpy's Generator implementation draws exactly one ``rng.random()`` and
walks the normalized cumulative weights with
``searchsorted(side="right")``, so the planner does the same — one
uniform per slot against a precomputed CDF — without paying
``choice``'s per-call setup a million times (``tests/columnar`` holds
the tables to a scalar reference that calls ``choice`` itself).

This module is plan-time by definition (SEED001's allow-list includes
it): every Generator here is constructed from the seed tree before any
shard kernel runs, and the kernels themselves stay RNG-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.common.errors import ValidationError
from repro.core.cohort import (
    EDGE_SITE,
    METAL_SITE,
    CohortConfig,
    ProjectLeaseActivity,
    ProjectStorageActivity,
    ProjectVmActivity,
    ShardPlan,
    SlotActivity,
    SlotCalendar,
    VmLabActivity,
    cohort_seed_sequence,
    draw_cohort_level,
    group_seed_sequence,
    student_seed_sequence,
)
from repro.core.course import COURSE, CourseDefinition, LabKind
from repro.columnar.schema import SITE_CODES, SITE_NAMES, ColumnSchema

if TYPE_CHECKING:
    from repro.core.cohort import FaultModel


@dataclass
class ActivityTables:
    """Every cohort activity as parallel columns, one block per family.

    Rows are in **sweep rank order** (the order the admission sweeps
    enumerate arrivals): ``vm_*`` student-major / VM-lab-minor, ``slot_*``
    student-major / (reserved-lab, k)-minor, project blocks group-major
    in build order.  Rows stay grouped by owner through the fault sweep
    and admission.  Each row carries everything emission needs (flavor,
    counts, sizes), so a fault model rewrites rows in place of objects.
    """

    # student VM labs
    vm_student: np.ndarray  # int32
    vm_lab: np.ndarray  # int16, schema lab code
    vm_start: np.ndarray  # float64
    vm_duration: np.ndarray  # float64
    vm_flavor: np.ndarray  # int16, schema rtype code
    vm_count: np.ndarray  # int16
    vm_block_gb: np.ndarray  # int32
    vm_object_gb: np.ndarray  # float64
    # student reservation slots
    slot_student: np.ndarray  # int32
    slot_lab: np.ndarray  # int16, schema lab code
    slot_node: np.ndarray  # int16, schema rtype code
    slot_start: np.ndarray  # float64
    slot_hours: np.ndarray  # float64
    slot_site: np.ndarray  # int8, schema site code
    slot_edge: np.ndarray  # bool
    # project service VMs
    pvm_group: np.ndarray  # int32
    pvm_flavor: np.ndarray  # int16, schema rtype code
    pvm_start: np.ndarray  # float64
    pvm_hours: np.ndarray  # float64
    pvm_with_fip: np.ndarray  # bool
    # project leases
    pl_group: np.ndarray  # int32
    pl_node: np.ndarray  # int16, schema rtype code
    pl_start: np.ndarray  # float64
    pl_hours: np.ndarray  # float64
    pl_site: np.ndarray  # int8
    pl_edge: np.ndarray  # bool
    # project storage
    ps_group: np.ndarray  # int32
    ps_start: np.ndarray  # float64
    ps_hours: np.ndarray  # float64
    ps_block_gb: np.ndarray  # int32
    ps_object_gb: np.ndarray  # float64

    def family_counts(self) -> dict[str, int]:
        return {
            "vm_labs": len(self.vm_start),
            "slots": len(self.slot_start),
            "project_vms": len(self.pvm_start),
            "project_leases": len(self.pl_start),
            "project_storage": len(self.ps_start),
        }

    @property
    def activity_count(self) -> int:
        return sum(self.family_counts().values())

    # A family is a column-name prefix: "vm", "slot", "pvm", "pl" or "ps".
    # Its first column is the owner (student or group index).

    def _column_names(self, family: str) -> list[str]:
        return [f.name for f in fields(self) if f.name.startswith(family + "_")]

    def take(self, family: str, rows, **columns: np.ndarray) -> "ActivityTables":
        """Gather ``family``'s columns by ``rows`` (indices, mask or slice),
        then set ``columns`` as given."""
        gathered = {name: getattr(self, name)[rows] for name in self._column_names(family)}
        return replace(self, **{**gathered, **columns})

    def owner_bounds(self, family: str, owners: int) -> list[int]:
        """Row bounds of owners ``0..owners-1`` (rows are grouped by owner)."""
        owner = getattr(self, self._column_names(family)[0])
        return np.searchsorted(owner, np.arange(owners + 1)).tolist()

    def rows(self, family: str):
        """``family``'s rows as tuples of Python scalars, in column order."""
        return zip(*(getattr(self, name).tolist() for name in self._column_names(family)))


@dataclass(frozen=True)
class ColumnarPlan:
    """The fully resolved semester as admitted activity tables."""

    seed: int
    semester_hours: float
    schema: ColumnSchema
    tables: ActivityTables
    sweep_info: dict[str, bool] = field(default_factory=dict)


# -- course metadata ---------------------------------------------------------------


@dataclass(frozen=True)
class _VmLabMeta:
    lab_id: str
    week: float
    flavor: str
    vm_count: int
    block_gb: int
    object_gb: float
    expected_hours: float


@dataclass(frozen=True)
class _ResLabMeta:
    lab_id: str
    week: float
    slot_hours: float
    mean_slots: float
    node_types: tuple[str, ...]
    cdf: tuple[float, ...]  # normalized cumulative option weights
    edge: bool
    site: str


def _lab_metas(course: CourseDefinition) -> list[tuple[str, _VmLabMeta | _ResLabMeta]]:
    """Per-lab metadata in ``course.labs`` order (the draw-stream order)."""
    metas: list[tuple[str, _VmLabMeta | _ResLabMeta]] = []
    for lab in course.labs:
        if lab.kind is LabKind.VM:
            metas.append(
                (
                    "vm",
                    _VmLabMeta(
                        lab_id=lab.id,
                        week=lab.week,
                        flavor=lab.flavor or "",
                        vm_count=lab.vm_count,
                        block_gb=lab.block_gb,
                        object_gb=lab.object_gb,
                        expected_hours=lab.expected_hours,
                    ),
                )
            )
        else:
            weights = np.array([o.weight for o in lab.options], dtype=np.float64)
            cdf = weights.cumsum()
            cdf = cdf / cdf[-1]  # numpy's Generator.choice normalizes the same way
            metas.append(
                (
                    "res",
                    _ResLabMeta(
                        lab_id=lab.id,
                        week=lab.week,
                        slot_hours=lab.slot_hours,
                        mean_slots=lab.mean_slots,
                        node_types=tuple(o.node_type for o in lab.options),
                        cdf=tuple(float(c) for c in cdf),
                        edge=lab.kind is LabKind.EDGE,
                        site=EDGE_SITE if lab.kind is LabKind.EDGE else METAL_SITE,
                    ),
                )
            )
    return metas


# -- whole-cohort draws (fan-out worker) -------------------------------------------


def _student_range_draws(
    args: tuple[CourseDefinition, CohortConfig, int, int, np.ndarray],
) -> dict[str, np.ndarray]:
    """Draws for students [lo, hi): one worker's share of the cohort.

    Each student's stream is consumed in ``course.labs`` order: per VM
    lab (participation, start jitter, score jitter); per reserved lab
    (slot count, one node-type draw per slot).  That order is the stream
    contract every seed-pinned digest depends on.

    Pure function of (course, config, range, propensity slice): streams
    are rebuilt from ``(seed, spawn_key=(1, i))``, so the fan-out ships
    two ints per range instead of pickled SeedSequences and any worker
    count reassembles to identical arrays.
    """
    course, config, lo, hi, propensity = args
    metas = _lab_metas(course)
    vm_positions = [j for j, (tag, _) in enumerate(metas) if tag == "vm"]
    res_positions = [j for j, (tag, _) in enumerate(metas) if tag == "res"]
    n_vm, n_res = len(vm_positions), len(res_positions)
    count = hi - lo

    participates = np.zeros((count, n_vm), dtype=bool)
    start_jitter = np.zeros((count, n_vm), dtype=np.float64)
    score_jitter = np.zeros((count, n_vm), dtype=np.float64)
    slot_counts = np.zeros((count, n_res), dtype=np.int32)
    slot_codes: list[int] = []  # option index per slot, (student, lab, k) order
    slot_code_lab: list[int] = []  # reserved-lab position per slot, same order

    # per-lab dispatch table, hoisted out of the hot loop; cdfs as plain
    # float lists so bisect_right replays choice's searchsorted exactly
    lab_seq: list[tuple[bool, int, float, list[float]]] = []
    vm_j = res_j = 0
    for tag, meta in metas:
        if tag == "vm":
            lab_seq.append((True, vm_j, 0.0, []))
            vm_j += 1
        else:
            lab_seq.append((False, res_j, meta.mean_slots, list(meta.cdf)))
            res_j += 1

    from bisect import bisect_right

    participation = config.participation
    seed = config.seed
    prop_list = [float(p) for p in propensity]
    default_rng = np.random.default_rng
    for row in range(count):
        rng = default_rng(student_seed_sequence(seed, lo + row))
        random, uniform = rng.random, rng.uniform
        lognormal, poisson = rng.lognormal, rng.poisson
        prop = prop_list[row]
        for is_vm, j, mean_slots, cdf in lab_seq:
            if is_vm:
                participates[row, j] = random() < participation
                start_jitter[row, j] = uniform(0.0, 96.0)
                score_jitter[row, j] = lognormal(0.0, 0.5)
            else:
                c = int(poisson(mean_slots * prop))
                slot_counts[row, j] = c
                for _ in range(c):
                    # bisect_right == searchsorted(side="right"), which is
                    # what Generator.choice(p=...) does with its one draw
                    slot_codes.append(bisect_right(cdf, random()))
                    slot_code_lab.append(j)
    return {
        "participates": participates,
        "start_jitter": start_jitter,
        "score_jitter": score_jitter,
        "slot_counts": slot_counts,
        "slot_codes": np.asarray(slot_codes, dtype=np.int16),
        "slot_code_lab": np.asarray(slot_code_lab, dtype=np.int16),
    }


def _group_range_draws(
    args: tuple[CourseDefinition, CohortConfig, int, int],
) -> dict[str, np.ndarray]:
    """Group streams for groups [lo, hi): jitter + per-flavor spread."""
    course, config, lo, hi = args
    n_flavors = len(course.project.vm_flavor_shares)
    count = hi - lo
    jitter = np.zeros(count, dtype=np.float64)
    vm_spread = np.zeros((count, n_flavors), dtype=np.float64)
    for row in range(count):
        rng = np.random.default_rng(group_seed_sequence(config.seed, lo + row))
        jitter[row] = rng.uniform(0.0, 48.0)
        for j in range(n_flavors):
            vm_spread[row, j] = rng.lognormal(-0.02, 0.2)
    return {"jitter": jitter, "vm_spread": vm_spread}


def _fan_out(fn, items: Sequence, *, workers: int) -> list:
    """Order-preserving map, pooled only when it pays."""
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from repro.parallel.engine import deterministic_map

    return deterministic_map(fn, items, workers=workers)


# -- the native columnar planner ---------------------------------------------------


def plan_columns(
    course: CourseDefinition = COURSE,
    config: CohortConfig | None = None,
    *,
    workers: int = 1,
    faults: "FaultModel | None" = None,
) -> ColumnarPlan:
    """Resolve one semester into admitted activity tables.

    ``faults`` (see :class:`repro.core.cohort.FaultModel`) rewrites the
    raw tables before admission, so the sweeps re-validate the faulted
    plan; ``None`` or an empty calendar leaves the tables untouched.
    ``workers`` parallelizes only the per-student/per-group draw loops;
    the output is identical for every worker count.
    """
    from repro.columnar.admission import sweep_lease_calendar, sweep_kvm_quota

    config = config if config is not None else CohortConfig()
    if workers < 1:
        raise ValidationError(f"workers must be positive: {workers!r}")
    raw, schema = _raw_tables(course, config, workers=workers)
    if faults is not None:
        raw = faults.apply(raw, schema=schema, semester_hours=course.semester_hours)
    info: dict[str, bool] = {}
    raw = sweep_kvm_quota(raw, course=course, config=config, info=info, schema=schema)
    raw = sweep_lease_calendar(raw, course=course, info=info, schema=schema)
    return ColumnarPlan(
        seed=config.seed,
        semester_hours=course.semester_hours,
        schema=schema,
        tables=raw,
        sweep_info=info,
    )


def shards_from_columns(
    tables: ActivityTables, schema: ColumnSchema
) -> tuple[tuple[ShardPlan, ...], tuple[ShardPlan, ...]]:
    """Regroup admitted tables into one shard per student and per group.

    Rows are grouped by owner, so each shard is one contiguous block per
    family.  ``.tolist()`` hands the activities Python scalars, so shards
    pickle cheaply and repr like hand-built ones.
    """
    n, g = schema.n_students, schema.n_groups
    labs, rtypes = schema.lab_names, schema.rtype_names
    users = [schema.user_string(code) for code in range(n + g)]

    def blocks(family: str, acts: list, owners: int) -> list[tuple]:
        bounds = tables.owner_bounds(family, owners)
        return [tuple(acts[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]

    vm_labs = blocks("vm", [
        VmLabActivity(
            lab_id=labs[lab], user=users[s], start=start, duration=duration,
            flavor=rtypes[flavor], vm_count=count, block_gb=block, object_gb=obj,
        )
        for s, lab, start, duration, flavor, count, block, obj in tables.rows("vm")
    ], n)
    slots = blocks("slot", [
        SlotActivity(
            lab_id=labs[lab], user=users[s], site=SITE_NAMES[site],
            node_type=rtypes[node], start=start, slot_hours=hours, edge=edge,
        )
        for s, lab, node, start, hours, site, edge in tables.rows("slot")
    ], n)
    project_vms = blocks("pvm", [
        ProjectVmActivity(
            user=users[n + grp], flavor=rtypes[flavor], start=start, hours=hours,
            with_fip=fip,
        )
        for grp, flavor, start, hours, fip in tables.rows("pvm")
    ], g)
    project_leases = blocks("pl", [
        ProjectLeaseActivity(
            user=users[n + grp], site=SITE_NAMES[site], node_type=rtypes[node],
            start=start, hours=hours, edge_session=edge,
        )
        for grp, node, start, hours, site, edge in tables.rows("pl")
    ], g)
    project_storage = blocks("ps", [
        ProjectStorageActivity(
            user=users[n + grp], start=start, block_gb=block, object_gb=obj, hours=hours,
        )
        for grp, start, hours, block, obj in tables.rows("ps")
    ], g)
    student_shards = tuple(
        ShardPlan(shard_id=users[i], spawn_key=(1, i), vm_labs=vm_labs[i], slots=slots[i])
        for i in range(n)
    )
    group_shards = tuple(
        ShardPlan(
            shard_id=users[n + j],
            spawn_key=(2, j),
            project_vms=project_vms[j],
            project_leases=project_leases[j],
            project_storage=project_storage[j],
        )
        for j in range(g)
    )
    return student_shards, group_shards


def _raw_tables(
    course: CourseDefinition, config: CohortConfig, *, workers: int
) -> tuple[ActivityTables, ColumnSchema]:
    """Pre-admission tables: draws, duration assignment, calendar walk."""
    from repro.parallel.planner import index_ranges

    schema = ColumnSchema.for_course(course)
    n = course.enrollment
    metas = _lab_metas(course)
    vm_metas = [meta for tag, meta in metas if tag == "vm"]
    res_metas = [meta for tag, meta in metas if tag == "res"]

    cohort_rng = np.random.default_rng(cohort_seed_sequence(config.seed))
    propensity, pools = draw_cohort_level(course, config, cohort_rng)

    ranges = index_ranges(n, max(workers * 4, 1)) if workers > 1 else [(0, n)]
    parts = _fan_out(
        _student_range_draws,
        [(course, config, lo, hi, propensity[lo:hi]) for lo, hi in ranges],
        workers=workers,
    )
    participates = np.concatenate([p["participates"] for p in parts], axis=0)
    start_jitter = np.concatenate([p["start_jitter"] for p in parts], axis=0)
    score_jitter = np.concatenate([p["score_jitter"] for p in parts], axis=0)
    slot_counts = np.concatenate([p["slot_counts"] for p in parts], axis=0)
    slot_codes = np.concatenate([p["slot_codes"] for p in parts])
    slot_code_lab = np.concatenate([p["slot_code_lab"] for p in parts])

    # duration assignment: longest pool entries to the highest scores, so
    # the per-student tail of Fig 2 is correlated across labs
    durations = np.zeros((n, len(vm_metas)), dtype=np.float64)
    for j, meta in enumerate(vm_metas):
        scores = propensity * score_jitter[:, j]
        assigned = np.empty(n)
        assigned[np.argsort(scores)] = pools[meta.lab_id]
        dur = np.maximum(assigned, meta.expected_hours * 0.5)
        if config.vm_reaper:
            dur = np.minimum(dur, meta.expected_hours + config.vm_reaper_grace)
        durations[:, j] = dur

    # VM lab rows: student-major, lab-minor (flatten order == rank order)
    mask = participates.reshape(-1)
    students_grid = np.repeat(np.arange(n, dtype=np.int32), len(vm_metas))
    labs_grid = np.tile(np.arange(len(vm_metas), dtype=np.int16), n)
    starts_grid = (
        np.array([m.week * 168.0 for m in vm_metas])[None, :] + start_jitter
    ).reshape(-1)
    vm_student = students_grid[mask]
    vm_lab_pos = labs_grid[mask]
    vm_start = starts_grid[mask]
    vm_duration = durations.reshape(-1)[mask]
    vm_lab = np.array(
        [schema.lab_codes[m.lab_id] for m in vm_metas], dtype=np.int16
    )[vm_lab_pos]
    vm_flavor = np.array(
        [schema.rtype_codes[m.flavor] for m in vm_metas], dtype=np.int16
    )[vm_lab_pos]
    vm_count = np.array([m.vm_count for m in vm_metas], dtype=np.int16)[vm_lab_pos]
    vm_block = np.array([m.block_gb for m in vm_metas], dtype=np.int32)[vm_lab_pos]
    vm_object = np.array([m.object_gb for m in vm_metas], dtype=np.float64)[vm_lab_pos]

    calendar = SlotCalendar()
    slot_cols = _walk_lab_slots(
        res_metas, slot_counts, slot_codes, slot_code_lab, calendar, schema
    )
    group_cols = _project_phase_columns(course, config, calendar, schema, workers=workers)

    tables = ActivityTables(
        vm_student=vm_student,
        vm_lab=vm_lab,
        vm_start=vm_start,
        vm_duration=vm_duration,
        vm_flavor=vm_flavor,
        vm_count=vm_count,
        vm_block_gb=vm_block,
        vm_object_gb=vm_object,
        **slot_cols,
        **group_cols,
    )
    return tables, schema


def _walk_lab_slots(
    res_metas: list[_ResLabMeta],
    slot_counts: np.ndarray,
    slot_codes: np.ndarray,
    slot_code_lab: np.ndarray,
    calendar: SlotCalendar,
    schema: ColumnSchema,
) -> dict[str, np.ndarray]:
    """Replay the slot-calendar cursor walk, vectorized per lab.

    The walk order is lab-major, student-minor, k.
    Each node type's cursor advances one slot per booking, so booking
    ``m`` of a type (counting from that type's current cursor ``c``)
    starts at ``week_start + ((c + m) // capacity) * slot_hours`` — pure
    integer math, identical to ``SlotCalendar.next_start`` applied
    serially.  Output rows are then reordered student-major/(lab, k) to
    match the sweep rank order.
    """
    n = slot_counts.shape[0]
    per_lab: list[dict[str, np.ndarray]] = []
    for j, meta in enumerate(res_metas):
        counts = slot_counts[:, j]
        total = int(counts.sum())
        # codes arrive (student, lab, k)-ordered; selecting one lab keeps
        # (student, k) order — the calendar's student-minor walk order
        codes = slot_codes[slot_code_lab == j]
        students = np.repeat(np.arange(n, dtype=np.int32), counts)
        k_idx = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts, dtype=np.int64) - counts, counts
        )
        starts = np.zeros(total, dtype=np.float64)
        week_start = meta.week * 168.0
        for t_idx, node_type in enumerate(meta.node_types):
            sel = codes == t_idx
            m = int(sel.sum())
            if not m:
                continue
            capacity = calendar.capacity[node_type]
            cursor = calendar.cursors.get(node_type, 0)
            positions = cursor + np.arange(m, dtype=np.int64)
            starts[sel] = week_start + (positions // capacity) * meta.slot_hours
            calendar.cursors[node_type] = cursor + m
        node_rtype = np.array(
            [schema.rtype_codes[t] for t in meta.node_types], dtype=np.int16
        )[codes]
        per_lab.append(
            {
                "student": students,
                "lab_pos": np.full(total, j, dtype=np.int16),
                "k": k_idx,
                "node": node_rtype,
                "start": starts,
                "hours": np.full(total, meta.slot_hours, dtype=np.float64),
                "site": np.full(total, SITE_CODES[meta.site], dtype=np.int8),
                "edge": np.full(total, meta.edge, dtype=bool),
                "lab": np.full(total, schema.lab_codes[meta.lab_id], dtype=np.int16),
            }
        )

    def cat(key: str) -> np.ndarray:
        if not per_lab:
            return np.empty(0, dtype=np.int64 if key == "k" else np.float64)
        return np.concatenate([block[key] for block in per_lab])

    student = cat("student")
    lab_pos = cat("lab_pos")
    k = cat("k")
    # rank order: student-major, (lab, k)-minor
    order = np.lexsort((k, lab_pos, student))
    return {
        "slot_student": student[order].astype(np.int32, copy=False),
        "slot_lab": cat("lab")[order].astype(np.int16, copy=False),
        "slot_node": cat("node")[order].astype(np.int16, copy=False),
        "slot_start": cat("start")[order],
        "slot_hours": cat("hours")[order],
        "slot_site": cat("site")[order].astype(np.int8, copy=False),
        "slot_edge": cat("edge")[order].astype(bool, copy=False),
    }


def _project_phase_columns(
    course: CourseDefinition,
    config: CohortConfig,
    calendar: SlotCalendar,
    schema: ColumnSchema,
    *,
    workers: int,
) -> dict[str, np.ndarray]:
    """The project phase as arrays, continuing the labs' calendar walk.

    Group slot *counts* are deterministic (no RNG feeds them), so the
    per-group cursor walk collapses to arithmetic: within the group walk
    each node type is visited once per group with a fixed booking count,
    so group ``g``'s ``m``-th booking of a type sits at walk position
    ``cursor + g * per_group + m``.
    """
    from repro.parallel.planner import index_ranges

    project = course.project
    g_count = project.groups
    start = (course.semester_weeks - project.weeks) * 168.0
    duration = project.weeks * 168.0

    ranges = index_ranges(g_count, max(workers * 4, 1)) if workers > 1 else [(0, g_count)]
    parts = _fan_out(
        _group_range_draws,
        [(course, config, lo, hi) for lo, hi in ranges],
        workers=workers,
    )
    jitter = np.concatenate([p["jitter"] for p in parts])
    vm_spread = np.concatenate([p["vm_spread"] for p in parts], axis=0)

    groups = np.arange(g_count, dtype=np.int32)
    g_start = start + jitter
    cap_hours = duration - jitter

    # service VMs: group-major, flavor-share order
    n_flavors = len(project.vm_flavor_shares)
    pvm_group = np.repeat(groups, n_flavors)
    pvm_flavor = np.zeros(g_count * n_flavors, dtype=np.int16)
    pvm_hours = np.zeros(g_count * n_flavors, dtype=np.float64)
    pvm_with_fip = np.zeros(g_count * n_flavors, dtype=bool)
    for idx, (flavor, share) in enumerate(project.vm_flavor_shares):
        base = project.vm_hours_total * share / g_count
        hours = np.minimum(base * vm_spread[:, idx], cap_hours)
        pvm_flavor[idx::n_flavors] = schema.rtype_codes[flavor]
        pvm_hours[idx::n_flavors] = hours
        pvm_with_fip[idx::n_flavors] = idx == 0
    pvm_start = np.repeat(g_start, n_flavors)

    # leases: per group — GPU slots (type-share order), big-data job, edge
    lease_specs: list[tuple[str, int, float, bool]] = []  # (node_type, count/group, step, edge)
    for node_type, share in project.gpu_type_shares:
        hours = project.gpu_hours_total * share / g_count
        lease_specs.append((node_type, max(1, int(round(hours / 4.0))), 4.0, False))
    bm_hours = project.baremetal_cpu_hours / g_count
    lease_specs.append((project.baremetal_cpu_type, 1, bm_hours, False))
    edge_hours = project.edge_hours / g_count
    lease_specs.append((project.edge_type, 1, edge_hours, True))
    if len({t for t, _, _, _ in lease_specs}) != len(lease_specs):
        # the closed-form cursor walk below assumes each node type shows
        # up once per group
        raise ValidationError(
            "cohort planning requires distinct project lease node types"
        )

    per_group = sum(c for _, c, _, _ in lease_specs)
    pl_group = np.repeat(groups, per_group)
    pl_node = np.zeros(g_count * per_group, dtype=np.int16)
    pl_start = np.zeros(g_count * per_group, dtype=np.float64)
    pl_hours = np.zeros(g_count * per_group, dtype=np.float64)
    pl_site = np.zeros(g_count * per_group, dtype=np.int8)
    pl_edge = np.zeros(g_count * per_group, dtype=bool)
    offset = 0
    for node_type, count, step, is_edge in lease_specs:
        capacity = calendar.capacity[node_type]
        cursor = calendar.cursors.get(node_type, 0)
        # walk positions for group g, booking m: cursor + g*count + m
        positions = cursor + (
            groups.astype(np.int64)[:, None] * count + np.arange(count, dtype=np.int64)
        ).reshape(-1)
        starts = start + (positions // capacity) * step
        for m in range(count):
            cols = np.arange(g_count) * per_group + offset + m
            pl_node[cols] = schema.rtype_codes[node_type]
            pl_start[cols] = starts[m::count]
            pl_hours[cols] = step
            pl_site[cols] = SITE_CODES[EDGE_SITE if is_edge else METAL_SITE]
            pl_edge[cols] = is_edge
        calendar.cursors[node_type] = cursor + g_count * count
        offset += count

    ps_block = int(round(project.block_storage_gb / g_count))
    ps_object = project.object_storage_gb / g_count
    return {
        "pvm_group": pvm_group,
        "pvm_flavor": pvm_flavor,
        "pvm_start": pvm_start,
        "pvm_hours": pvm_hours,
        "pvm_with_fip": pvm_with_fip,
        "pl_group": pl_group,
        "pl_node": pl_node,
        "pl_start": pl_start,
        "pl_hours": pl_hours,
        "pl_site": pl_site,
        "pl_edge": pl_edge,
        "ps_group": groups,
        "ps_start": g_start,
        "ps_hours": cap_hours,
        "ps_block_gb": np.full(g_count, ps_block, dtype=np.int32),
        "ps_object_gb": np.full(g_count, ps_object, dtype=np.float64),
    }
