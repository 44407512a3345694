"""Plan-time: the cohort's randomness resolved into activity tables.

The one cohort planner.  Every engine plans its semester here: the
columnar engine emits records straight from the tables, and the testbed
paths (the serial :class:`~repro.core.cohort.CohortSimulation`, the
parallel engine, the checkpoint journal) execute the per-student /
per-group shards :func:`shards_from_columns` regroups them into.

:func:`plan_columns` resolves one semester in four steps: whole-cohort
draws from the ``SeedSequence`` tree (replayed by blocks of consecutive
students or groups), the vectorized slot calendar walk, an optional
fault model that rewrites the raw tables, then the admission sweeps
(:mod:`repro.columnar.admission`).

The draws are numpy's samplers replayed as array code over a block of
streams: :func:`repro.core.cohort.stream_words` seeds the block's PCG64
streams and yields their raw words, and each row reads its words at its
own cursor (uniforms, the ziggurat normal with its wedge and tail
rejection steps, Poisson by multiplication, libm ``exp`` and ``log1p``).
Only a row with a Poisson mean at or above numpy's multiplication limit,
or one whose words run out, is redrawn by the scalar loop, one numpy
call per draw.  That loop is also the reference
``tests/columnar/test_draw_replay.py`` holds the replay to, and
:attr:`ColumnarPlan.draw_info` counts both the rows it redrew and the
normals finished in place.
``rng.choice(names, p=weights)`` is one uniform per slot bisected into
the normalized cumulative weights, as numpy's Generator does it
(``tests/columnar`` holds the tables to a reference that calls
``choice`` itself).

This module is plan-time by definition: every stream here, replayed or
drawn, seeds from the tree rooted at the caller's ``config.seed``
(SEED001 admits no literal, here or anywhere) and is drawn before any
shard kernel runs.  The kernels themselves stay RNG-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.columnar.schema import SITE_CODES, SITE_NAMES, ColumnSchema
from repro.common.errors import ValidationError
from repro.common.numerics import libm_exp, standard_normals, word_doubles
from repro.core.cohort import (
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
    stream_words,
    student_seed_sequence,
)
from repro.core.course import COURSE, EDGE_SITE, METAL_SITE, CourseDefinition, LabKind

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
    """The fully resolved semester as admitted activity tables.

    ``sweep_info`` holds whether each admission sweep's fast path held.
    ``draw_info`` counts, per family (``students_*``, ``groups_*``), the
    normals the replay finished on a wedge or on the tail, and the rows
    the scalar loop redrew for a Poisson mean at or above
    ``_POISSON_MULT_LIMIT`` (``lam_limit``, students only) or for a short
    word block (``short_block``; a row with both counts as the first).
    """

    seed: int
    semester_hours: float
    schema: ColumnSchema
    tables: ActivityTables
    sweep_info: dict[str, bool] = field(default_factory=dict)
    draw_info: dict[str, int] = field(default_factory=dict)


# -- whole-cohort draws -------------------------------------------------------------

# Draw parameters, shared by the scalar loops and the replay.
_VM_START_JITTER_H = 96.0  # a VM lab starts uniform(0, 96) h into its week
_SCORE_LOGNORMAL = (0.0, 0.5)  # per-VM-lab score jitter
_GROUP_JITTER_H = (0.0, 48.0)  # a group's project start, uniform
_SPREAD_LOGNORMAL = (-0.02, 0.2)  # per-flavor service-VM hours spread

#: Words the replay reads from each student stream.  A student who needs
#: more (the mean student uses 38, the 99th percentile 70) is redrawn by
#: the scalar loop.
_STUDENT_WORDS = 96
#: Words a group stream holds beyond one per draw, for the normals the
#: rejection step finishes; a group that needs more is redrawn.
_GROUP_SPARE_WORDS = 4
#: Streams replayed at once: bounds the word block at any cohort size.
_REPLAY_ROWS = 4096
#: numpy's ``random_poisson`` multiplies uniforms against ``exp(-lam)``
#: below this mean, and samples by transformed rejection from it on.
_POISSON_MULT_LIMIT = 10.0
#: What a replayed block counts, in this order (``ColumnarPlan.draw_info``).
_STUDENT_COUNTS = ("wedge", "tail", "lam_limit", "short_block")
_GROUP_COUNTS = ("wedge", "tail", "short_block")


def _lab_program(course: CourseDefinition) -> list[tuple[bool, int, float, list[float]]]:
    """Per lab in stream order: (is VM lab, reserved-lab position, mean
    slots, option CDF as floats so ``bisect_right`` replays ``choice``)."""
    program: list[tuple[bool, int, float, list[float]]] = []
    res_j = 0
    for lab in course.labs:
        if lab.kind is LabKind.VM:
            program.append((True, 0, 0.0, []))
            continue
        cdf = np.array([o.weight for o in lab.options], dtype=np.float64).cumsum()
        cdf = cdf / cdf[-1]  # numpy's Generator.choice normalizes the same way
        program.append((False, res_j, lab.mean_slots, cdf.tolist()))
        res_j += 1
    return program


def _scalar_student_draws(
    course: CourseDefinition, config: CohortConfig, rows: np.ndarray, propensity: np.ndarray
) -> dict[str, np.ndarray]:
    """Students ``rows``' draws, one numpy call per draw.

    The reference the replay (:func:`_replay_students`) is held to, and
    its fallback.  Each student's stream is consumed in ``course.labs``
    order: per VM lab (participation, start jitter, score jitter); per
    reserved lab (slot count, one node-type draw per slot).  That order
    is the stream contract every seed-pinned digest depends on.

    A VM lab's ``random()`` then ``uniform(0.0, 96.0)`` is drawn as one
    ``random(2)`` at the same stream positions: numpy's uniform is
    ``low + range * u``, and ``0.0 + 96.0 * u == 96.0 * u`` for ``u >= 0``.
    Slot codes come out lab-major, (student, k) order within a lab.
    """
    program = _lab_program(course)
    n_vm = sum(is_vm for is_vm, _, _, _ in program)
    n_res = len(program) - n_vm
    count = len(rows)

    # flat (student, lab)-ordered cells, shaped into grids once at the end
    participates: list[bool] = []
    start_jitter: list[float] = []
    score_jitter: list[float] = []
    slot_counts: list[int] = []
    slot_codes: list[list[int]] = [[] for _ in range(n_res)]  # option index per slot

    from bisect import bisect_right

    participation = config.participation
    seed = config.seed
    mean, sigma = _SCORE_LOGNORMAL
    default_rng = np.random.default_rng
    for i, prop in zip(rows.tolist(), propensity.tolist()):
        rng = default_rng(student_seed_sequence(seed, i))
        random, lognormal, poisson = rng.random, rng.lognormal, rng.poisson
        for is_vm, j, mean_slots, cdf in program:
            if is_vm:
                u, v = random(2).tolist()
                participates.append(u < participation)
                start_jitter.append(_VM_START_JITTER_H * v)
                score_jitter.append(lognormal(mean, sigma))
            else:
                c = int(poisson(mean_slots * prop))
                slot_counts.append(c)
                codes = slot_codes[j]
                for _ in range(c):
                    # bisect_right == searchsorted(side="right"), which is
                    # what Generator.choice(p=...) does with its one draw
                    codes.append(bisect_right(cdf, random()))
    return {
        "participates": np.array(participates, dtype=bool).reshape(count, n_vm),
        "start_jitter": np.array(start_jitter, dtype=np.float64).reshape(count, n_vm),
        "score_jitter": np.array(score_jitter, dtype=np.float64).reshape(count, n_vm),
        "slot_counts": np.array(slot_counts, dtype=np.int32).reshape(count, n_res),
        "slot_codes": np.array([c for codes in slot_codes for c in codes], dtype=np.int16),
    }


def _codes_by_lab(draws: dict[str, np.ndarray]) -> list[np.ndarray]:
    """``draws``' lab-major slot codes split into one array per reserved lab
    (none for a course without reserved labs)."""
    bounds = np.cumsum(draws["slot_counts"].sum(axis=0, dtype=np.int64))
    return np.split(draws["slot_codes"], bounds)[:-1]


def _flat_codes(codes: list[np.ndarray]) -> np.ndarray:
    """Per-lab slot codes back to one lab-major array, empty for no lab."""
    return np.concatenate([np.empty(0, dtype=np.int16), *codes])


def _concat_student_draws(
    blocks: list[tuple[dict[str, np.ndarray], np.ndarray]],
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Consecutive student blocks' draws as one block's, and their counts summed."""
    parts = [part for part, _ in blocks]
    counts = np.sum([block_counts for _, block_counts in blocks], axis=0, dtype=np.int64)
    if len(parts) == 1:
        return parts[0], counts
    by_lab = [_codes_by_lab(part) for part in parts]
    out = {
        key: np.concatenate([part[key] for part in parts])
        for key in ("participates", "start_jitter", "score_jitter", "slot_counts")
    }
    out["slot_codes"] = _flat_codes([codes for lab in zip(*by_lab) for codes in lab])
    return out, counts


def _replay_students(
    course: CourseDefinition, config: CohortConfig, rows: np.ndarray, propensity: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """:func:`_scalar_student_draws` of ``rows``, replayed as array code,
    and the block's ``_STUDENT_COUNTS``.

    Each stream's first ``_STUDENT_WORDS`` raw words come from the seed
    tree in one pass (:func:`repro.core.cohort.stream_words`); numpy's
    samplers then run on every row at once, each row reading its words
    at its own cursor.  Uniforms are ``next_double``; a normal is the
    ziggurat, its rejected draws finished in place by
    :func:`repro.common.numerics.standard_normals`; a Poisson count below
    ``_POISSON_MULT_LIMIT`` is numpy's multiplication method against
    libm's ``exp(-lam)``, and the lognormal is libm's ``exp``.  A row
    with ``lam`` at or above the limit, or whose words run out, is
    redrawn by the scalar loop.
    """
    program = _lab_program(course)
    words = stream_words(config.seed, 1, rows, _STUDENT_WORDS)
    count, block = words.shape
    at = np.arange(count)
    cursor = np.zeros(count, dtype=np.intp)
    fast = np.ones(count, dtype=bool)
    lam_limit = np.zeros(count, dtype=bool)
    wedge = np.zeros(count, dtype=np.int64)
    tail = np.zeros(count, dtype=np.int64)

    def word(offset: int) -> np.ndarray:
        # a read past the block is clipped here and caught by the final cursor check
        return words[at, np.minimum(cursor + offset, block - 1)]

    participates: list[np.ndarray] = []
    start_jitter: list[np.ndarray] = []
    normals: list[np.ndarray] = []
    slot_counts: list[np.ndarray] = []
    slot_codes: list[np.ndarray] = []
    for is_vm, _, mean_slots, cdf in program:
        if is_vm:
            participates.append(word_doubles(word(0)) < config.participation)
            start_jitter.append(_VM_START_JITTER_H * word_doubles(word(1)))
            z, cursor, in_wedge, in_tail = standard_normals(words, cursor + 2)
            normals.append(z)
            wedge += in_wedge
            tail += in_tail
            continue
        lam = mean_slots * propensity
        lam_limit |= lam >= _POISSON_MULT_LIMIT
        fast &= ~lam_limit
        c = np.zeros(count, dtype=np.int32)
        live = np.flatnonzero(fast & (lam != 0.0))  # lam == 0 draws 0 and reads no word
        threshold = libm_exp(-lam[live])
        prod = np.ones(live.size)
        while live.size:
            spent = cursor[live] >= block
            if spent.any():
                fast[live[spent]] = False
                live, prod, threshold = live[~spent], prod[~spent], threshold[~spent]
            prod *= word_doubles(words[live, cursor[live]])
            cursor[live] += 1
            more = prod > threshold
            c[live[more]] += 1
            live, prod, threshold = live[more], prod[more], threshold[more]
        # one uniform per slot, bisected into the option CDF
        starts = np.repeat(cursor - (np.cumsum(c) - c), c) + np.arange(int(c.sum()))
        u = word_doubles(words[np.repeat(at, c), np.minimum(starts, block - 1)])
        slot_codes.append(np.searchsorted(np.array(cdf), u, side="right").astype(np.int16))
        slot_counts.append(c)
        cursor += c
    fast &= cursor <= block

    def grid(columns: list[np.ndarray], dtype) -> np.ndarray:
        # zero columns for a course without VM labs, or without reserved labs
        return np.stack(columns, axis=1) if columns else np.empty((count, 0), dtype=dtype)

    mean, sigma = _SCORE_LOGNORMAL
    draws = {
        "participates": grid(participates, bool),
        "start_jitter": grid(start_jitter, np.float64),
        "score_jitter": libm_exp(mean + sigma * grid(normals, np.float64)),
        "slot_counts": grid(slot_counts, np.int32),
    }
    codes = [lab[np.repeat(fast, c)] for lab, c in zip(slot_codes, slot_counts)]
    slow = np.flatnonzero(~fast)
    counts = np.array(
        [wedge[fast].sum(), tail[fast].sum(), lam_limit.sum(), slow.size - lam_limit.sum()],
        dtype=np.int64,
    )
    if slow.size:
        redo = _scalar_student_draws(course, config, rows[slow], propensity[slow])
        for key, grid in draws.items():
            grid[slow] = redo[key]
        for j, redo_codes in enumerate(_codes_by_lab(redo)):
            redone = np.repeat(~fast, draws["slot_counts"][:, j])
            merged = np.empty(redone.size, dtype=np.int16)
            merged[redone], merged[~redone] = redo_codes, codes[j]
            codes[j] = merged
    draws["slot_codes"] = _flat_codes(codes)
    return draws, counts


def _scalar_group_draws(
    course: CourseDefinition, config: CohortConfig, rows: np.ndarray
) -> dict[str, np.ndarray]:
    """Group streams ``rows``, one numpy call per draw: jitter, then one
    lognormal spread per service-VM flavor.  The replay's reference and
    fallback."""
    n_flavors = len(course.project.vm_flavor_shares)
    jitter = np.zeros(len(rows), dtype=np.float64)
    vm_spread = np.zeros((len(rows), n_flavors), dtype=np.float64)
    low, high = _GROUP_JITTER_H
    mean, sigma = _SPREAD_LOGNORMAL
    for row, g in enumerate(rows.tolist()):
        rng = np.random.default_rng(group_seed_sequence(config.seed, g))
        jitter[row] = rng.uniform(low, high)
        for j in range(n_flavors):
            vm_spread[row, j] = rng.lognormal(mean, sigma)
    return {"jitter": jitter, "vm_spread": vm_spread}


def _replay_groups(
    course: CourseDefinition, config: CohortConfig, rows: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """:func:`_scalar_group_draws` of ``rows`` as array code, and the
    block's ``_GROUP_COUNTS``: a uniform, then each spread's normal from
    the row's cursor.  A group whose normals need more than its
    ``_GROUP_SPARE_WORDS`` spare words is redrawn by the scalar loop."""
    n_flavors = len(course.project.vm_flavor_shares)
    words = stream_words(config.seed, 2, rows, 1 + n_flavors + _GROUP_SPARE_WORDS)
    low, high = _GROUP_JITTER_H
    mean, sigma = _SPREAD_LOGNORMAL
    count, block = words.shape
    cursor = np.ones(count, dtype=np.intp)
    z = np.empty((count, n_flavors))
    wedge = np.zeros(count, dtype=np.int64)
    tail = np.zeros(count, dtype=np.int64)
    for j in range(n_flavors):
        z[:, j], cursor, in_wedge, in_tail = standard_normals(words, cursor)
        wedge += in_wedge
        tail += in_tail
    draws = {
        "jitter": low + (high - low) * word_doubles(words[:, 0]),
        "vm_spread": libm_exp(mean + sigma * z),
    }
    short = cursor > block
    slow = np.flatnonzero(short)
    if slow.size:
        redo = _scalar_group_draws(course, config, rows[slow])
        for key, column in draws.items():
            column[slow] = redo[key]
    counts = np.array([wedge[~short].sum(), tail[~short].sum(), slow.size], dtype=np.int64)
    return draws, counts


def _blocks(n: int) -> list[tuple[int, int]]:
    """``range(n)`` cut into ``_REPLAY_ROWS``-row [lo, hi) blocks, the
    replay's unit."""
    return [(lo, min(lo + _REPLAY_ROWS, n)) for lo in range(0, n, _REPLAY_ROWS)]


# -- the native columnar planner ---------------------------------------------------


def plan_columns(
    course: CourseDefinition = COURSE,
    config: CohortConfig | None = None,
    *,
    faults: "FaultModel | None" = None,
) -> ColumnarPlan:
    """Resolve one semester into admitted activity tables.

    ``faults`` (see :class:`repro.core.cohort.FaultModel`) rewrites the
    raw tables before admission, so the sweeps re-validate the faulted
    plan; ``None`` or an empty calendar leaves the tables untouched.
    """
    from repro.columnar.admission import sweep_lease_calendar, sweep_kvm_quota

    config = config if config is not None else CohortConfig()
    raw, schema, draw_info = _raw_tables(course, config)
    if faults is not None:
        raw = faults.apply(raw, schema=schema, semester_hours=course.semester_hours)
    info: dict[str, bool] = {}
    raw = sweep_kvm_quota(raw, course=course, info=info, schema=schema)
    raw = sweep_lease_calendar(raw, course=course, info=info, schema=schema)
    return ColumnarPlan(
        seed=config.seed,
        semester_hours=course.semester_hours,
        schema=schema,
        tables=raw,
        sweep_info=info,
        draw_info=draw_info,
    )


def shards_from_columns(
    tables: ActivityTables, schema: ColumnSchema
) -> tuple[tuple[ShardPlan, ...], tuple[ShardPlan, ...]]:
    """Regroup admitted tables into one shard per student and per group.

    Rows are grouped by owner, so each shard is one contiguous block per
    family.  ``.tolist()`` hands the activities Python scalars, so shards
    pickle cheaply and repr like hand-built ones.  The activities are
    built positionally, in their classes' field order: a plan builds
    thousands of them, and keywords cost a frozen dataclass more.
    """
    n, g = schema.n_students, schema.n_groups
    labs, rtypes = schema.lab_names, schema.rtype_names
    users = schema.user_names.tolist()

    def blocks(family: str, acts: list, owners: int) -> list[tuple]:
        bounds = tables.owner_bounds(family, owners)
        return [tuple(acts[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]

    vm_labs = blocks("vm", [
        VmLabActivity(labs[lab], users[s], start, duration, rtypes[flavor], count, block, obj)
        for s, lab, start, duration, flavor, count, block, obj in tables.rows("vm")
    ], n)
    slots = blocks("slot", [
        SlotActivity(labs[lab], users[s], SITE_NAMES[site], rtypes[node], start, hours, edge)
        for s, lab, node, start, hours, site, edge in tables.rows("slot")
    ], n)
    project_vms = blocks("pvm", [
        ProjectVmActivity(users[n + grp], rtypes[flavor], start, hours, fip)
        for grp, flavor, start, hours, fip in tables.rows("pvm")
    ], g)
    project_leases = blocks("pl", [
        ProjectLeaseActivity(users[n + grp], SITE_NAMES[site], rtypes[node], start, hours, edge)
        for grp, node, start, hours, site, edge in tables.rows("pl")
    ], g)
    project_storage = blocks("ps", [
        ProjectStorageActivity(users[n + grp], start, block, obj, hours)
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
    course: CourseDefinition, config: CohortConfig
) -> tuple[ActivityTables, ColumnSchema, dict[str, int]]:
    """Pre-admission tables (draws, duration assignment, calendar walk)
    and the draws' counts (:attr:`ColumnarPlan.draw_info`)."""
    schema = ColumnSchema.for_course(course)
    n = course.enrollment
    vm_labs = [lab for lab in course.labs if lab.kind is LabKind.VM]

    cohort_rng = np.random.default_rng(cohort_seed_sequence(config.seed))
    propensity, pools = draw_cohort_level(course, config, cohort_rng)

    # passed straight in, so the blocks' draws are freed once concatenated
    draws, student_counts = _concat_student_draws([
        _replay_students(course, config, np.arange(lo, hi), propensity[lo:hi])
        for lo, hi in _blocks(n)
    ])
    participates, start_jitter = draws["participates"], draws["start_jitter"]
    score_jitter, slot_counts = draws["score_jitter"], draws["slot_counts"]

    # duration assignment: longest pool entries to the highest scores, so
    # the per-student tail of Fig 2 is correlated across labs
    durations = np.zeros((n, len(vm_labs)), dtype=np.float64)
    for j, lab in enumerate(vm_labs):
        scores = propensity * score_jitter[:, j]
        assigned = np.empty(n)
        assigned[np.argsort(scores)] = pools[lab.id]
        dur = np.maximum(assigned, lab.expected_hours * 0.5)
        if config.vm_reaper:
            dur = np.minimum(dur, lab.expected_hours + config.vm_reaper_grace)
        durations[:, j] = dur

    # VM lab rows: student-major, lab-minor (flatten order == rank order)
    mask = participates.reshape(-1)
    students_grid = np.repeat(np.arange(n, dtype=np.int32), len(vm_labs))
    labs_grid = np.tile(np.arange(len(vm_labs), dtype=np.int16), n)
    starts_grid = (
        np.array([lab.week * 168.0 for lab in vm_labs])[None, :] + start_jitter
    ).reshape(-1)
    vm_student = students_grid[mask]
    vm_lab_pos = labs_grid[mask]
    vm_start = starts_grid[mask]
    vm_duration = durations.reshape(-1)[mask]
    vm_lab = np.array(
        [schema.lab_codes[lab.id] for lab in vm_labs], dtype=np.int16
    )[vm_lab_pos]
    vm_flavor = np.array(
        [schema.rtype_codes[lab.flavor] for lab in vm_labs], dtype=np.int16
    )[vm_lab_pos]
    vm_count = np.array([lab.vm_count for lab in vm_labs], dtype=np.int16)[vm_lab_pos]
    vm_block = np.array([lab.block_gb for lab in vm_labs], dtype=np.int32)[vm_lab_pos]
    vm_object = np.array([lab.object_gb for lab in vm_labs], dtype=np.float64)[vm_lab_pos]

    calendar = SlotCalendar()
    slot_cols = _walk_lab_slots(course, slot_counts, _codes_by_lab(draws), calendar, schema)
    group_cols, group_counts = _project_phase_columns(course, config, calendar, schema)

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
    draw_info = {
        **{f"students_{k}": int(v) for k, v in zip(_STUDENT_COUNTS, student_counts)},
        **{f"groups_{k}": int(v) for k, v in zip(_GROUP_COUNTS, group_counts)},
    }
    return tables, schema, draw_info


def _walk_lab_slots(
    course: CourseDefinition,
    slot_counts: np.ndarray,
    slot_codes: list[np.ndarray],
    calendar: SlotCalendar,
    schema: ColumnSchema,
) -> dict[str, np.ndarray]:
    """Replay the slot-calendar cursor walk, vectorized per reserved lab.

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
    for j, lab in enumerate(lab for lab in course.labs if lab.kind is not LabKind.VM):
        counts = slot_counts[:, j]
        total = int(counts.sum())
        # one lab's codes are (student, k)-ordered: the calendar's
        # student-minor walk order
        codes = slot_codes[j]
        students = np.repeat(np.arange(n, dtype=np.int32), counts)
        k_idx = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts, dtype=np.int64) - counts, counts
        )
        starts = np.zeros(total, dtype=np.float64)
        week_start = lab.week * 168.0
        node_types = [o.node_type for o in lab.options]
        for t_idx, node_type in enumerate(node_types):
            sel = codes == t_idx
            m = int(sel.sum())
            if not m:
                continue
            capacity = calendar.capacity[node_type]
            cursor = calendar.cursors.get(node_type, 0)
            positions = cursor + np.arange(m, dtype=np.int64)
            starts[sel] = week_start + (positions // capacity) * lab.slot_hours
            calendar.cursors[node_type] = cursor + m
        node_rtype = np.array(
            [schema.rtype_codes[t] for t in node_types], dtype=np.int16
        )[codes]
        edge = lab.kind is LabKind.EDGE
        site = SITE_CODES[EDGE_SITE if edge else METAL_SITE]
        per_lab.append(
            {
                "student": students,
                "lab_pos": np.full(total, j, dtype=np.int16),
                "k": k_idx,
                "node": node_rtype,
                "start": starts,
                "hours": np.full(total, lab.slot_hours, dtype=np.float64),
                "site": np.full(total, site, dtype=np.int8),
                "edge": np.full(total, edge, dtype=bool),
                "lab": np.full(total, schema.lab_codes[lab.id], dtype=np.int16),
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
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """The project phase as arrays, continuing the labs' calendar walk,
    and the group draws' summed ``_GROUP_COUNTS``.

    Group slot *counts* are deterministic (no RNG feeds them), so the
    per-group cursor walk collapses to arithmetic: within the group walk
    each node type is visited once per group with a fixed booking count,
    so group ``g``'s ``m``-th booking of a type sits at walk position
    ``cursor + g * per_group + m``.
    """
    project = course.project
    g_count = project.groups
    start = (course.semester_weeks - project.weeks) * 168.0
    duration = project.weeks * 168.0

    parts = [_replay_groups(course, config, np.arange(lo, hi)) for lo, hi in _blocks(g_count)]
    jitter = np.concatenate([p["jitter"] for p, _ in parts])
    vm_spread = np.concatenate([p["vm_spread"] for p, _ in parts], axis=0)
    counts = np.sum([c for _, c in parts], axis=0, dtype=np.int64)

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
    columns = {
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
    return columns, counts
