"""Property tests for the columnar engine's shard structure.

The engine's output must be a pure function of (course, config) — never
of how work was chunked, bucketed, fanned out, or spilled.  Hypothesis
drives the structural knobs through adversarial values (singleton
batches, one bucket, hundreds of mostly-empty buckets, odd worker
counts) and every variation must reproduce the reference digest bit for
bit.  The billing integral is held to *exact* equality with the
record-level fsum, a null fault plan must be a byte-exact no-op, and a
non-null one must land on the serial digest.  Both admission sweeps are
also driven off their fast paths: the exact replays must reproduce the
fast paths' tables, and with the testbed enforcing the same shrunk
quota or node counts at runtime, the serial digest referees them.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.cloud.testbed
from repro.cloud.quota import Quota
from repro.columnar import admission, plan_columns, run_columnar
from repro.core import records_digest, scaled_course
from repro.core.cohort import CohortConfig, CohortSimulation, SlotCalendar
from repro.faults.plan import (
    FaultPlanConfig,
    FaultSweep,
    build_fault_calendar,
    plan_faulted_cohort,
)
from repro.parallel import total_unit_hours

#: 48-student cohort: big enough to populate every activity family.
SMALL = scaled_course(0.25)
#: 1-student cohort: the smallest legal cohort (1 student, 1 group).
ONE = scaled_course(1.0 / 191.0)
SEED = 42

_SLOW = settings(
    deadline=None, max_examples=12, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.fixture(scope="module")
def reference():
    """Reference digest for the SMALL cohort, default engine knobs."""
    return run_columnar(SMALL, CohortConfig(seed=SEED)).digest


@_SLOW
@given(
    n_buckets=st.integers(min_value=1, max_value=257),
    chunk_rows=st.sampled_from((1, 2, 17, 1_000, 2_000_000)),
)
def test_merge_shard_boundaries_never_leak(reference, n_buckets, chunk_rows):
    """Digest is invariant under bucket count and emission chunking —
    including singleton batches and buckets that stay empty."""
    run = run_columnar(
        SMALL, CohortConfig(seed=SEED), n_buckets=n_buckets, chunk_rows=chunk_rows
    )
    assert run.digest == reference


@settings(deadline=None, max_examples=4, suppress_health_check=[HealthCheck.too_slow])
@given(workers=st.integers(min_value=1, max_value=4))
def test_draw_fanout_boundaries_never_leak(reference, workers):
    """Digest is invariant under the planner's worker fan-out: student
    draws are seeded per student, so range splits cannot matter."""
    run = run_columnar(SMALL, CohortConfig(seed=SEED), workers=workers)
    assert run.digest == reference


@_SLOW
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_buckets=st.sampled_from((1, 3, 64)),
)
def test_unit_hours_conserved_exactly(seed, n_buckets):
    """The streamed per-bucket total equals the record-level fsum with
    zero tolerance, for arbitrary seeds and bucketings."""
    run = run_columnar(
        ONE, CohortConfig(seed=seed), n_buckets=n_buckets, collect_records=True
    )
    assert run.unit_hours == total_unit_hours(run.record_list)
    assert math.isfinite(run.unit_hours) and run.unit_hours >= 0.0


def test_singleton_cohort_matches_serial():
    """The 1-student, 1-group edge: every family near-empty, digest holds."""
    serial = CohortSimulation(ONE, CohortConfig(seed=SEED)).run()
    run = run_columnar(ONE, CohortConfig(seed=SEED))
    assert run.digest == records_digest(serial)
    assert run.students == 1 and run.groups == 1


def test_empty_families_are_well_formed():
    """labs-only zeroes the project families; emission and merge must
    handle zero-length arrays without special-casing."""
    run = run_columnar(ONE, CohortConfig(seed=SEED), include_project=False)
    serial = CohortSimulation(ONE, CohortConfig(seed=SEED)).run(include_project=False)
    assert run.digest == records_digest(serial)


def test_spill_path_is_digest_invariant(tmp_path, reference):
    """Spilling buckets to scratch files (tiny threshold forces it) must
    round-trip every column bit-exactly."""
    run = run_columnar(
        SMALL, CohortConfig(seed=SEED), spill_dir=tmp_path, n_buckets=8
    )
    assert run.digest == reference
    assert not list(tmp_path.glob("*.npz"))  # scratch files consumed


def test_null_fault_plan_is_byte_exact_noop():
    """A null fault calendar hands the planner back the very same raw
    tables, so the run must reproduce the fault-free digest."""
    config = CohortConfig(seed=SEED)
    calendar = build_fault_calendar(
        FaultPlanConfig(), horizon_hours=SMALL.semester_hours
    )
    assert calendar.empty
    native = run_columnar(SMALL, config)
    faulted = run_columnar(SMALL, config, faults=FaultSweep(calendar))
    assert faulted.digest == native.digest


@pytest.mark.parametrize(
    "fault_config",
    [
        FaultPlanConfig(
            seed=11, outage_rate_per_week=0.3, hazard_rate_per_khour=2.0, burst_rate_per_week=1.0
        ),
        FaultPlanConfig(seed=3, outage_rate_per_week=1.0),
        FaultPlanConfig(seed=7, hazard_rate_per_khour=5.0, burst_rate_per_week=2.0),
    ],
    ids=["mixed-s11", "outages-s3", "hazard-bursts-s7"],
)
def test_fault_plan_matches_serial(fault_config):
    """A non-null fault plan through the columnar engine lands on the
    serial digest of the same faulted plan — and the plan must bite."""
    config = CohortConfig(seed=SEED)
    calendar = build_fault_calendar(fault_config, horizon_hours=SMALL.semester_hours)
    faulted = run_columnar(SMALL, config, faults=FaultSweep(calendar))
    plan, _ = plan_faulted_cohort(SMALL, config, fault_config)
    serial = CohortSimulation(SMALL, config, plan=plan).run()
    assert faulted.digest == records_digest(serial)
    assert faulted.digest != run_columnar(SMALL, config).digest


def _assert_tables_equal(actual, expected):
    for f in dataclasses.fields(expected):
        np.testing.assert_array_equal(
            getattr(actual, f.name), getattr(expected, f.name), err_msg=f.name
        )


def test_quota_fallback_matches_object_planner(monkeypatch):
    """A tenth of the course's compute quota forces the quota sweep off its
    fast path.  The testbed enforces the same shrunk quota at runtime, so
    the serial digest referees the exact replay.  The volume dimensions
    stay put: project storage is admitted unconditionally, so shrinking
    them only makes the serial run raise."""
    config = CohortConfig(seed=SEED)
    native_digest = run_columnar(SMALL, config).digest
    base = Quota.course_quota()
    shrunk = dataclasses.replace(
        base,
        instances=base.instances * 0.1,
        cores=base.cores * 0.1,
        ram_gib=base.ram_gib * 0.1,
        floating_ips=base.floating_ips * 0.1,
    )
    monkeypatch.setattr(Quota, "course_quota", classmethod(lambda cls: shrunk))

    assert plan_columns(SMALL, config).sweep_info["quota_fast_path"] is False
    run = run_columnar(SMALL, config)
    assert run.digest == records_digest(CohortSimulation(SMALL, config).run())
    assert run.digest != native_digest


def test_lease_fallback_matches_object_sweep(monkeypatch):
    """With an eighth of every node type's capacity in the lease sweep and
    in the testbed's inventory, the sweep's count check fails and its
    exact replay bumps bookings.  The testbed rejects any booking past
    capacity at runtime, so the serial digest referees the replay.  The
    planner's cursor walk keeps the full capacities."""
    config = CohortConfig(seed=SEED)
    before = plan_columns(SMALL, config).tables

    def eighth(types):
        return {
            name: dataclasses.replace(t, count_available=max(1, t.count_available // 8))
            for name, t in types.items()
        }

    class _ReducedCalendar:
        capacity = {name: max(1, cap // 8) for name, cap in SlotCalendar().capacity.items()}

    monkeypatch.setattr(admission, "SlotCalendar", _ReducedCalendar)
    for name in ("CHAMELEON_NODE_TYPES", "EDGE_DEVICE_TYPES"):
        monkeypatch.setattr(repro.cloud.testbed, name, eighth(getattr(repro.cloud.testbed, name)))

    plan = plan_columns(SMALL, config)
    assert plan.sweep_info["lease_fast_path"] is False
    assert not np.array_equal(plan.tables.slot_start, before.slot_start)
    run = run_columnar(SMALL, config)
    assert run.digest == records_digest(CohortSimulation(SMALL, config).run())


def test_exact_replays_match_fast_paths(monkeypatch):
    """Forcing both sweeps onto their heap replays must reproduce the fast
    paths' tables, with and without a fault plan."""
    config = CohortConfig(seed=SEED)
    fault_config = FaultPlanConfig(
        seed=11, outage_rate_per_week=0.3, hazard_rate_per_khour=2.0, burst_rate_per_week=1.0
    )

    def plans():
        calendar = build_fault_calendar(fault_config, horizon_hours=SMALL.semester_hours)
        return plan_columns(SMALL, config), plan_columns(
            SMALL, config, faults=FaultSweep(calendar)
        )

    expected = plans()
    monkeypatch.setattr(admission, "_prefix_sum_feasible", lambda *a, **k: False)
    for forced, fast in zip(plans(), expected):
        assert not any(forced.sweep_info.values())
        _assert_tables_equal(forced.tables, fast.tables)
