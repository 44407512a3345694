"""Property tests for the columnar engine's shard structure.

The engine's output must be a pure function of (course, config) — never
of how work was chunked, bucketed or fanned out.  Hypothesis drives the
structural sizes through adversarial values (singleton batches, one
bucket, hundreds of mostly-empty buckets) and every variation must
reproduce the reference digest bit for bit.  The bucket count, chunk
size and replay block are module constants, patched per example with
``unittest.mock.patch.object`` (the function-scoped ``monkeypatch``
fixture fails Hypothesis's fixture health check).  The
billing integral is held to *exact* equality with the record-level
fsum, a null fault plan must be a byte-exact no-op, and a non-null one
must land on the serial digest.  Both admission sweeps are also driven
off their fast paths: the exact replays must reproduce the fast paths'
tables, and with the testbed enforcing the same shrunk quota or node
counts at runtime, the serial digest referees them.  The fast paths'
whole-number check is held to a plain serial sweep on generated
arrival sets.
"""

import dataclasses
import heapq
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.cloud.testbed
from repro.cloud.quota import Quota
from repro.columnar import admission, kernels, merge, plan_columns, planner, run_columnar
from repro.common.errors import ValidationError
from repro.common.numerics import stable_sum
from repro.core import records_digest, scaled_course
from repro.core.cohort import CohortConfig, CohortSimulation, SlotCalendar
from repro.faults.plan import FaultPlanConfig, build_fault_calendar
from repro.faults.sweep import FaultSweep

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
    """Reference digest for the SMALL cohort, default engine sizes."""
    return run_columnar(SMALL, CohortConfig(seed=SEED)).digest


@_SLOW
@given(
    n_buckets=st.integers(min_value=1, max_value=257),
    chunk_rows=st.sampled_from((1, 2, 17, 1_000, 2_000_000)),
)
def test_merge_shard_boundaries_never_leak(reference, n_buckets, chunk_rows):
    """Digest is invariant under bucket count and emission chunking —
    including singleton batches and buckets that stay empty."""
    with patch.object(merge, "N_BUCKETS", n_buckets), patch.object(
        kernels, "CHUNK_ROWS", chunk_rows
    ):
        run = run_columnar(SMALL, CohortConfig(seed=SEED))
    assert run.digest == reference


def test_draw_block_boundaries_never_leak(reference):
    """Digest is invariant under the planner's replay blocks: student
    draws are seeded per student, so block splits cannot matter.  Eight-row
    blocks cut the cohort into six student blocks and two group blocks."""
    with patch.object(planner, "_REPLAY_ROWS", 8):
        run = run_columnar(SMALL, CohortConfig(seed=SEED))
    assert run.digest == reference


@_SLOW
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_buckets=st.sampled_from((1, 3, 64)),
)
def test_unit_hours_conserved_exactly(seed, n_buckets):
    """The streamed per-bucket total equals the record-level fsum with
    zero tolerance, for arbitrary seeds and bucketings; and the digest,
    built from per-column repr tables, equals the per-row definition over
    the same records."""
    with patch.object(merge, "N_BUCKETS", n_buckets):
        run = run_columnar(ONE, CohortConfig(seed=seed), collect_records=True)
    assert run.unit_hours == stable_sum(rec.unit_hours for rec in run.record_list)
    assert run.digest == records_digest(run.record_list)
    assert math.isfinite(run.unit_hours) and run.unit_hours >= 0.0


def test_singleton_cohort_matches_serial():
    """The 1-student, 1-group edge: every family near-empty, digest holds."""
    serial = CohortSimulation(ONE, CohortConfig(seed=SEED)).run()
    run = run_columnar(ONE, CohortConfig(seed=SEED))
    assert run.digest == records_digest(serial)
    assert run.students == 1 and run.groups == 1


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
    serial = CohortSimulation(SMALL, config, faults=FaultSweep(calendar)).run()
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


# -- the admission fast path against a serial sweep -----------------------------------


def test_fractional_flavor_is_refused(monkeypatch):
    """The whole-number check holds only for whole vCPUs and GiB: a flavor
    with half a GiB is refused where the bundles are built, not truncated."""
    flavors = dict(admission.CHAMELEON_FLAVORS)
    flavors["m1.medium"] = dataclasses.replace(flavors["m1.medium"], ram_gib=3.5)
    monkeypatch.setattr(admission, "CHAMELEON_FLAVORS", flavors)
    with pytest.raises(ValidationError, match="m1.medium has 2 vCPUs and 3.5 GiB"):
        plan_columns(ONE, CohortConfig(seed=SEED))


#: Instants on a coarse grid, so that arrivals and releases tie.
_INSTANTS = st.integers(0, 8).map(lambda k: k * 0.5)


@st.composite
def arrival_sets(draw):
    """``(arrivals_first, [(start, end, bundle)], limits)``: whole-number
    bundles in all six dimensions, holds of zero length under the quota
    convention, and limits that are fractional, infinite or whole (so
    that a sum meets one exactly)."""
    arrivals_first = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 16))):
        start = draw(_INSTANTS)
        length = draw(st.integers(0 if arrivals_first else 1, 4)) * 0.5
        bundle = draw(st.lists(st.integers(0, 3), min_size=6, max_size=6))
        rows.append((start, start + length, bundle))
    limits = [
        draw(st.integers(0, 9)) + draw(st.sampled_from((0.0, 0.0, 0.5, 0.75, math.inf)))
        for _ in admission.QUOTA_DIMS
    ]
    return arrivals_first, rows, limits


def _serial_first_attempts_fit(arrivals_first, rows, limits) -> bool:
    """Heap order over Python floats: arrivals by ``(start, rank)``, each
    freeing the holds that end before it (``< t`` under the quota
    convention, ``<= t`` under the lease one).  Does every first attempt fit?"""
    arrivals = [(start, rank, end, bundle) for rank, (start, end, bundle) in enumerate(rows)]
    heapq.heapify(arrivals)
    holds: list[tuple[float, int, list[float]]] = []
    in_use = [0.0] * len(limits)
    while arrivals:
        t, rank, end, bundle = heapq.heappop(arrivals)
        while holds and (holds[0][0] < t if arrivals_first else holds[0][0] <= t):
            for dim, amount in enumerate(heapq.heappop(holds)[2]):
                in_use[dim] -= amount
        amounts = [float(b) for b in bundle]
        if any(in_use[dim] + amounts[dim] > limits[dim] for dim in range(len(limits))):
            return False
        for dim, amount in enumerate(amounts):
            in_use[dim] += amount
        heapq.heappush(holds, (end, rank, amounts))
    return True


@settings(deadline=None, max_examples=400, derandomize=True)
@given(case=arrival_sets())
def test_fast_path_verdict_equals_a_serial_sweep(case):
    arrivals_first, rows, limits = case
    starts = np.array([start for start, _, _ in rows], dtype=np.float64)
    ends = np.array([end for _, end, _ in rows], dtype=np.float64)
    bundles = np.array([b for _, _, b in rows], dtype=np.int64).reshape(len(rows), 6)
    verdict = admission._prefix_sum_feasible(
        starts, bundles, ends, np.array(limits), arrivals_first=arrivals_first
    )
    assert verdict == _serial_first_attempts_fit(arrivals_first, rows, limits)
