"""Execution executes: admission is decided at plan time only.

``execute_shard`` provisions exactly what the plan admitted.  It holds
no quota-retry, next-slot or give-up policy of its own, so an activity
the testbed refuses (one plan-time admission would never have admitted)
surfaces as the testbed's own error out of ``run_until`` instead of a
silent reschedule.  The serial and parallel engines share this
execution, so the contract covers both.
"""

import pytest

from repro.cloud.quota import Quota
from repro.cloud.testbed import chameleon
from repro.common.errors import ConflictError, QuotaExceededError
from repro.core.cohort import ShardPlan, SlotActivity, VmLabActivity, execute_shard
from repro.core.course import METAL_SITE

HOURS = 100.0


def vm_set_shard(vm_count: int) -> ShardPlan:
    lab = VmLabActivity(
        lab_id="lab1", user="student000", start=1.0, duration=10.0,
        flavor="m1.small", vm_count=vm_count,
    )
    return ShardPlan(shard_id="student000", spawn_key=(1, 0), vm_labs=(lab,))


def slot_shard(slots: int) -> ShardPlan:
    """``slots`` overlapping bookings of the four-node ``gpu_a100_pcie`` type."""
    bookings = tuple(
        SlotActivity(
            lab_id="lab4", user=f"student{i:03d}", site=METAL_SITE,
            node_type="gpu_a100_pcie", start=1.0, slot_hours=3.0, edge=False,
        )
        for i in range(slots)
    )
    return ShardPlan(shard_id="lab4", spawn_key=(1, 0), slots=bookings)


def run_shard(shard: ShardPlan, **testbed_kwargs):
    testbed = chameleon(**testbed_kwargs)
    execute_shard(shard, testbed, semester_hours=HOURS)
    testbed.run_until(HOURS)
    return testbed.usage_records()


def test_vm_set_within_quota_runs():
    records = run_shard(vm_set_shard(1), quota=Quota(instances=1))
    assert any(rec.kind == "server" for rec in records)


def test_vm_set_over_quota_raises_out_of_run_until():
    with pytest.raises(QuotaExceededError, match="quota exceeded for instances"):
        run_shard(vm_set_shard(2), quota=Quota(instances=1))


def test_slots_within_capacity_run():
    records = run_shard(slot_shard(4))
    assert sum(rec.kind == "baremetal" for rec in records) == 4


def test_overlapping_slot_over_capacity_raises_out_of_run_until():
    with pytest.raises(ConflictError, match="gpu_a100_pcie"):
        run_shard(slot_shard(5))
