"""Digest equality under faults: serial vs parallel, and the null-plan anchor.

Mirrors ``tests/parallel/test_equivalence.py`` — the contract is that a
resolved fault plan is just data, so worker count can never change the
merged records digest.
"""

import pytest

from repro.columnar import run_columnar
from repro.core.cohort import CohortConfig, CohortSimulation, plan_cohort
from repro.core.course import scaled_course
from repro.core.report import records_digest
from repro.faults.plan import (
    FaultPlanConfig,
    FaultSweep,
    build_fault_calendar,
    plan_faulted_cohort,
)
from repro.parallel.engine import execute_plan
from repro.parallel.merge import merge_shard_records

SMALL = scaled_course(0.25)
SEEDS = (42, 7, 1234)
WORKERS = (1, 2, 4)

CHAOS = FaultPlanConfig(
    seed=11,
    outage_rate_per_week=0.3,
    hazard_rate_per_khour=2.0,
    burst_rate_per_week=1.0,
)


@pytest.fixture(scope="module")
def faulted_runs():
    """One faulted plan + serial reference digest per cohort seed."""
    runs = {}
    for seed in SEEDS:
        config = CohortConfig(seed=seed)
        plan, ledger = plan_faulted_cohort(SMALL, config, CHAOS)
        records = CohortSimulation(SMALL, config, plan=plan).run()
        runs[seed] = (config, plan, ledger, records)
    return runs


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workers", WORKERS)
def test_parallel_matches_serial_under_faults(faulted_runs, seed, workers):
    config, plan, _, serial = faulted_runs[seed]
    results = execute_plan(plan, config, workers=workers)
    merged = merge_shard_records([r.records for r in results])
    assert records_digest(merged) == records_digest(serial)
    assert len(merged) == len(serial)


@pytest.mark.parametrize("seed", SEEDS)
def test_fault_plan_is_reproducible(seed):
    config = CohortConfig(seed=seed)
    a, la = plan_faulted_cohort(SMALL, config, CHAOS)
    b, lb = plan_faulted_cohort(SMALL, config, CHAOS)
    assert a.student_shards == b.student_shards
    assert a.group_shards == b.group_shards
    assert la.events == lb.events


def test_faults_actually_fired(faulted_runs):
    """Anti-vacuity: the chaos config must perturb every seed's plan."""
    for seed in SEEDS:
        _, _, ledger, _ = faulted_runs[seed]
        assert ledger.events, f"no fault events at seed {seed}"


def test_null_fault_plan_matches_unfaulted_baseline():
    """FaultPlanConfig() must be invisible: same plan objects, same digest."""
    config = CohortConfig(seed=42)
    base_plan = plan_cohort(SMALL, config)
    null_plan, ledger = plan_faulted_cohort(SMALL, config, FaultPlanConfig())
    assert ledger.events == []
    assert null_plan.student_shards == base_plan.student_shards
    assert null_plan.group_shards == base_plan.group_shards

    base = CohortSimulation(SMALL, config, plan=base_plan).run()
    nulled = CohortSimulation(SMALL, config, plan=null_plan).run()
    assert records_digest(nulled) == records_digest(base)


@pytest.mark.parametrize("fault_seed", (7, 11))
def test_fault_seed_independent_of_cohort_seed(fault_seed):
    """The calendar comes from the fault plan's own seed stream, so changing
    the cohort seed must not change which windows exist."""
    cfg = FaultPlanConfig(seed=fault_seed, outage_rate_per_week=0.5)
    _, ledger_a = plan_faulted_cohort(SMALL, CohortConfig(seed=1), cfg)
    _, ledger_b = plan_faulted_cohort(SMALL, CohortConfig(seed=2), cfg)
    # Different cohorts schedule different activities, so event lists differ,
    # but both were swept against the identical calendar.
    from repro.faults.plan import build_fault_calendar

    horizon = SMALL.semester_hours
    assert build_fault_calendar(cfg, horizon_hours=horizon) == \
        build_fault_calendar(cfg, horizon_hours=horizon)
    assert ledger_a.events or ledger_b.events


@pytest.mark.parametrize(
    ("fault_config", "digest", "counts"),
    [
        (
            CHAOS,
            "787aaa4f78934ab2c4f23f66d18ac06026d11ccbcdf208f92945ee9fdce87a58",
            (234, 98, 45, 70, 21),
        ),
        (
            FaultPlanConfig(seed=3, outage_rate_per_week=1.0),
            "3f115aaf9ce3fe924f6670401aeca595e0ecb2df837e34a2f4175aca6e3024af",
            (226, 0, 193, 8, 25),
        ),
        (
            FaultPlanConfig(seed=7, hazard_rate_per_khour=5.0, burst_rate_per_week=2.0),
            "20079d0db482c8eb5e221439f3dc56ce6275bcd13704c6efca8c4b6a909fe2f3",
            (237, 199, 0, 14, 24),
        ),
    ],
    ids=["mixed-s11", "outages-s3", "hazard-bursts-s7"],
)
def test_faulted_digest_and_ledger_are_pinned(fault_config, digest, counts):
    """Faulted semesters (0.25x cohort, seed 42) are pinned by value: the
    serial and columnar digests, and the ledger's event count, hardware
    kills, outage kills, delayed starts and abandonments.  Any change to
    how faults rewrite the plan, or to how admission re-validates it,
    moves one of them."""
    config = CohortConfig(seed=42)
    plan, ledger = plan_faulted_cohort(SMALL, config, fault_config)
    assert records_digest(CohortSimulation(SMALL, config, plan=plan).run()) == digest
    calendar = build_fault_calendar(fault_config, horizon_hours=SMALL.semester_hours)
    assert run_columnar(SMALL, config, faults=FaultSweep(calendar)).digest == digest
    assert (
        len(ledger.events),
        ledger.hardware_kills,
        ledger.outage_kills,
        ledger.delayed_starts,
        ledger.abandoned,
    ) == counts
