"""Graceful degradation, fuzzed: the cohort engine completes under ANY
fault plan — nothing a calendar can contain makes it raise."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cohort import CohortConfig, CohortSimulation
from repro.core.course import scaled_course
from repro.core.report import records_digest
from repro.faults.plan import FaultPlanConfig
from repro.faults.sweep import plan_faulted_cohort
from repro.parallel.engine import execute_plan
from repro.parallel.merge import merge_shard_records

TINY = scaled_course(0.1)

fault_configs = st.builds(
    FaultPlanConfig,
    seed=st.integers(0, 10_000),
    outage_rate_per_week=st.floats(0.0, 5.0),
    outage_mean_hours=st.floats(0.5, 200.0),
    outage_sigma=st.floats(0.0, 2.0),
    hazard_rate_per_khour=st.floats(0.0, 100.0),
    burst_rate_per_week=st.floats(0.0, 5.0),
    burst_mean_hours=st.floats(0.1, 8.0),
    redo_fraction=st.floats(0.0, 1.0),
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fault=fault_configs, seed=st.integers(0, 1000))
def test_cohort_always_completes_under_any_fault_plan(fault, seed):
    config = CohortConfig(seed=seed)
    plan, ledger = plan_faulted_cohort(TINY, config, fault)
    records = CohortSimulation(TINY, config, plan=plan).run()
    assert records  # degraded, maybe — but never empty, never an exception
    # the ledger's books stay internally consistent at any severity
    assert ledger.lost_instance_hours >= 0
    assert ledger.redo_instance_hours >= 0
    assert ledger.delay_hours >= 0
    assert len(ledger.hardware_failures()) == ledger.hardware_kills


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fault=fault_configs)
def test_parallel_digest_holds_under_any_fault_plan(fault):
    """The sha256 contract is not a property of nice calendars."""
    config = CohortConfig(seed=7)
    plan, _ = plan_faulted_cohort(TINY, config, fault)
    serial = CohortSimulation(TINY, config, plan=plan).run()
    results = execute_plan(plan, config, workers=2)
    merged = merge_shard_records([r.records for r in results])
    assert records_digest(merged) == records_digest(serial)
