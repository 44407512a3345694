"""Graceful degradation, fuzzed: the cohort engine completes under ANY
fault plan — nothing a calendar can contain makes it raise."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cohort import CohortConfig, CohortSimulation
from repro.core.course import scaled_course
from repro.core.report import records_digest
from repro.faults.plan import FaultPlanConfig, build_fault_calendar
from repro.faults.sweep import FaultSweep
from repro.parallel.engine import run_parallel

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
    sweep = FaultSweep(build_fault_calendar(fault, horizon_hours=TINY.semester_hours))
    records = CohortSimulation(TINY, config, faults=sweep).run()
    ledger = sweep.ledger
    assert records  # degraded, maybe — but never empty, never an exception
    # the ledger's books stay internally consistent at any severity
    assert ledger.lost_instance_hours >= 0
    assert ledger.redo_instance_hours >= 0
    assert ledger.delay_hours >= 0


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fault=fault_configs)
def test_parallel_digest_holds_under_any_fault_plan(fault):
    """The sha256 contract is not a property of nice calendars."""
    config = CohortConfig(seed=7)
    calendar = build_fault_calendar(fault, horizon_hours=TINY.semester_hours)
    serial = CohortSimulation(TINY, config, faults=FaultSweep(calendar)).run()
    merged = run_parallel(TINY, config, workers=2, faults=FaultSweep(calendar))
    assert records_digest(merged) == records_digest(serial)
