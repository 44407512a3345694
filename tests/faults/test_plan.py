"""Plan-time fault resolution: calendars, the sweep, and the ledger."""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.columnar.planner import _raw_tables
from repro.columnar.schema import SITE_CODES
from repro.common.errors import InvalidStateError, ValidationError
from repro.core.cohort import CohortConfig, plan_cohort
from repro.core.course import KVM_SITE, METAL_SITE, scaled_course
from repro.core.report import fault_accounting
from repro.faults.plan import (
    ApiErrorBurst,
    FaultCalendar,
    FaultPlanConfig,
    OutageWindow,
    build_fault_calendar,
)
from repro.faults.sweep import FaultSweep

SMALL = scaled_course(0.25)
#: The raw (pre-admission) tables of a 1-student cohort; sweep inputs
#: are one row sliced from them.
RAW, SCHEMA, _ = _raw_tables(scaled_course(1.0 / 191.0), CohortConfig())


def faulted_plan(config, fault_config):
    """Plan SMALL under ``fault_config``; returns (plan, ledger)."""
    sweep = FaultSweep(build_fault_calendar(fault_config, horizon_hours=SMALL.semester_hours))
    return plan_cohort(SMALL, config, faults=sweep), sweep.ledger


def calendar_with(outages=(), bursts=(), config=None, horizon=1000.0):
    cfg = config if config is not None else FaultPlanConfig(seed=1)
    return FaultCalendar(config=cfg, horizon_hours=horizon,
                         outages=tuple(outages), bursts=tuple(bursts))


def one_row(family, **columns):
    """One ``family`` row sliced from ``RAW`` with ``columns`` set; the
    other families are empty."""
    tables = RAW
    for other in ("vm", "slot", "pvm", "pl", "ps"):
        tables = tables.take(other, slice(0, int(other == family)))
    return replace(tables, **{
        name: np.array([value], dtype=getattr(tables, name).dtype)
        for name, value in columns.items()
    })


def vm_tables(start=100.0, duration=10.0, vm_count=2):
    return one_row("vm", vm_lab=SCHEMA.lab_codes["lab2"],
                   vm_flavor=SCHEMA.rtype_codes["m1.medium"], vm_start=start,
                   vm_duration=duration, vm_count=vm_count)


def apply(sweep, tables):
    return sweep.apply(tables, schema=SCHEMA, semester_hours=1000.0)


class TestConfigValidation:
    def test_default_is_null(self):
        assert FaultPlanConfig().is_null

    @pytest.mark.parametrize("kwargs", [
        {"outage_rate_per_week": -1.0},
        {"hazard_rate_per_khour": -0.1},
        {"burst_rate_per_week": -2.0},
        {"outage_mean_hours": 0.0},
        {"outage_sigma": -0.5},
        {"redo_fraction": 1.5},
        {"sites": ()},
    ])
    def test_bad_fields_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            FaultPlanConfig(**kwargs)


class TestCalendar:
    def test_null_config_builds_empty_calendar(self):
        cal = build_fault_calendar(FaultPlanConfig(), horizon_hours=500.0)
        assert cal.empty
        assert cal.outages == () and cal.bursts == ()

    def test_calendar_is_pure_function_of_config_and_horizon(self):
        cfg = FaultPlanConfig(seed=5, outage_rate_per_week=0.5, burst_rate_per_week=1.0)
        a = build_fault_calendar(cfg, horizon_hours=2000.0)
        b = build_fault_calendar(cfg, horizon_hours=2000.0)
        assert a == b
        assert not a.empty

    def test_different_fault_seed_different_calendar(self):
        kw = dict(outage_rate_per_week=1.0, burst_rate_per_week=2.0)
        a = build_fault_calendar(FaultPlanConfig(seed=1, **kw), horizon_hours=2000.0)
        b = build_fault_calendar(FaultPlanConfig(seed=2, **kw), horizon_hours=2000.0)
        assert a.outages != b.outages

    def test_windows_clamped_to_horizon_and_sorted(self):
        cfg = FaultPlanConfig(seed=5, outage_rate_per_week=2.0,
                              outage_mean_hours=100.0, outage_sigma=1.0)
        cal = build_fault_calendar(cfg, horizon_hours=300.0)
        assert all(w.end <= 300.0 for w in cal.outages)
        starts = [w.start for w in cal.outages]
        assert starts == sorted(starts)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValidationError):
            build_fault_calendar(FaultPlanConfig(), horizon_hours=0.0)

    def test_lookups(self):
        w = OutageWindow(site=KVM_SITE, start=10.0, end=20.0)
        b = ApiErrorBurst(site=KVM_SITE, start=50.0, end=51.0)
        cal = calendar_with(outages=[w], bursts=[b])
        assert cal.outage_at(KVM_SITE, 10.0) is w
        assert cal.outage_at(KVM_SITE, 20.0) is None  # half-open
        assert cal.outage_at(METAL_SITE, 15.0) is None
        assert cal.burst_at(KVM_SITE, 50.5) is b
        assert cal.outage_over(KVM_SITE, 0.0, 10.1) is w
        assert cal.outage_over(KVM_SITE, 20.0, 30.0) is None
        assert cal.next_clear(KVM_SITE, 15.0) == 20.0
        assert cal.next_clear(KVM_SITE, 5.0) == 5.0


class TestSweepSemantics:
    def test_empty_calendar_returns_same_objects(self):
        """The null plan is a strict no-op — identity, not just equality."""
        tables = vm_tables()
        sweep = FaultSweep(calendar_with())
        assert apply(sweep, tables) is tables
        assert sweep.ledger.events == []

    def test_apply_twice_raises(self):
        cal = calendar_with(outages=[OutageWindow(KVM_SITE, 10.0, 20.0)])
        sweep = FaultSweep(cal)
        apply(sweep, vm_tables())
        with pytest.raises(InvalidStateError):
            apply(sweep, vm_tables())

    def test_outage_kills_running_vm_and_relaunches(self):
        cal = calendar_with(outages=[OutageWindow(KVM_SITE, start=105.0, end=106.0)])
        sweep = FaultSweep(cal)
        out = apply(sweep, vm_tables(start=100.0, duration=10.0))
        assert len(out.vm_start) == 2
        (first_start, second_start), (first_hours, second_hours) = out.vm_start, out.vm_duration
        assert first_start == 100.0 and first_hours == pytest.approx(5.0)
        assert second_start >= 106.0  # relaunch waits out the window
        # remaining 5 h plus the redone fraction of the killed 5 h
        assert second_hours == pytest.approx(5.0 + 0.5 * 5.0)
        assert sweep.ledger.outage_kills == 1
        assert sweep.ledger.redo_instance_hours == pytest.approx(2.5 * 2)  # ×vm_count

    def test_start_inside_outage_is_delayed(self):
        cal = calendar_with(outages=[OutageWindow(KVM_SITE, start=95.0, end=120.0)])
        sweep = FaultSweep(cal)
        out = apply(sweep, vm_tables(start=100.0, duration=10.0))
        assert len(out.vm_start) == 1
        assert out.vm_start[0] >= 120.0
        assert out.vm_duration[0] == pytest.approx(10.0)  # work not lost
        assert sweep.ledger.delayed_starts == 1
        assert sweep.ledger.delay_hours > 0

    def test_semester_long_outage_abandons_activity(self):
        cal = calendar_with(outages=[OutageWindow(KVM_SITE, start=0.0, end=1000.0)])
        sweep = FaultSweep(cal)
        out = apply(sweep, vm_tables(start=100.0, duration=10.0, vm_count=3))
        assert len(out.vm_start) == 0
        assert sweep.ledger.abandoned == 1
        assert sweep.ledger.lost_instance_hours == pytest.approx(30.0)

    def test_slot_overlapping_outage_moves_whole_interval(self):
        tables = one_row("slot", slot_lab=SCHEMA.lab_codes["lab4_multi"],
                         slot_node=SCHEMA.rtype_codes["gpu_v100"],
                         slot_site=SITE_CODES[METAL_SITE], slot_start=100.0,
                         slot_hours=3.0, slot_edge=False)
        cal = calendar_with(outages=[OutageWindow(METAL_SITE, start=102.0, end=104.0)])
        sweep = FaultSweep(cal)
        out = apply(sweep, tables)
        moved_start, moved_hours = out.slot_start[0], out.slot_hours[0]
        assert moved_start >= 104.0
        assert moved_hours == 3.0  # reservations move, never shrink
        assert cal.outage_over(METAL_SITE, moved_start,
                               moved_start + moved_hours) is None

    def test_burst_delays_start_on_transient_policy(self):
        cal = calendar_with(bursts=[ApiErrorBurst(KVM_SITE, start=99.9, end=100.5)])
        sweep = FaultSweep(cal)
        out = apply(sweep, vm_tables(start=100.0, duration=10.0))
        assert out.vm_start[0] > 100.0
        # 0.25 h backoff lands inside the burst; the second (0.5 h) clears it
        assert out.vm_start[0] == pytest.approx(100.75)
        assert sweep.ledger.delayed_starts == 1

    def test_hazard_kills_are_seeded_and_bounded(self):
        cfg = FaultPlanConfig(seed=3, hazard_rate_per_khour=50.0)
        cal = build_fault_calendar(cfg, horizon_hours=1000.0)
        a = apply(FaultSweep(cal), vm_tables(duration=100.0))
        b = apply(FaultSweep(cal), vm_tables(duration=100.0))
        # hazard stream re-derived, not shared state
        assert all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
        sweep = FaultSweep(cal)
        out = apply(sweep, vm_tables(duration=100.0))
        # relaunch policy bounds segments: ≤ 1 original + 3 relaunches
        assert 1 <= len(out.vm_start) <= 4


class TestLedgerConservation:
    def test_unit_hour_accounting_balances(self):
        """Planned = executed + lost − redo, per the ledger's books."""
        cfg = FaultPlanConfig(seed=9, outage_rate_per_week=0.5,
                              hazard_rate_per_khour=5.0, burst_rate_per_week=1.0)
        config = CohortConfig()
        base = plan_cohort(SMALL, config)
        faulted, ledger = faulted_plan(config, cfg)
        assert ledger.events  # anti-vacuity

        def vm_instance_hours(plan):
            return sum(
                a.duration * a.vm_count
                for s in plan.student_shards for a in s.vm_labs
            ) + sum(
                a.hours for s in plan.group_shards for a in s.project_vms
            )

        planned = vm_instance_hours(base)
        executed = vm_instance_hours(faulted)
        assert executed == pytest.approx(
            planned + ledger.redo_instance_hours - ledger.lost_instance_hours,
            rel=1e-9,
        )

    def test_per_user_redo_sums_to_total(self):
        """The fault accounting's per-user redo dollars add up to its total."""
        cfg = FaultPlanConfig(seed=9, outage_rate_per_week=0.5,
                              hazard_rate_per_khour=5.0)
        _, ledger = faulted_plan(CohortConfig(), cfg)
        report = fault_accounting(ledger, course=SMALL)
        assert report.redo_instance_hours > 0  # anti-vacuity
        for total, by_user in ((report.aws_redo_usd, report.aws_redo_by_user),
                               (report.gcp_redo_usd, report.gcp_redo_by_user)):
            assert total > 0
            assert sum(by_user.values()) == pytest.approx(total, rel=1e-9)
