"""The simulation's digest contract, conservation laws, and fault wiring."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.faults.plan import (
    SERVING_SITE,
    ApiErrorBurst,
    FaultCalendar,
    FaultPlanConfig,
    OutageWindow,
    build_serving_calendar,
)
from repro.loadgen import (
    DROPPED,
    FAILED,
    SERVED,
    AdmissionConfig,
    AutoscalerConfig,
    RequestTrace,
    TrafficConfig,
    generate_trace,
    simulate_traffic,
)
from repro.resilience.clients import ClientConfig, plan_resilience
from repro.serving import DEVICE_CATALOG, BatchingConfig, InferenceEngine, food11_classifier


@pytest.fixture(scope="module")
def engine():
    return InferenceEngine(food11_classifier(), DEVICE_CATALOG["server-cpu-16c"])


@pytest.fixture(scope="module")
def hot_trace():
    """A 20-minute flash scenario hot enough to force scaling and queueing:
    ~350 rps mean against ~200 rps of single-replica capacity."""
    return generate_trace(
        TrafficConfig(
            seed=11,
            pattern="flash",
            requests_per_day=3e7,
            duration_hours=1.0 / 3.0,
            flash_count=1,
            flash_multiplier=4.0,
            flash_duration_s=120.0,
        )
    )


TIGHT = dict(
    # queue drains in ~64/218 s ≈ 290 ms at single-replica throughput, so a
    # 250 ms deadline makes drops reachable alongside full-queue rejections
    admission=AdmissionConfig(queue_capacity=64, deadline_ms=250.0),
    batching=BatchingConfig(max_batch=8, max_queue_delay_ms=5.0),
    autoscaler=AutoscalerConfig(
        min_replicas=1,
        max_replicas=3,
        control_interval_s=10.0,
        provisioning_lag_s=30.0,
        target_queue_per_replica=16.0,
    ),
)


def serving_calendar(outages=(), bursts=()):
    return FaultCalendar(
        config=FaultPlanConfig(seed=0, sites=(SERVING_SITE,)),
        horizon_hours=24.0,
        outages=tuple(OutageWindow(SERVING_SITE, s, e) for s, e in outages),
        bursts=tuple(ApiErrorBurst(SERVING_SITE, s, e) for s, e in bursts),
    )


class TestDigestContract:
    def test_rerun_reproduces_digest(self, engine, hot_trace):
        a = simulate_traffic(hot_trace, engine, **TIGHT)
        b = simulate_traffic(hot_trace, engine, **TIGHT)
        assert a.digest() == b.digest()

    def test_perturbed_evaluation_order_reproduces_digest(self, engine, hot_trace):
        a = simulate_traffic(hot_trace, engine, **TIGHT)
        b = simulate_traffic(hot_trace, engine, perturb=True, **TIGHT)
        assert a.digest() == b.digest()
        # the perturbation is not a no-op: the fleet really scaled, so the
        # reversed scan really visited replicas in a different order
        assert a.telemetry.scale_ups > 0

    def test_perturbation_invariance_under_faults(self, engine, hot_trace):
        calendar = serving_calendar(
            outages=[(0.05, 0.08)], bursts=[(0.15, 0.17)]
        )
        a = simulate_traffic(hot_trace, engine, calendar=calendar, **TIGHT)
        b = simulate_traffic(hot_trace, engine, calendar=calendar, perturb=True, **TIGHT)
        assert a.digest() == b.digest()
        assert a.faulted

    def test_different_policy_different_digest(self, engine, hot_trace):
        a = simulate_traffic(hot_trace, engine, **TIGHT)
        b = simulate_traffic(
            hot_trace,
            engine,
            admission=AdmissionConfig(queue_capacity=65, deadline_ms=400.0),
            batching=TIGHT["batching"],
            autoscaler=TIGHT["autoscaler"],
        )
        assert a.digest() != b.digest()


class TestConservation:
    def test_every_request_reaches_exactly_one_terminal_status(self, engine, hot_trace):
        r = simulate_traffic(hot_trace, engine, **TIGHT)
        assert r.offered == len(hot_trace)
        assert (
            r.served + r.rejected + r.dropped + r.errored + r.failed == r.offered
        )
        # the hot scenario exercises the loss paths, not just the happy one
        assert r.served > 0 and r.rejected > 0 and r.dropped > 0

    def test_served_latencies_are_positive_and_finite(self, engine, hot_trace):
        r = simulate_traffic(hot_trace, engine, **TIGHT)
        lat = r.latencies_ms()
        assert np.all(np.isfinite(lat)) and np.all(lat > 0)
        assert r.p50_ms <= r.p95_ms <= r.p99_ms

    def test_spans_close_exactly_once_and_cover_billing(self, engine, hot_trace):
        r = simulate_traffic(hot_trace, engine, **TIGHT)
        assert len(r.spans) == r.telemetry.scale_ups + TIGHT["autoscaler"].min_replicas
        assert all(s.terminated_at_s >= s.launched_at_s for s in r.spans)
        assert r.replica_hours == pytest.approx(sum(s.billed_hours for s in r.spans))
        assert r.replica_hours > 0

    def test_empty_trace_rejected(self, engine):
        empty = RequestTrace(
            config=TrafficConfig(requests_per_day=1.0, duration_hours=0.01),
            arrivals_s=np.empty(0),
        )
        with pytest.raises(ValidationError):
            simulate_traffic(empty, engine)


class TestFaultWiring:
    def test_outage_kills_in_flight_requests(self, engine, hot_trace):
        # outage mid-run: under overload the fleet is mid-batch essentially
        # always, so the strike catches requests in flight
        calendar = serving_calendar(outages=[(0.05, 0.15)])
        r = simulate_traffic(hot_trace, engine, calendar=calendar, **TIGHT)
        assert r.telemetry.outage_kills > 0
        assert r.count(FAILED) > 0
        failed = r.status == FAILED
        assert np.all(np.isnan(r.finish_s[failed]))

    def test_burst_window_errors_exactly_its_arrivals(self, engine, hot_trace):
        calendar = serving_calendar(bursts=[(0.1, 0.2)])
        r = simulate_traffic(hot_trace, engine, calendar=calendar, **TIGHT)
        lo, hi = 0.1 * 3600.0, 0.2 * 3600.0
        in_window = (hot_trace.arrivals_s >= lo) & (hot_trace.arrivals_s < hi)
        assert r.errored == int(in_window.sum()) > 0

    def test_fleet_recovers_after_outage(self, engine, hot_trace):
        calendar = serving_calendar(outages=[(0.02, 0.05)])
        r = simulate_traffic(hot_trace, engine, calendar=calendar, **TIGHT)
        after = hot_trace.arrivals_s > 0.05 * 3600.0 + 120.0
        served_after = (r.status == 0) & after
        assert served_after.sum() > 0

    def test_null_calendar_matches_no_calendar(self, engine, hot_trace):
        null = build_serving_calendar(duration_hours=0.34)
        assert null.empty
        a = simulate_traffic(hot_trace, engine, **TIGHT)
        b = simulate_traffic(hot_trace, engine, calendar=null, **TIGHT)
        assert a.digest() == b.digest()

    def test_deadline_policy_sheds_backlog_during_outage(self, engine, hot_trace):
        calendar = serving_calendar(outages=[(0.1, 0.2)])
        r = simulate_traffic(hot_trace, engine, calendar=calendar, **TIGHT)
        assert r.count(DROPPED) > 0


class TestOverlappingFullSiteOutages:
    """Overlapping full-site windows are one dark stretch: capacity
    provisioned inside it cannot be ready before the *stretch* ends, not
    just the first window that covers the launch instant."""

    WINDOWS_S = ((600.0, 1200.0), (900.0, 2400.0))

    @pytest.mark.parametrize("closed_loop", [False, True], ids=["open", "closed"])
    def test_nothing_served_inside_the_merged_windows(self, engine, closed_loop):
        trace = generate_trace(
            TrafficConfig(seed=3, pattern="poisson", requests_per_day=50 * 86_400.0,
                          duration_hours=1.0)
        )
        calendar = serving_calendar(outages=[(s / 3600.0, e / 3600.0) for s, e in self.WINDOWS_S])
        model = plan_resilience(trace, ClientConfig.naive()) if closed_loop else None
        r = simulate_traffic(
            trace, engine, calendar=calendar, resilience=model,
            autoscaler=AutoscalerConfig(max_replicas=2, provisioning_lag_s=30.0),
        )
        # the bounds exactly as the simulation reads them off the calendar
        dark_from = calendar.outages[0].start * 3600.0
        dark_until = calendar.outages[1].end * 3600.0
        starts = r.start_s[r.status == SERVED]
        assert not ((starts >= dark_from) & (starts < dark_until)).any()
        # the fleet comes back once the stretch is over
        assert (starts >= dark_until).any()
