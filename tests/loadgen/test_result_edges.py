"""Empty-edge and boundary semantics of the traffic-result surfaces.

The resilience layer reads ``TrafficResult`` in regimes the happy path
never visits — runs where *nothing* was served, queues drained exactly
at the deadline — so the edge behaviour is contract, not accident:
percentiles of an empty latency set are NaN (never a fake zero),
loss_rate of an empty trace is 0, the SLO latency gate is vacuously true
with no latency evidence, and the deadline drop is strictly
greater-than.
"""

import math

import numpy as np
import pytest

from repro.faults.plan import (
    SERVING_SITE,
    ApiErrorBurst,
    FaultCalendar,
    FaultPlanConfig,
)
from repro.loadgen.arrivals import RequestTrace, TrafficConfig, generate_trace
from repro.loadgen.autoscaler import AutoscalerConfig, FleetTelemetry
from repro.loadgen.queue import DROPPED, SERVED, AdmissionConfig, RequestQueue
from repro.loadgen.report import build_report
from repro.loadgen.sim import TrafficResult, simulate_traffic
from repro.loadgen.slo import evaluate_slo
from repro.serving import (
    DEVICE_CATALOG,
    BatchingConfig,
    InferenceEngine,
    food11_classifier,
)

TINY = TrafficConfig(
    seed=2, pattern="poisson", requests_per_day=500_000.0, duration_hours=0.01
)


@pytest.fixture(scope="module")
def engine():
    return InferenceEngine(food11_classifier(), DEVICE_CATALOG["server-cpu-16c"])


@pytest.fixture(scope="module")
def nothing_served(engine):
    """Every arrival lands inside an API-error burst: offered > 0, served == 0."""
    trace = generate_trace(TINY)
    calendar = FaultCalendar(
        config=FaultPlanConfig(seed=0, sites=(SERVING_SITE,)),
        horizon_hours=TINY.duration_hours,
        outages=(),
        bursts=(ApiErrorBurst(site=SERVING_SITE, start=0.0, end=TINY.duration_hours),),
    )
    return simulate_traffic(trace, engine, calendar=calendar)


class TestZeroServed:
    def test_everything_errored(self, nothing_served):
        assert nothing_served.offered > 0
        assert nothing_served.served == 0
        assert nothing_served.errored == nothing_served.offered

    def test_percentiles_are_nan_not_zero(self, nothing_served):
        assert len(nothing_served.latencies_ms()) == 0
        for value in (
            nothing_served.p50_ms, nothing_served.p99_ms,
            nothing_served.percentile_ms(99.9),
        ):
            assert math.isnan(value)

    def test_loss_and_batches(self, nothing_served):
        assert nothing_served.loss_rate == 1.0
        assert nothing_served.batches == 0
        assert nothing_served.mean_batch == 0.0

    def test_slo_latency_gate_is_vacuous_loss_gate_judges(self, nothing_served):
        """NaN <= budget would read as a latency violation; a run that
        served nothing must fail on the gate that observed the problem."""
        outcome = evaluate_slo(nothing_served)
        assert outcome.latency_ok is True
        assert outcome.loss_ok is False
        assert outcome.attained is False

    def test_report_prices_nothing_served_as_none_not_zero(
        self, nothing_served, engine
    ):
        report = build_report(nothing_served, engine)
        assert report.cost_per_million_usd is None
        for row in report.cost_rows:
            assert row.cost_per_million(nothing_served.served) is None


class TestZeroOffered:
    def result(self):
        """Direct construction: ``simulate_traffic`` refuses empty traces,
        but downstream surfaces must still be total on the empty result."""
        empty_f = np.zeros(0)
        return TrafficResult(
            trace=RequestTrace(config=TINY, arrivals_s=empty_f),
            admission=AdmissionConfig(),
            batching=BatchingConfig(),
            autoscaler=AutoscalerConfig(),
            device_name="server-cpu-16c",
            model_name="food11",
            status=np.zeros(0, dtype=np.int8),
            start_s=empty_f,
            finish_s=empty_f,
            replica_of=np.zeros(0, dtype=np.int32),
            spans=(),
            telemetry=FleetTelemetry(),
            batches=0,
            max_queue_depth=0,
            faulted=False,
        )

    def test_counts_and_rates(self):
        result = self.result()
        assert result.offered == 0
        assert result.loss_rate == 0.0  # no offers, no losses — not 0/0
        assert result.attempts_total == 0
        assert result.replica_hours == 0.0

    def test_percentiles_nan_and_digest_total(self):
        result = self.result()
        assert math.isnan(result.p99_ms)
        assert len(result.digest()) == 64


class TestDeadlineBoundary:
    def make_queue(self, deadline_ms=1000.0):
        arrivals = np.asarray([0.0, 0.2, 5.0])
        status = np.full(3, SERVED, dtype=np.int8)
        queue = RequestQueue(
            AdmissionConfig(queue_capacity=4, deadline_ms=deadline_ms),
            BatchingConfig(),
            arrivals,
            status,
        )
        for idx in range(3):
            assert queue.offer(idx, in_burst=False)
        return queue, status

    def test_deadline_s_is_milliseconds_over_1000(self):
        assert AdmissionConfig(deadline_ms=250.0).deadline_s == 0.25

    def test_wait_equal_to_deadline_is_still_served(self):
        """The drop rule is strictly ``wait > deadline`` — the mirror of
        ``RetryPolicy.allows_retry``'s ``elapsed >= deadline`` give-up."""
        queue, _ = self.make_queue()
        assert queue.expire(1.0) == []  # head waited exactly 1.0 s
        assert queue.depth == 3

    def test_wait_just_over_deadline_drops_the_prefix(self):
        queue, status = self.make_queue()
        assert queue.expire(1.2000001) == [0, 1]
        assert queue.depth == 1
        assert list(status) == [DROPPED, DROPPED, SERVED]

    def test_expire_is_a_prefix_walk(self):
        """FIFO: once the head is young enough, nothing behind it can be
        expired — later waiters arrived later."""
        queue, _ = self.make_queue()
        assert queue.expire(6.0) == [0, 1]  # idx 2 arrived at 5.0, waited 1.0
        assert queue.depth == 1
