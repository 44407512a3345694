"""Closed-loop ``simulate_traffic``: conservation, equivalence, digests.

The resilience layer must not bend the simulation's contracts: every
request still gets exactly one terminal outcome, a one-attempt client is
status-identical to the open loop, and the digest is byte-identical
under rerun and evaluation-order perturbation.  On top of that sit the
closed-loop claims themselves: retries re-serve real requests, the token
bucket caps amplification, and the breaker converts overload into sheds.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.common.retry import RetryPolicy
from repro.faults.plan import (
    SERVING_SITE,
    ApiErrorBurst,
    FaultCalendar,
    FaultPlanConfig,
    build_outage_calendar,
)
from repro.loadgen.arrivals import RequestTrace, TrafficConfig, generate_trace
from repro.loadgen.autoscaler import AutoscalerConfig
from repro.loadgen.queue import ERROR, SERVED, SHED, AdmissionConfig
from repro.loadgen.sim import simulate_traffic
from repro.resilience.clients import ClientConfig, plan_resilience
from repro.resilience.scenario import SERVING_BREAKER
from repro.resilience.shedding import SheddingConfig
from repro.serving import (
    DEVICE_CATALOG,
    BatchingConfig,
    InferenceEngine,
    food11_classifier,
)

#: ~8 rps for six minutes with a one-minute full outage in the middle —
#: small enough to simulate in milliseconds, faulty enough that every
#: loss class and retry path fires.
TRAFFIC = TrafficConfig(
    seed=7, pattern="poisson", requests_per_day=700_000.0, duration_hours=0.1
)
OPS = dict(
    admission=AdmissionConfig(queue_capacity=32, deadline_ms=500.0),
    batching=BatchingConfig(max_batch=8),
    autoscaler=AutoscalerConfig(
        min_replicas=1, max_replicas=1, control_interval_s=10.0,
        provisioning_lag_s=30.0,
    ),
)


@pytest.fixture(scope="module")
def engine():
    return InferenceEngine(food11_classifier(), DEVICE_CATALOG["server-cpu-16c"])


@pytest.fixture(scope="module")
def trace():
    return generate_trace(TRAFFIC)


@pytest.fixture(scope="module")
def calendar():
    return build_outage_calendar(
        outage_start_s=120.0, outage_end_s=180.0, horizon_hours=TRAFFIC.duration_hours
    )


def run(trace, engine, calendar, client, *, perturb=False, **defenses):
    model = plan_resilience(trace, client, **defenses)
    return simulate_traffic(
        trace, engine, calendar=calendar, resilience=model, perturb=perturb, **OPS
    )


@pytest.fixture(scope="module")
def naive_run(trace, engine, calendar):
    return run(trace, engine, calendar, ClientConfig.naive())


@pytest.fixture(scope="module")
def guarded_run(trace, engine, calendar):
    return run(
        trace, engine, calendar, ClientConfig.budgeted(),
        shedding=SheddingConfig(brownout_depth_fraction=0.3),
        breaker=replace(SERVING_BREAKER, min_volume=20),
    )


class TestContractsHold:
    def test_every_request_terminal_and_attempted(self, naive_run):
        out = naive_run.resilience
        assert (naive_run.status >= SERVED).all()
        assert (naive_run.status <= SHED).all()
        assert (out.attempts >= 1).all()
        counted = (
            naive_run.served + naive_run.rejected + naive_run.dropped
            + naive_run.errored + naive_run.failed + naive_run.shed
        )
        assert counted == naive_run.offered

    def test_no_retry_client_is_status_identical_to_open_loop(
        self, trace, engine, calendar
    ):
        open_loop = simulate_traffic(trace, engine, calendar=calendar, **OPS)
        closed = run(trace, engine, calendar, ClientConfig.no_retry())
        assert np.array_equal(closed.status, open_loop.status)
        assert np.array_equal(closed.replica_of, open_loop.replica_of)
        assert closed.resilience.amplification == 1.0
        assert closed.batches == open_loop.batches

    def test_rerun_and_perturb_digests_identical(
        self, trace, engine, calendar, naive_run
    ):
        again = run(trace, engine, calendar, ClientConfig.naive())
        flipped = run(trace, engine, calendar, ClientConfig.naive(), perturb=True)
        assert again.digest() == naive_run.digest() == flipped.digest()

    def test_client_seed_reaches_the_digest(self, trace, engine, calendar, naive_run):
        other = run(trace, engine, calendar, ClientConfig.naive(seed=99))
        assert other.digest() != naive_run.digest()


class TestClosedLoopBehaviour:
    def test_outage_losses_get_retried_and_served(self, trace, engine, calendar):
        """The point of the loop: requests the outage failed come back
        and complete — some request needs >1 attempts and still SERVES."""
        open_loop = simulate_traffic(trace, engine, calendar=calendar, **OPS)
        closed = run(trace, engine, calendar, ClientConfig.naive())
        out = closed.resilience
        assert out.retries > 0
        retried_and_served = (out.attempts > 1) & (closed.status == SERVED)
        assert retried_and_served.any()
        assert closed.served > open_loop.served

    def test_attempts_total_consistency(self, naive_run):
        out = naive_run.resilience
        assert out.attempts_total == naive_run.offered + out.retries
        assert naive_run.attempts_total == out.attempts_total

    def test_budget_caps_amplification(self, guarded_run):
        fill = ClientConfig.budgeted().budget.fill_per_request
        assert guarded_run.resilience.amplification <= 1.0 + fill + 1e-9

    def test_breaker_sheds_during_the_storm(self, guarded_run):
        out = guarded_run.resilience
        assert out.breaker_opens >= 1
        assert out.shed_breaker > 0
        assert out.shed_tier > 0
        # counters book *attempts*; the status array books final request
        # outcomes, and a shed attempt retried to success leaves no SHED
        assert guarded_run.shed <= out.shed_breaker + out.shed_tier

    def test_brownout_marks_served_requests_only(self, trace, engine, calendar):
        result = run(
            trace, engine, calendar, ClientConfig.naive(),
            shedding=SheddingConfig(brownout_depth_fraction=0.1),
        )
        out = result.resilience
        assert out.brownout_served > 0
        assert (result.status[out.brownout] == SERVED).all()

    def test_depth_samples_cover_every_control_tick(self, naive_run):
        samples = naive_run.resilience.depth_samples
        interval = OPS["autoscaler"].control_interval_s
        # the loop ends once the last attempt terminates, so the final
        # few ticks of the horizon may never fire
        assert len(samples) >= TRAFFIC.duration_s / interval - 4
        assert (np.diff(samples[:, 0]) > 0).all()


class TestRetryBurstEdges:
    """A retry's burst membership is looked up by its instant over the
    union of the windows, left-closed and right-open — the same rule the
    index marking applies to first attempts.

    One request arrives inside a first window, errors, and retries once
    after a jitter-free backoff.  Every instant is a binary fraction of
    an hour, so the retry lands exactly on a window edge in seconds."""

    UNIT_H = 2.0 ** -10
    POLICY = RetryPolicy(max_attempts=2, base_backoff_hours=UNIT_H, jitter=0.0)

    def retry(self, engine, bursts_h):
        arrival_s = 2 * self.UNIT_H * 3600.0
        retry_s = arrival_s + self.POLICY.backoff_seconds(1)
        assert retry_s == 3 * self.UNIT_H * 3600.0  # the edge the windows use
        trace = RequestTrace(
            config=TrafficConfig(seed=0, pattern="poisson", duration_hours=0.01),
            arrivals_s=np.array([arrival_s]),
        )
        calendar = FaultCalendar(
            config=FaultPlanConfig(seed=0, sites=(SERVING_SITE,)),
            horizon_hours=0.01,
            bursts=tuple(ApiErrorBurst(SERVING_SITE, s, e) for s, e in bursts_h),
            outages=(),
        )
        model = plan_resilience(trace, ClientConfig(retry=self.POLICY))
        result = simulate_traffic(trace, engine, calendar=calendar, resilience=model, **OPS)
        assert result.resilience.attempts[0] == 2  # the first attempt errored
        return result.status[0]

    def test_retry_at_a_window_start_errors(self, engine):
        u = self.UNIT_H
        assert self.retry(engine, [(u, 2.5 * u), (3 * u, 4 * u)]) == ERROR

    def test_retry_at_a_window_end_is_served(self, engine):
        u = self.UNIT_H
        assert self.retry(engine, [(u, 3 * u)]) == SERVED

    def test_retry_at_the_shared_edge_of_touching_windows_errors(self, engine):
        u = self.UNIT_H
        assert self.retry(engine, [(u, 3 * u), (3 * u, 4 * u)]) == ERROR
