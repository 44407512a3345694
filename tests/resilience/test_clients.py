"""The closed-loop client layer: plan-time draws, runtime decision ladder.

Everything random a client does is resolved by ``plan_resilience`` into
arrays on the model; the runtime is then a pure state machine the
simulation drives.  These tests pin the stream discipline (toggling a
server defense never moves a client's jitter), the retry decision ladder
(retryable → policy → budget), and the dispatch-time service factors
(brownout beats thrash).
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.common.retry import RetryPolicy
from repro.loadgen.arrivals import TrafficConfig, generate_trace
from repro.loadgen.queue import ERROR, REJECTED, SERVED
from repro.resilience.clients import (
    RETRYABLE,
    ClientConfig,
    RetryBudgetConfig,
    plan_resilience,
)
from repro.resilience.scenario import SERVING_BREAKER
from repro.resilience.shedding import CongestionConfig, SheddingConfig

CAPACITY = 64


@pytest.fixture(scope="module")
def trace():
    """~360 requests: big enough for tier shares, small enough to be free."""
    return generate_trace(
        TrafficConfig(seed=3, pattern="poisson", requests_per_day=864000.0,
                      duration_hours=0.01)
    )


def runtime_for(trace, client, **kwargs):
    return plan_resilience(trace, client, **kwargs).runtime(
        trace.arrivals_s, CAPACITY
    )


class TestConfigs:
    @pytest.mark.parametrize("kwargs", [
        {"capacity": 0.0},
        {"fill_per_request": -0.1},
        {"initial": -1.0},
        {"initial": 101.0},
    ])
    def test_budget_validation(self, kwargs):
        with pytest.raises(ValidationError):
            RetryBudgetConfig(**kwargs)

    def test_retry_on_must_be_retryable(self):
        with pytest.raises(ValidationError):
            ClientConfig(retry_on=(SERVED,))
        with pytest.raises(ValidationError):
            ClientConfig(retry_on=(99,))

    def test_canonical_clients(self):
        no = ClientConfig.no_retry()
        assert no.retry.max_attempts == 1 and no.retry_on == ()
        naive = ClientConfig.naive()
        assert naive.retry == RetryPolicy.storm_default() and naive.budget is None
        budgeted = ClientConfig.budgeted(fill_per_request=0.2)
        assert budgeted.budget is not None
        assert budgeted.budget.fill_per_request == 0.2

    def test_give_up_deadline_validated(self):
        with pytest.raises(ValidationError):
            ClientConfig(give_up_deadline_s=0.0)
        with pytest.raises(ValidationError):
            ClientConfig(give_up_deadline_s=-5.0)

    def test_adaptive_and_hedged_clients(self):
        adaptive = ClientConfig.adaptive(fill_per_request=0.2, give_up_deadline_s=5.0)
        assert adaptive.retry == RetryPolicy.client_default()
        assert adaptive.budget is not None and adaptive.budget.fill_per_request == 0.2
        assert adaptive.give_up_deadline_s == 5.0
        hedged = ClientConfig.hedged()
        assert hedged.retry == RetryPolicy.hedge_default()
        assert hedged.budget is not None
        assert hedged.give_up_deadline_s == 10.0


class TestPlan:
    def test_jitter_shape_covers_every_possible_retry(self, trace):
        model = plan_resilience(trace, ClientConfig.naive())
        assert model.jitter_u.shape == (len(trace), RetryPolicy.storm_default().max_retries)

    def test_no_retry_plans_no_jitter(self, trace):
        model = plan_resilience(trace, ClientConfig.no_retry())
        assert model.jitter_u.shape == (len(trace), 0)

    def test_tiers_default_to_critical_without_shedding(self, trace):
        model = plan_resilience(trace, ClientConfig.naive())
        assert (model.tier == 0).all()

    def test_tiers_follow_configured_shares(self, trace):
        shed = SheddingConfig()
        model = plan_resilience(trace, ClientConfig.naive(), shedding=shed)
        counts = np.bincount(model.tier, minlength=shed.tiers) / len(trace)
        assert np.allclose(counts, shed.tier_shares, atol=0.1)

    def test_shedding_toggle_never_moves_jitter(self, trace):
        """Independent spawned streams: adding a server defense must not
        perturb the client's retry schedule."""
        bare = plan_resilience(trace, ClientConfig.naive())
        defended = plan_resilience(
            trace, ClientConfig.naive(), shedding=SheddingConfig(),
            breaker=SERVING_BREAKER, congestion=CongestionConfig(),
        )
        assert np.array_equal(bare.jitter_u, defended.jitter_u)

    def test_seed_reproducible_and_distinguishing(self, trace):
        a = plan_resilience(trace, ClientConfig.naive(seed=5))
        b = plan_resilience(trace, ClientConfig.naive(seed=5))
        c = plan_resilience(trace, ClientConfig.naive(seed=6))
        assert np.array_equal(a.jitter_u, b.jitter_u)
        assert not np.array_equal(a.jitter_u, c.jitter_u)


class TestRetryLadder:
    def test_retryable_failure_schedules_planned_jitter(self, trace):
        rt = runtime_for(trace, ClientConfig.naive())
        rt.begin_attempt(0)
        now = float(trace.arrivals_s[0]) + 0.001
        due = rt.on_failure(0, now, REJECTED)
        policy = RetryPolicy.storm_default()
        u = float(rt.model.jitter_u[0, 0])
        assert due == pytest.approx(now + policy.backoff_seconds(1, u=u))
        assert rt.retries == 1

    def test_unlisted_outcome_is_terminal(self, trace):
        rt = runtime_for(trace, ClientConfig(retry_on=(REJECTED,)))
        rt.begin_attempt(0)
        assert rt.on_failure(0, 1.0, ERROR) is None
        assert rt.retries == 0

    def test_attempt_budget_exhausts(self, trace):
        client = ClientConfig(retry=RetryPolicy(max_attempts=2, jitter=0.0))
        rt = runtime_for(trace, client)
        rt.begin_attempt(0)
        assert rt.on_failure(0, 1.0, REJECTED) is not None
        rt.begin_attempt(0)
        assert rt.on_failure(0, 2.0, REJECTED) is None
        assert rt.retries_exhausted == 1

    def test_deadline_measured_from_first_arrival(self, trace):
        """The give-up clock runs from the request's original arrival,
        not the failing attempt (exact-boundary semantics of
        ``allows_retry`` are pinned in ``tests/common/test_retry.py``)."""
        deadline_h = 1.0 / 3600.0  # one second
        client = ClientConfig(
            retry=RetryPolicy(max_attempts=9, jitter=0.0, deadline_hours=deadline_h)
        )
        rt = runtime_for(trace, client)
        arrival = float(trace.arrivals_s[0])
        rt.begin_attempt(0)
        assert rt.on_failure(0, arrival + 0.5, REJECTED) is not None
        rt.begin_attempt(0)
        assert rt.on_failure(0, arrival + 2.0, REJECTED) is None
        assert rt.retries_exhausted == 1

    def test_token_bucket_denies_when_empty(self, trace):
        client = ClientConfig(
            retry=RetryPolicy.storm_default(),
            budget=RetryBudgetConfig(capacity=1.0, fill_per_request=0.0, initial=1.0),
        )
        rt = runtime_for(trace, client)
        rt.begin_attempt(0)
        assert rt.on_failure(0, 1.0, REJECTED) is not None  # spends the token
        rt.begin_attempt(1)
        assert rt.on_failure(1, 1.0, REJECTED) is None
        assert rt.retries_denied_budget == 1

    def test_first_attempts_earn_tokens_capped_at_capacity(self, trace):
        client = ClientConfig(
            retry=RetryPolicy.storm_default(),
            budget=RetryBudgetConfig(capacity=1.5, fill_per_request=1.0, initial=0.0),
        )
        rt = runtime_for(trace, client)
        rt.begin_attempt(0)
        rt.begin_attempt(1)
        rt.begin_attempt(1)  # a retry attempt earns nothing
        assert rt.finish().tokens_left == 1.5


class TestAdaptiveGiveUp:
    """Deadline-aware give-up: a retry whose re-offer instant lands at or
    past the deadline (measured from first arrival) is declined *before*
    it spends a budget token."""

    def client(self, *, backoff_s, give_up_s):
        return ClientConfig(
            retry=RetryPolicy(
                max_attempts=9,
                base_backoff_hours=backoff_s / 3600.0,
                multiplier=1.0,
                max_backoff_hours=backoff_s / 3600.0,
                jitter=0.0,
            ),
            budget=RetryBudgetConfig(capacity=1.0, fill_per_request=0.0, initial=1.0),
            give_up_deadline_s=give_up_s,
        )

    def test_doomed_retry_declined_without_spending_a_token(self, trace):
        rt = runtime_for(trace, self.client(backoff_s=5.0, give_up_s=2.0))
        arrival = float(trace.arrivals_s[0])
        rt.begin_attempt(0)
        assert rt.on_failure(0, arrival + 0.1, REJECTED) is None
        out = rt.finish()
        assert out.retries_declined_deadline == 1
        assert out.retries_denied_budget == 0
        assert out.tokens_left == 1.0  # declined before the bucket
        assert rt.retries == 0

    def test_viable_retry_still_spends_the_token(self, trace):
        rt = runtime_for(trace, self.client(backoff_s=5.0, give_up_s=30.0))
        arrival = float(trace.arrivals_s[0])
        rt.begin_attempt(0)
        due = rt.on_failure(0, arrival + 0.1, REJECTED)
        assert due == pytest.approx(arrival + 0.1 + 5.0)
        assert rt.finish().tokens_left == 0.0

    def test_deadline_boundary_is_inclusive(self, trace):
        rt = runtime_for(trace, self.client(backoff_s=2.0, give_up_s=2.0))
        rt.begin_attempt(0)
        assert rt.on_failure(0, float(trace.arrivals_s[0]), REJECTED) is None
        assert rt.retries_declined_deadline == 1

    def test_deadline_runs_from_first_arrival_not_the_attempt(self, trace):
        """The same backoff is viable early and doomed late: time already
        burned against the deadline counts."""
        arrival = float(trace.arrivals_s[0])
        early = runtime_for(trace, self.client(backoff_s=1.0, give_up_s=10.0))
        early.begin_attempt(0)
        assert early.on_failure(0, arrival + 1.0, REJECTED) is not None
        late = runtime_for(trace, self.client(backoff_s=1.0, give_up_s=10.0))
        late.begin_attempt(0)
        assert late.on_failure(0, arrival + 9.5, REJECTED) is None
        assert late.retries_declined_deadline == 1


class TestHedgedClient:
    def test_first_reoffer_is_the_50ms_hedge(self):
        policy = RetryPolicy.hedge_default()
        assert policy.backoff_seconds(1) == pytest.approx(0.05)
        assert policy.backoff_seconds(2) == pytest.approx(1.0)
        assert policy.backoff_seconds(3) == pytest.approx(10.0)  # capped

    def test_every_hedge_buys_a_token(self, trace):
        """The amplification theorem survives hedging because the hedge
        goes through the same bucket as any retry."""
        client = ClientConfig(
            retry=RetryPolicy.hedge_default(),
            budget=RetryBudgetConfig(capacity=1.0, fill_per_request=0.0, initial=1.0),
            give_up_deadline_s=60.0,
        )
        rt = runtime_for(trace, client)
        rt.begin_attempt(0)
        assert rt.on_failure(0, float(trace.arrivals_s[0]), REJECTED) is not None
        rt.begin_attempt(1)
        assert rt.on_failure(1, float(trace.arrivals_s[1]), REJECTED) is None
        assert rt.retries_denied_budget == 1


class TestFrontDoorAndDispatch:
    def test_tier_shedding_uses_planned_tier(self, trace):
        shed = SheddingConfig(tier_depth_fractions=(1.0, 0.5, 0.25))
        rt = runtime_for(trace, ClientConfig.naive(), shedding=shed)
        tiers = rt.model.tier
        lo = int(np.flatnonzero(tiers == 2)[0])
        hi = int(np.flatnonzero(tiers == 0)[0])
        depth = shed.depth_limits(CAPACITY)[2]  # at the tier-2 threshold
        assert not rt.admit(lo, 1.0, depth)
        assert rt.admit(hi, 1.0, depth)
        assert rt.shed_tier == 1

    def test_open_breaker_sheds_before_tiers(self, trace):
        cfg = replace(SERVING_BREAKER, min_volume=4)
        rt = runtime_for(trace, ClientConfig.naive(), breaker=cfg)
        for idx in range(4):
            rt.begin_attempt(idx)
            rt.on_failure(idx, 1.0, REJECTED)
        assert not rt.admit(0, 1.0, 0)
        assert rt.shed_breaker == 1

    def test_service_factor_brownout_beats_thrash(self, trace):
        shed = SheddingConfig(brownout_depth_fraction=0.25, brownout_speedup=0.5)
        congestion = CongestionConfig(thrash_depth_fraction=0.5, slowdown=2.0)
        rt = runtime_for(
            trace, ClientConfig.naive(), shedding=shed, congestion=congestion
        )
        assert rt.service_factor(0) == 1.0
        assert rt.service_factor(shed.brownout_depth(CAPACITY)) == 0.5
        # past the thrash depth the brownout server is *still* degraded-fast:
        # shedding quality is exactly what keeps it out of the thrash regime
        assert rt.service_factor(congestion.thrash_depth(CAPACITY)) == 0.5

    def test_thrash_without_brownout(self, trace):
        congestion = CongestionConfig(thrash_depth_fraction=0.5, slowdown=2.0)
        rt = runtime_for(trace, ClientConfig.naive(), congestion=congestion)
        depth = congestion.thrash_depth(CAPACITY)
        assert rt.service_factor(depth - 1) == 1.0
        assert rt.service_factor(depth) == 2.0

    def test_congestion_validation(self):
        with pytest.raises(ValidationError):
            CongestionConfig(thrash_depth_fraction=0.0)
        with pytest.raises(ValidationError):
            CongestionConfig(slowdown=0.9)


class TestOutcome:
    def test_amplification_is_mean_attempts(self, trace):
        rt = runtime_for(trace, ClientConfig.naive())
        for idx in range(len(trace)):
            rt.begin_attempt(idx)
        rt.begin_attempt(0)
        out = rt.finish()
        assert out.attempts_total == len(trace) + 1
        assert out.amplification == pytest.approx(1.0 + 1.0 / len(trace))

    def test_digest_update_sees_the_counters(self, trace):
        def digest(rt):
            h = hashlib.sha256()
            rt.finish().digest_update(h)
            return h.hexdigest()
        a = runtime_for(trace, ClientConfig.naive())
        b = runtime_for(trace, ClientConfig.naive())
        b.begin_attempt(0)
        assert digest(a) != digest(b)

    def test_retryable_covers_every_loss_class(self):
        assert SERVED not in RETRYABLE
        assert len(set(RETRYABLE)) == 5
