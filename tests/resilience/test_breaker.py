"""The shared breaker state machines, driven call-by-call.

`repro.common.breaker` hosts both breaker species; these tests pin the
state transitions the serving front door and the parallel engine rely
on: trip thresholds, cooldown → half-open probing, re-trip on a failed
probe, and the outcome→window mapping, through the closed loop's
runtime, that keeps a breaker from latching on its own sheds.
"""

import numpy as np
import pytest

from repro.common.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerConfig,
    CircuitBreaker,
    RetryBreaker,
)
from repro.common.errors import ValidationError
from repro.common.retry import RetryPolicy
from repro.loadgen.queue import DROPPED, ERROR, FAILED, REJECTED, SHED
from repro.resilience.clients import ClientConfig, ClosedLoopRuntime, ResilienceModel
from repro.resilience.scenario import SERVING_BREAKER

#: A small, fast-tripping policy for unit drives.
CFG = BreakerConfig(
    window_s=10.0, error_threshold=0.5, min_volume=4, cooldown_s=5.0, half_open_probes=2
)


def tripped(config: BreakerConfig = CFG) -> CircuitBreaker:
    """A breaker driven to OPEN at t=1 by a burst of failures."""
    b = CircuitBreaker(config)
    for _ in range(config.min_volume):
        b.record(1.0, False)
    assert b.state == OPEN
    return b


class TestBreakerConfig:
    @pytest.mark.parametrize("kwargs", [
        {"window_s": 0.0},
        {"cooldown_s": -1.0},
        {"error_threshold": 0.0},
        {"error_threshold": 1.5},
        {"min_volume": 0},
        {"half_open_probes": 0},
    ])
    def test_bad_fields_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            BreakerConfig(**kwargs)

    def test_serving_defaults_react_within_a_control_interval(self):
        cfg = SERVING_BREAKER
        assert cfg.window_s <= 15.0 and cfg.cooldown_s <= 15.0


class TestClosedState:
    def test_starts_closed_and_admits(self):
        b = CircuitBreaker(CFG)
        assert b.state == CLOSED
        assert b.admit(0.0)
        assert b.error_rate == 0.0

    def test_no_trip_below_min_volume(self):
        """100% failures, but not enough evidence yet."""
        b = CircuitBreaker(CFG)
        for _ in range(CFG.min_volume - 1):
            b.record(1.0, False)
        assert b.state == CLOSED

    def test_no_trip_below_error_threshold(self):
        b = CircuitBreaker(CFG)
        for t in range(20):
            # errors at t = 2, 5, 8, ...: every prefix stays under 0.5
            b.record(float(t) / 10.0, t % 3 != 2)
        assert b.state == CLOSED

    def test_trips_at_threshold_and_volume(self):
        b = tripped()
        assert b.telemetry.opens == 1
        assert b.error_rate == 0.0  # window reset on trip

    def test_counted_records_trip_like_singles(self):
        """record(count=n) is the batched form of n identical records."""
        b = CircuitBreaker(CFG)
        b.record(1.0, False, count=CFG.min_volume)
        assert b.state == OPEN

    def test_window_prunes_stale_outcomes(self):
        """Failures older than window_s stop counting against the rate."""
        b = CircuitBreaker(CFG)
        b.record(0.0, False)
        b.record(0.0, False)
        b.record(CFG.window_s + 1.0, True)  # prunes the t=0 failures
        assert b.error_rate == 0.0
        assert b.state == CLOSED

    def test_record_rejects_nonpositive_count(self):
        with pytest.raises(ValidationError):
            CircuitBreaker(CFG).record(0.0, True, count=0)


class TestOpenState:
    def test_sheds_during_cooldown(self):
        b = tripped()
        assert not b.admit(1.0 + CFG.cooldown_s - 0.1)
        assert b.telemetry.sheds == 1

    def test_ignores_stale_outcomes_while_open(self):
        """Work admitted before the trip finishing later must not move
        the machine (its evidence predates the verdict)."""
        b = tripped()
        b.record(2.0, True, count=100)
        assert b.state == OPEN

    def test_half_opens_after_cooldown(self):
        b = tripped()
        assert b.admit(1.0 + CFG.cooldown_s)
        assert b.state == HALF_OPEN
        assert b.telemetry.half_opens == 1


class TestHalfOpenState:
    def half_open(self) -> CircuitBreaker:
        b = tripped()
        assert b.admit(1.0 + CFG.cooldown_s)
        return b

    def test_admits_only_probe_quota(self):
        b = self.half_open()  # the transition consumed probe slot 1
        assert b.admit(7.0)   # slot 2
        assert not b.admit(7.0)  # quota spent: shed
        assert b.telemetry.sheds == 1

    def test_probe_failure_retrips(self):
        b = self.half_open()
        b.record(7.0, False)
        assert b.state == OPEN
        assert b.telemetry.opens == 2

    def test_probe_successes_close(self):
        b = self.half_open()  # the transition admitted probe 1
        assert b.admit(7.0)   # probe 2
        for _ in range(CFG.half_open_probes):
            b.record(7.0, True)
        assert b.state == CLOSED
        assert b.telemetry.closes == 1
        assert b.error_rate == 0.0  # fresh window after closing

    def test_stale_batched_success_cannot_close(self):
        """A served batch can carry work admitted before the trip; only
        the outstanding probes' worth of it is probe evidence."""
        b = self.half_open()            # one probe outstanding
        b.record(7.0, True, count=100)  # 99 stale successes ride along
        assert b.state == HALF_OPEN     # 1 of 2 verdicts in — not closed
        assert b.admit(7.5)             # the second probe slot is real
        b.record(8.0, True)
        assert b.state == CLOSED
        assert b.telemetry.closes == 1

    def test_zero_outstanding_batch_moves_nothing(self):
        """With every admitted probe already resolved, a stale success
        batch is no evidence at all: the close must wait for a probe."""
        b = self.half_open()
        b.record(7.0, True)            # probe 1's verdict: 1 of 2
        b.record(7.0, True, count=50)  # fully stale: zero outstanding
        assert b.state == HALF_OPEN
        assert b.admit(7.5)
        b.record(8.0, True)            # the real second verdict closes
        assert b.state == CLOSED
        assert b.telemetry.closes == 1

    def test_probe_timeout_reopens_at_window_boundary(self):
        """Quota spent and unresolved for a full window: the next offer
        re-opens the breaker instead of shedding from limbo forever.
        Exactly at the boundary counts as expired (>=)."""
        b = self.half_open()   # half-opened at t = 6.0
        assert b.admit(6.0)    # probe 2: quota spent, verdicts pending
        assert not b.admit(6.0 + CFG.window_s)  # boundary: re-open + shed
        assert b.state == OPEN
        assert b.telemetry.opens == 2
        # the re-open restarted the cooldown, so it half-opens again
        assert b.admit(6.0 + CFG.window_s + CFG.cooldown_s)
        assert b.state == HALF_OPEN

    def test_probe_timeout_not_before_window(self):
        """Inside the window the verdicts may still arrive: shed, wait."""
        b = self.half_open()
        assert b.admit(6.0)
        assert not b.admit(6.0 + CFG.window_s - 0.01)
        assert b.state == HALF_OPEN
        assert b.telemetry.opens == 1

    def test_full_cycle_is_replayable(self):
        """Same call sequence, same states: the machine is clock-free."""
        def drive(b):
            states = []
            for _ in range(CFG.min_volume):
                b.record(1.0, False)
            states.append(b.state)
            b.admit(1.0 + CFG.cooldown_s)
            states.append(b.state)
            for _ in range(CFG.half_open_probes - 1):
                b.admit(7.0)
            for _ in range(CFG.half_open_probes):
                b.record(7.0, True)
            states.append(b.state)
            return states
        assert drive(CircuitBreaker(CFG)) == drive(CircuitBreaker(CFG)) == [
            OPEN, HALF_OPEN, CLOSED,
        ]


class TestFrontDoor:
    """The closed loop's runtime feeds its breaker: served batches as
    successes, each failed attempt but a shed as one failure."""

    @staticmethod
    def front_door(n: int) -> ClosedLoopRuntime:
        """A runtime behind breaker ``CFG`` for ``n`` never-retrying requests."""
        model = ResilienceModel(
            client=ClientConfig.no_retry(), shedding=None, breaker=CFG, congestion=None,
            jitter_u=np.zeros((n, 0)), tier=np.zeros(n, dtype=np.int8),
        )
        return model.runtime(np.zeros(n), queue_capacity=64)

    @staticmethod
    def fail(door: ClosedLoopRuntime, code: int, n: int) -> None:
        """Requests 0..n-1 each make one attempt that ends as ``code``."""
        for idx in range(n):
            door.begin_attempt(idx)
            assert door.on_failure(idx, 1.0, code) is None

    def test_sheds_never_feed_the_window(self):
        """A breaker fed its own sheds would latch open forever."""
        door = self.front_door(10 * CFG.min_volume)
        self.fail(door, SHED, 10 * CFG.min_volume)
        assert door.finish().breaker_state == CLOSED
        assert door.admit(0, 1.0, 0)

    @pytest.mark.parametrize("code", [REJECTED, DROPPED, ERROR, FAILED])
    def test_server_failures_trip(self, code):
        door = self.front_door(CFG.min_volume)
        self.fail(door, code, CFG.min_volume)
        outcome = door.finish()
        assert outcome.breaker_state == OPEN
        assert outcome.breaker_opens == 1

    def test_served_counts_as_success(self):
        door = self.front_door(CFG.min_volume)
        door.on_served(1.0, 100)
        self.fail(door, REJECTED, CFG.min_volume)
        assert door.finish().breaker_state == CLOSED  # 4/104 errors, under threshold


class TestRetryBreaker:
    POLICY = RetryPolicy(max_attempts=3, base_backoff_hours=0.0, max_backoff_hours=0.0)

    def test_counts_failures_per_key(self):
        b = RetryBreaker(self.POLICY)
        assert b.record_failure("a") == 1
        assert b.record_failure("a") == 2
        assert b.failures("a") == 2
        assert b.failures("unseen") == 0

    def test_exhausted_matches_attempt_budget(self):
        """A key trips exactly when its failure count reaches max_attempts
        — the engine's historical inline rule, now behind the shared
        breaker (first execution is attempt 1)."""
        b = RetryBreaker(self.POLICY)
        for key, n in (("one", 1), ("two", 2), ("spent", 3)):
            for _ in range(n):
                b.record_failure(key)
        keys = ["one", "two", "spent", "unseen"]
        assert b.exhausted(keys) == {"spent": 3}
        # oracle: the pre-extraction inline predicate
        inline = {k: b.counts[k] for k in keys if b.counts.get(k, 0) >= self.POLICY.max_attempts}
        assert b.exhausted(keys) == inline

    def test_no_retry_policy_trips_on_first_failure(self):
        b = RetryBreaker(RetryPolicy(max_attempts=1))
        b.record_failure("a")
        assert b.exhausted(["a"]) == {"a": 1}
        assert b.exhausted(["never-seen"]) == {}
