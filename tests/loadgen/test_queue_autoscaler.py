"""The front door and the fleet: admission policies and span hygiene."""

import numpy as np
import pytest

from repro.common.errors import InvalidStateError, ValidationError
from repro.loadgen import (
    DROPPED,
    ERROR,
    REJECTED,
    SERVED,
    AdmissionConfig,
    AutoscalerConfig,
    ReplicaSet,
    RequestQueue,
)
from repro.serving import BatchingConfig


def make_queue(arrivals, *, capacity=4, deadline_ms=1000.0, max_batch=8, delay_ms=5.0):
    arrivals = np.asarray(arrivals, dtype=float)
    status = np.full(len(arrivals), SERVED, dtype=np.int8)
    queue = RequestQueue(
        AdmissionConfig(queue_capacity=capacity, deadline_ms=deadline_ms),
        BatchingConfig(max_batch=max_batch, max_queue_delay_ms=delay_ms),
        arrivals,
        status,
    )
    return queue, status


class TestAdmission:
    def test_rejects_when_full(self):
        queue, status = make_queue(np.zeros(6), capacity=4)
        admitted = [queue.offer(i, in_burst=False) for i in range(6)]
        assert admitted == [True] * 4 + [False] * 2
        assert list(status) == [SERVED] * 4 + [REJECTED] * 2
        assert queue.max_depth == 4

    def test_burst_window_errors_before_admission(self):
        queue, status = make_queue(np.zeros(2), capacity=4)
        assert not queue.offer(0, in_burst=True)
        assert status[0] == ERROR
        assert queue.depth == 0  # errored requests never occupy the queue

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValidationError):
            AdmissionConfig(queue_capacity=0)


class TestDeadlineDrops:
    def test_expire_drops_only_over_deadline_heads(self):
        queue, status = make_queue([0.0, 0.5, 2.9], deadline_ms=1000.0, capacity=8)
        for i in range(3):
            queue.offer(i, in_burst=False)
        # service starting at t=3.0: waits are 3.0, 2.5, 0.1 seconds
        assert queue.expire(3.0) == [0, 1]
        assert list(status[:2]) == [DROPPED, DROPPED]
        assert queue.depth == 1

    def test_expire_noop_within_deadline(self):
        queue, _ = make_queue([0.0, 0.1], deadline_ms=1000.0)
        queue.offer(0, in_burst=False)
        queue.offer(1, in_burst=False)
        assert queue.expire(0.5) == []
        assert queue.depth == 2


class TestTakeBatch:
    def test_batch_capped_at_max_batch(self):
        queue, _ = make_queue(np.zeros(5), capacity=8, max_batch=2)
        for i in range(5):
            queue.offer(i, in_burst=False)
        assert queue.take_batch(0.0) == [0, 1]
        assert queue.take_batch(0.0) == [2, 3]
        assert queue.take_batch(0.0) == [4]

    def test_follower_outside_window_left_queued(self):
        queue, _ = make_queue([0.0, 10.0], capacity=8, delay_ms=5.0)
        queue.offer(0, in_burst=False)
        queue.offer(1, in_burst=False)
        assert queue.take_batch(0.0) == [0]
        assert queue.depth == 1


class TestReplicaSpans:
    def test_terminate_closes_span_exactly_once(self):
        fleet = ReplicaSet(AutoscalerConfig(min_replicas=1))
        fleet.terminate(0, 3600.0, "drain")
        assert fleet.replicas[0].terminated_at == 3600.0
        with pytest.raises(InvalidStateError):
            fleet.terminate(0, 7200.0, "drain")

    def test_strike_returns_in_flight_and_kills_everyone(self):
        fleet = ReplicaSet(AutoscalerConfig(min_replicas=2))
        fleet.dispatch(0, (7, 8), busy_until_s=50.0)
        lost = fleet.strike(10.0)
        assert lost == [7, 8]  # replica 1 was idle: nothing in flight there
        assert fleet.live() == []
        assert fleet.telemetry.outage_kills == 2

    def test_drain_closes_all_spans_after_last_batch(self):
        fleet = ReplicaSet(AutoscalerConfig(min_replicas=2))
        fleet.dispatch(0, (1,), busy_until_s=100.0)
        fleet.drain(10.0)
        assert fleet.open_spans == 0
        assert fleet.replicas[0].terminated_at == 100.0  # billed to batch end
        assert fleet.replicas[1].terminated_at == 10.0


class TestReactiveScaling:
    def test_scale_up_pays_provisioning_lag(self):
        cfg = AutoscalerConfig(
            min_replicas=1, max_replicas=4, provisioning_lag_s=60.0,
            target_queue_per_replica=10.0,
        )
        fleet = ReplicaSet(cfg)
        fleet.tick(15.0, queue_depth=35)
        assert fleet.open_spans == 4  # ceil(35/10) = 4
        new = fleet.replicas[-1]
        assert new.ready_at == 75.0
        assert fleet.telemetry.scale_ups == 3

    def test_outage_clamp_delays_readiness(self):
        cfg = AutoscalerConfig(min_replicas=1, max_replicas=2, provisioning_lag_s=60.0,
                               target_queue_per_replica=1.0)
        fleet = ReplicaSet(cfg)
        fleet.tick(15.0, queue_depth=5, not_ready_before_s=500.0)
        assert fleet.replicas[-1].ready_at == 500.0

    def test_scale_down_waits_for_idle_streak_and_respects_floor(self):
        cfg = AutoscalerConfig(
            min_replicas=1, max_replicas=4, scale_down_idle_ticks=3,
            target_queue_per_replica=1.0, provisioning_lag_s=0.0,
        )
        fleet = ReplicaSet(cfg)
        fleet.tick(15.0, queue_depth=4)
        assert fleet.open_spans == 4
        for t in (30.0, 45.0):
            fleet.tick(t, queue_depth=0)
        assert fleet.open_spans == 4  # streak of 2 < 3: no retirement yet
        fleet.tick(60.0, queue_depth=0)
        assert fleet.open_spans == 3  # one per tick once the streak holds
        for t in (75.0, 90.0, 105.0, 120.0):
            fleet.tick(t, queue_depth=0)
        assert fleet.open_spans == 1  # never below min_replicas
        assert fleet.telemetry.scale_downs == 3

    def test_backlog_resets_idle_streak(self):
        cfg = AutoscalerConfig(
            min_replicas=1, max_replicas=2, scale_down_idle_ticks=2,
            target_queue_per_replica=1.0, provisioning_lag_s=0.0,
        )
        fleet = ReplicaSet(cfg)
        fleet.tick(15.0, queue_depth=2)
        fleet.tick(30.0, queue_depth=0)
        fleet.tick(45.0, queue_depth=1)  # backlog returns: streak resets
        fleet.tick(60.0, queue_depth=0)
        assert fleet.open_spans == 2

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValidationError):
            AutoscalerConfig(min_replicas=4, max_replicas=2)
        with pytest.raises(ValidationError):
            AutoscalerConfig(control_interval_s=0.0)
