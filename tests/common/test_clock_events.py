"""Tests for the simulation clock and event loop."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import SimClock, EventLoop, ValidationError


class TestSimClock:
    def test_starts_at_zero_by_default(self):
        assert SimClock().now == 0.0

    def test_starts_at_given_time(self):
        assert SimClock(5.5).now == 5.5

    def test_negative_start_rejected(self):
        with pytest.raises(ValidationError):
            SimClock(-1.0)

    def test_advance_accumulates(self):
        c = SimClock()
        c.advance(1.5)
        c.advance(2.5)
        assert c.now == 4.0

    def test_advance_negative_rejected(self):
        c = SimClock()
        with pytest.raises(ValidationError):
            c.advance(-0.1)

    def test_advance_to_moves_forward(self):
        c = SimClock(1.0)
        c.advance_to(3.0)
        assert c.now == 3.0

    def test_advance_to_past_rejected(self):
        c = SimClock(5.0)
        with pytest.raises(ValidationError):
            c.advance_to(4.0)

    def test_advance_to_now_is_noop(self):
        c = SimClock(2.0)
        c.advance_to(2.0)
        assert c.now == 2.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=20))
    def test_clock_is_monotone(self, deltas):
        c = SimClock()
        prev = c.now
        for d in deltas:
            c.advance(d)
            assert c.now >= prev
            prev = c.now


class TestEventLoop:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(2.0, lambda: order.append("b"))
        loop.schedule(1.0, lambda: order.append("a"))
        loop.schedule(3.0, lambda: order.append("c"))
        loop.run()
        assert order == ["a", "b", "c"]

    def test_same_time_ties_broken_by_priority_then_seq(self):
        loop = EventLoop()
        order = []
        loop.schedule(1.0, lambda: order.append("low-prio"), priority=5)
        loop.schedule(1.0, lambda: order.append("first"), priority=0)
        loop.schedule(1.0, lambda: order.append("second"), priority=0)
        loop.run()
        assert order == ["first", "second", "low-prio"]

    def test_many_equal_timestamp_events_pop_in_insertion_order(self):
        """The seq tie-break is a total order: 50 events at the same instant
        (same priority) fire exactly in the order they were scheduled."""
        loop = EventLoop()
        order = []
        for i in range(50):
            loop.schedule(1.0, lambda i=i: order.append(i))
        loop.run()
        assert order == list(range(50))

    def test_equal_time_events_from_callbacks_fire_after_earlier_peers(self):
        """An event scheduled *at the current time from inside a callback*
        gets a later seq, so it fires after the same-time events that were
        already queued — replay order never depends on heap internals."""
        loop = EventLoop()
        order = []

        def first():
            order.append("first")
            loop.schedule(1.0, lambda: order.append("nested"))

        loop.schedule(1.0, first)
        loop.schedule(1.0, lambda: order.append("second"))
        loop.run()
        assert order == ["first", "second", "nested"]

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0, max_value=10), st.integers(-3, 3)),
            min_size=1,
            max_size=60,
        )
    )
    def test_firing_order_is_stable_sort_of_schedule_order(self, schedules):
        """Across arbitrary (time, priority) mixes, firing order equals a
        *stable* sort of insertion order — i.e. equal (time, priority) keys
        preserve insertion order."""
        loop = EventLoop()
        fired = []
        for idx, (t, prio) in enumerate(schedules):
            loop.schedule(t, lambda idx=idx: fired.append(idx), priority=prio)
        loop.run()
        expected = [
            idx
            for idx, _ in sorted(
                enumerate(schedules), key=lambda pair: (pair[1][0], pair[1][1], pair[0])
            )
        ]
        assert fired == expected

    def test_clock_advances_to_event_time(self):
        loop = EventLoop()
        seen = []
        loop.schedule(4.5, lambda: seen.append(loop.clock.now))
        loop.run()
        assert seen == [4.5]

    def test_schedule_in_past_rejected(self):
        loop = EventLoop()
        loop.clock.advance(10.0)
        with pytest.raises(ValidationError):
            loop.schedule(5.0, lambda: None)

    def test_schedule_in_relative(self):
        loop = EventLoop()
        loop.clock.advance(2.0)
        fired = []
        loop.schedule_in(1.5, lambda: fired.append(loop.clock.now))
        loop.run()
        assert fired == [3.5]

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(ValidationError):
            loop.schedule_in(-1.0, lambda: None)

    def test_run_until_stops_at_boundary(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda: fired.append(1))
        loop.schedule(2.0, lambda: fired.append(2))
        loop.schedule(5.0, lambda: fired.append(5))
        n = loop.run_until(3.0)
        assert n == 2
        assert fired == [1, 2]
        assert loop.clock.now == 3.0
        assert loop.pending == 1

    def test_run_until_advances_clock_even_without_events(self):
        loop = EventLoop()
        loop.run_until(7.0)
        assert loop.clock.now == 7.0

    def test_event_at_boundary_fires(self):
        loop = EventLoop()
        fired = []
        loop.schedule(3.0, lambda: fired.append(3))
        loop.run_until(3.0)
        assert fired == [3]

    def test_cancel_prevents_firing(self):
        loop = EventLoop()
        fired = []
        ev = loop.schedule(1.0, lambda: fired.append(1))
        loop.schedule(2.0, lambda: fired.append(2))
        loop.cancel(ev)
        loop.run()
        assert fired == [2]

    def test_cancel_after_firing_is_a_no_op(self):
        """A fired event leaves no tombstone: ``pending`` does not go
        negative, and ``cancelled`` counts only the queued event, once."""
        loop = EventLoop()
        fired = loop.schedule(1.0, lambda: None)
        queued = loop.schedule(2.0, lambda: None)
        loop.schedule(3.0, lambda: None)
        loop.run_until(1.5)
        loop.cancel(fired)
        loop.cancel(queued)
        loop.cancel(queued)
        assert loop.pending == 1
        loop.run()
        assert loop.fired == 2
        assert loop.pending == 0
        assert loop.telemetry()["cancelled"] == 1

    def test_callbacks_can_schedule_more_events(self):
        loop = EventLoop()
        fired = []

        def cascade():
            fired.append(loop.clock.now)
            if len(fired) < 3:
                loop.schedule_in(1.0, cascade)

        loop.schedule(1.0, cascade)
        loop.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_max_events_bound(self):
        loop = EventLoop()
        for i in range(10):
            loop.schedule(float(i + 1), lambda: None)
        assert loop.run(max_events=4) == 4
        assert loop.pending == 6

    def test_fired_counter(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.schedule(2.0, lambda: None)
        loop.run()
        assert loop.fired == 2

    @given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=30))
    def test_arbitrary_schedules_fire_sorted(self, times):
        loop = EventLoop()
        seen = []
        for t in times:
            loop.schedule(t, lambda t=t: seen.append(t))
        loop.run()
        assert seen == sorted(times)


class _PlainSortLoop:
    """The loop's contract without a heap or tombstones: the next event
    is ``min`` of the live ``(time, priority, seq, actions)`` entries, and
    a cancel removes a live entry or does nothing."""

    def __init__(self) -> None:
        self.now = 0.0
        self.live: list[tuple] = []
        self.seq = self.fired = self.cancelled = self.peak = 0

    def schedule(self, time: float, priority: int, actions: tuple) -> None:
        self.seq += 1
        self.live.append((time, priority, self.seq, actions))
        self.peak = max(self.peak, len(self.live))

    def cancel(self, seq: int) -> None:
        for entry in self.live:
            if entry[2] == seq:
                self.live.remove(entry)
                self.cancelled += 1
                return

    def run(self, fire, horizon: float = float("inf")) -> None:
        while self.live and min(self.live)[0] <= horizon:
            entry = min(self.live)
            self.live.remove(entry)
            self.now = entry[0]
            self.fired += 1
            fire(entry)

    def run_until(self, horizon: float, fire) -> None:
        self.run(fire, horizon)
        self.now = max(self.now, horizon)

    def telemetry(self) -> dict[str, float]:
        return {
            "scheduled": float(self.seq),
            "fired": float(self.fired),
            "cancelled": float(self.cancelled),
            "pending": float(len(self.live)),
            "peak_pending": float(self.peak),
            "sim_time": self.now,
        }


#: What a callback does when it fires: schedule a child ``delay`` hours
#: from now (0 = at the current instant) at a priority, or cancel the
#: ``k``-th event scheduled so far (pending, fired, cancelled or itself).
_actions = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.sampled_from((0.0, 0.0, 0.5, 1.0)), st.integers(-1, 1)),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
    ),
    max_size=3,
).map(tuple)
_initial = st.lists(
    st.tuples(st.sampled_from((0.0, 1.0, 1.0, 2.0, 3.5)), st.integers(-1, 1), _actions),
    min_size=1,
    max_size=25,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    initial=_initial,
    horizon=st.sampled_from((0.0, 1.0, 2.0)),
    cancels=st.lists(st.integers(0, 40), max_size=4),
)
def test_loop_matches_a_plain_sort(initial, horizon, cancels):
    """Firing order, ``pending`` and ``telemetry()`` equal the plain-sort
    reference through same-instant events, priorities, callbacks that
    schedule at ``now``, and cancels before and after the events fire."""
    loop, ref = EventLoop(), _PlainSortLoop()
    handles: list = []
    fired: list[int] = []
    ref_fired: list[int] = []

    def schedule(time: float, priority: int, actions: tuple) -> None:
        seq = len(handles) + 1

        def callback() -> None:
            fired.append(seq)
            for act in actions:
                if act[0] == "schedule":
                    schedule(loop.clock.now + act[1], act[2], ())
                else:
                    loop.cancel(handles[act[1] % len(handles)])

        handles.append(loop.schedule(time, callback, priority=priority))
        assert handles[-1].seq == seq

    def ref_fire(entry: tuple) -> None:
        ref_fired.append(entry[2])
        for act in entry[3]:
            if act[0] == "schedule":
                ref.schedule(ref.now + act[1], act[2], ())
            else:
                ref.cancel(act[1] % ref.seq + 1)

    def check() -> None:
        assert fired == ref_fired
        assert loop.pending == len(ref.live)
        assert loop.telemetry() == ref.telemetry()

    for time, priority, actions in initial:
        schedule(time, priority, actions)
        ref.schedule(time, priority, actions)
    for k in cancels:  # every event is still pending
        loop.cancel(handles[k % len(handles)])
        ref.cancel(k % ref.seq + 1)
    check()
    count = loop.run_until(horizon)
    ref.run_until(horizon, ref_fire)
    assert count == len(ref_fired)
    check()
    for k in cancels:  # some of these have fired by now
        loop.cancel(handles[k % len(handles)])
        ref.cancel(k % ref.seq + 1)
    check()
    loop.run()
    ref.run(ref_fire)
    check()
    assert loop.pending == 0

