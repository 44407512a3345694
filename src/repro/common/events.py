"""A deterministic discrete-event engine.

This is the execution substrate for every time-driven simulation in the
library: bare-metal lease expiry, Kubernetes reconciliation, dynamic
batching, canary analysis windows, the student-cohort semester, and so on.

Design notes
------------
* Events are ordered by ``(time, priority, sequence)``.  The monotonically
  increasing sequence number guarantees a **total** order, so two runs with
  the same inputs schedule callbacks identically — a property the seeded
  reproduction benchmarks rely on.
* A heap entry is the flat tuple ``(time, priority, seq, event)``: the
  unique ``seq`` settles every comparison before the event is reached,
  and the loop reads the next time as ``heap[0][0]``.
* Callbacks may schedule further events (including at the current time).
* The loop drives a shared :class:`~repro.common.clock.SimClock`, so any
  component holding the clock observes consistent time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from repro.common.clock import SimClock
from repro.common.errors import ValidationError


@dataclass(frozen=True, slots=True)
class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Absolute simulated time (hours) at which the callback fires.
    priority:
        Tie-break for events at the same time; lower fires first.
    seq:
        Insertion sequence number; the final deterministic tie-break.
    callback:
        Zero-argument callable invoked when the event fires.
    label:
        Optional human-readable tag (used in traces and error messages).
    """

    time: float
    priority: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    label: str = field(default="", compare=False)


class EventLoop:
    """Priority-queue event loop with deterministic ordering.

    Parameters
    ----------
    clock:
        The clock to drive.  A fresh clock at t=0 is created if omitted.
    """

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._fired = 0
        self._cancelled: set[int] = set()
        self._cancelled_total = 0
        self._peak_pending = 0

    @property
    def pending(self) -> int:
        """Number of events still queued, cancelled tombstones excluded."""
        return len(self._heap) - len(self._cancelled)

    @property
    def fired(self) -> int:
        """Number of events executed so far."""
        return self._fired

    @property
    def scheduled(self) -> int:
        """Number of events scheduled over the loop's lifetime."""
        return self._seq

    def telemetry(self) -> dict[str, float]:
        """Cheap lifetime counters (all in simulation domain — no wall clock).

        Keys: ``scheduled`` / ``fired`` / ``cancelled`` / ``pending`` are
        event counts, ``peak_pending`` is the queue's high-water mark, and
        ``sim_time`` is the clock's current simulated hour.
        """
        return {
            "scheduled": float(self._seq),
            "fired": float(self._fired),
            "cancelled": float(self._cancelled_total),
            "pending": float(self.pending),
            "peak_pending": float(self._peak_pending),
            "sim_time": self.clock.now,
        }

    def schedule(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute ``time`` (hours)."""
        if time < self.clock.now:
            raise ValidationError(
                f"cannot schedule event in the past: now={self.clock.now!r}, time={time!r}"
            )
        self._seq = seq = self._seq + 1
        time = float(time)
        ev = Event(time, priority, seq, callback, label)
        heap = self._heap
        heapq.heappush(heap, (time, priority, seq, ev))
        pending = len(heap) - len(self._cancelled)
        if pending > self._peak_pending:
            self._peak_pending = pending
        return ev

    def schedule_in(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` ``delay`` hours from now."""
        if delay < 0:
            raise ValidationError(f"negative delay {delay!r}")
        return self.schedule(self.clock.now + delay, callback, priority=priority, label=label)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (no-op if already fired).

        Only an event still in the queue leaves a tombstone; the scan is
        linear, and keeps the firing loop free of any extra check.
        """
        seq = event.seq
        if seq in self._cancelled or not any(entry[3] is event for entry in self._heap):
            return
        self._cancelled.add(seq)
        self._cancelled_total += 1

    def step(self) -> Event | None:
        """Fire the single earliest pending event; return it (or ``None``)."""
        while self._heap:
            ev = heapq.heappop(self._heap)[3]
            if ev.seq in self._cancelled:
                self._cancelled.discard(ev.seq)
                continue
            self.clock.advance_to(ev.time)
            self._fired += 1
            ev.callback()
            return ev
        return None

    def run_until(self, timestamp: float) -> int:
        """Fire every event with ``time <= timestamp``; return count fired.

        The clock ends at exactly ``timestamp`` even if the last event fired
        earlier (so meters integrating "time since last event" stay exact).

        This is the simulator's hottest loop (every cohort event funnels
        through it), so it inlines :meth:`step` with the heap, tombstone
        set, and clock held in locals; semantics are identical.
        """
        fired = 0
        heap = self._heap
        cancelled = self._cancelled
        clock = self.clock
        heappop = heapq.heappop
        try:
            while heap:
                if heap[0][0] > timestamp:
                    break
                time, _, seq, ev = heappop(heap)
                if cancelled and seq in cancelled:
                    cancelled.discard(seq)
                    continue
                clock.advance_to(time)
                fired += 1
                ev.callback()
        finally:
            self._fired += fired
        if timestamp > clock.now:
            clock.advance_to(timestamp)
        return fired

    def run(self, max_events: int | None = None) -> int:
        """Drain the queue (optionally stopping after ``max_events``)."""
        fired = 0
        while self._heap:
            if max_events is not None and fired >= max_events:
                break
            if self.step() is not None:
                fired += 1
        return fired
