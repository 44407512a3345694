"""The shared circuit breakers: windowed error-rate and per-key attempt.

Two breaker species cover every "stop hammering a failing dependency"
site in the repo:

* :class:`CircuitBreaker` — the classic closed/open/half-open state
  machine over a *windowed error rate* on the simulated clock.  The
  serving front door (`repro.resilience`) mounts one ahead of the
  request queue: when the recent outcome window is mostly failures the
  breaker opens and sheds arrivals at zero queue cost, then probes its
  way back closed.  Deterministic by construction: state is a pure
  function of the ``admit``/``record`` call sequence — the breaker never
  reads an ambient clock and never draws randomness, so it is safe
  inside the RNG-free simulation loop (PUR001).
* :class:`RetryBreaker` — per-key failure counting against a
  :class:`~repro.common.retry.RetryPolicy` attempt budget.  Extracted
  from the parallel engine's per-shard crash handling (PR 5): a key that
  fails on every attempt "trips" once the policy refuses its next retry,
  and the caller converts the trip into its own typed error
  (:class:`~repro.common.errors.PoisonedShardError` in the engine).

Both are plain mutable state machines; callers own construction and
drive them in chronological order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.common.errors import ValidationError
from repro.common.retry import RetryPolicy

#: Breaker states.  Plain strings (not an Enum) so frozen configs and
#: telemetry dicts stay trivially reprable/hashable for digests.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerConfig:
    """The windowed-error-rate policy of a :class:`CircuitBreaker`.

    The breaker opens when, over the trailing ``window_s`` seconds of
    recorded outcomes, at least ``min_volume`` outcomes were seen and
    the failure fraction reached ``error_threshold``.  It stays open for
    ``cooldown_s`` (shedding every offer), then admits up to
    ``half_open_probes`` trial requests: one recorded failure re-opens
    it, ``half_open_probes`` recorded successes close it.  Only admitted
    probes carry verdicts — a batched success is counted at most up to
    the probes still outstanding, so stale work accepted before the trip
    cannot close the breaker — and a probe quota that sits exhausted for
    a full ``window_s`` without resolving re-opens the breaker rather
    than leaking the probes and shedding from half-open limbo forever.
    """

    window_s: float = 30.0
    error_threshold: float = 0.5
    min_volume: int = 20
    cooldown_s: float = 15.0
    half_open_probes: int = 5

    def __post_init__(self) -> None:
        if self.window_s <= 0 or self.cooldown_s <= 0:
            raise ValidationError(f"breaker windows must be positive: {self!r}")
        if not (0.0 < self.error_threshold <= 1.0):
            raise ValidationError(
                f"error_threshold must be in (0, 1]: {self.error_threshold!r}"
            )
        if self.min_volume < 1 or self.half_open_probes < 1:
            raise ValidationError(f"breaker volumes must be >= 1: {self!r}")


@dataclass
class BreakerTelemetry:
    """Counters one breaker accumulates over a run."""

    opens: int = 0
    closes: int = 0
    half_opens: int = 0
    sheds: int = 0


class CircuitBreaker:
    """Closed/open/half-open over a sliding window of recorded outcomes.

    Protocol: call :meth:`admit` before accepting work (False = shed it),
    :meth:`record` when an accepted piece of work reaches a terminal
    outcome.  Timestamps are simulated seconds supplied by the caller in
    the order the driving loop books them; the window prunes against the
    newest timestamp seen, so the machine is deterministic for any fixed
    call sequence.
    """

    def __init__(self, config: BreakerConfig) -> None:
        self.config = config
        self.state = CLOSED
        self.telemetry = BreakerTelemetry()
        #: trailing outcomes as (time, ok, count), newest on the right
        self._window: deque[tuple[float, bool, int]] = deque()
        self._errors = 0
        self._total = 0
        self._opened_at = 0.0
        self._half_opened_at = 0.0
        self._probes_admitted = 0
        self._probe_successes = 0

    # -- window bookkeeping --------------------------------------------------

    def _prune(self, now_s: float) -> None:
        horizon = now_s - self.config.window_s
        while self._window and self._window[0][0] < horizon:
            _, ok, count = self._window.popleft()
            self._total -= count
            if not ok:
                self._errors -= count

    def _reset_window(self) -> None:
        self._window.clear()
        self._errors = 0
        self._total = 0

    @property
    def error_rate(self) -> float:
        """Failure fraction over the current window (0 when empty)."""
        return self._errors / self._total if self._total else 0.0

    # -- the state machine ---------------------------------------------------

    def _trip(self, now_s: float) -> None:
        self.state = OPEN
        self._opened_at = now_s
        self.telemetry.opens += 1
        self._reset_window()

    def admit(self, now_s: float) -> bool:
        """May a new piece of work pass the front door at ``now_s``?

        Open → shed (counted) until the cooldown elapses, then
        half-open.  Half-open → admit only while probe slots remain.
        """
        if self.state == OPEN:
            if now_s - self._opened_at >= self.config.cooldown_s:
                self.state = HALF_OPEN
                self.telemetry.half_opens += 1
                self._half_opened_at = now_s
                self._probes_admitted = 0
                self._probe_successes = 0
            else:
                self.telemetry.sheds += 1
                return False
        if self.state == HALF_OPEN:
            if self._probes_admitted >= self.config.half_open_probes:
                # quota spent and the verdict is still out.  If a whole
                # observation window has elapsed since half-opening, the
                # probes' outcomes are not coming back (shed downstream,
                # stuck behind a dead dependency) — re-open and restart
                # the cooldown instead of leaking the probes and shedding
                # from half-open limbo forever.  Exactly at the window
                # boundary counts as expired (>=, like the cooldown).
                if now_s - self._half_opened_at >= self.config.window_s:
                    self._trip(now_s)
                self.telemetry.sheds += 1
                return False
            self._probes_admitted += 1
        return True

    def record(self, now_s: float, ok: bool, *, count: int = 1) -> None:
        """Book ``count`` terminal outcomes at ``now_s``.

        In half-open state, outcomes are probe verdicts: one failure
        re-opens immediately; ``half_open_probes`` successes close.  In
        closed state they feed the sliding window, and crossing the
        threshold at sufficient volume trips the breaker.
        """
        if count < 1:
            raise ValidationError(f"count must be >= 1: {count!r}")
        if self.state == HALF_OPEN:
            if not ok:
                self._trip(now_s)
            else:
                # only outcomes of *admitted probes* are probe verdicts: a
                # batched success can carry stale work admitted before the
                # trip, and counting it would close the breaker on
                # evidence that predates the verdict (with zero probes
                # outstanding the whole batch is stale and moves nothing)
                outstanding = self._probes_admitted - self._probe_successes
                counted = min(count, outstanding)
                if counted <= 0:
                    return
                self._probe_successes += counted
                if self._probe_successes >= self.config.half_open_probes:
                    self.state = CLOSED
                    self.telemetry.closes += 1
                    self._reset_window()
            return
        if self.state == OPEN:
            return  # stale outcome of work admitted before the trip
        self._window.append((now_s, ok, count))
        self._total += count
        if not ok:
            self._errors += count
        self._prune(now_s)
        if (
            self._total >= self.config.min_volume
            and self.error_rate >= self.config.error_threshold
        ):
            self._trip(now_s)


@dataclass
class RetryBreaker:
    """Per-key failure counting against a retry policy's attempt budget.

    The parallel engine's per-shard breaker (PR 5), extracted: each
    crash increments the key's count, and :meth:`exhausted` names the
    keys whose *next* retry the policy refuses — the first execution is
    attempt 1, so a key with ``c`` failed attempts has used ``c - 1``
    retries and trips when retry number ``c`` is denied.  The caller
    decides what a trip means (the engine raises
    :class:`~repro.common.errors.PoisonedShardError`).
    """

    retry: RetryPolicy
    counts: dict[str, int] = field(default_factory=dict)

    def record_failure(self, key: str) -> int:
        """Count one failed attempt for ``key``; returns the new total."""
        self.counts[key] = self.counts.get(key, 0) + 1
        return self.counts[key]

    def failures(self, key: str) -> int:
        return self.counts.get(key, 0)

    def exhausted(self, keys: "list[str] | tuple[str, ...]") -> dict[str, int]:
        """The subset of ``keys`` whose retry budget is spent, with counts."""
        return {
            key: self.counts[key]
            for key in keys
            if not self.retry.allows_retry(self.counts.get(key, 0) - 1)
        }


__all__ = [
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "BreakerConfig",
    "BreakerTelemetry",
    "CircuitBreaker",
    "RetryBreaker",
]
