"""The serving-operations simulation: trace in, priced outcomes out.

Drives a :class:`~repro.loadgen.arrivals.RequestTrace` through the full
operations layer — admission control, deadline drops, dynamic batching
(:class:`repro.serving.BatchingConfig` semantics), a replica fleet under
a reactive autoscaler, and the fault calendar's outage/burst windows —
and records a terminal outcome for every request.

Determinism contract (the loadgen analogue of `repro.parallel`'s
``records_digest`` equality):

* All randomness lives in the trace and the fault calendar, both seeded
  and resolved *before* simulation; the simulation itself draws nothing.
* Every tie is broken on a total order (replica selection by
  ``(available_time, rid)``), so internal evaluation order cannot leak
  into results — ``perturb=True`` scans the fleet in reverse and must
  produce a byte-identical :meth:`TrafficResult.digest`.
* Control ticks fire at fixed simulated instants and are evaluated at
  dispatch boundaries; arrivals inside a batching window are admitted
  before the batch forms.  Both rules are part of the simulation's
  definition, not scheduling accidents.

The loop advances batch-by-batch (every admitted request is still
touched exactly once), so a multi-million-request day simulates in
seconds.

**Closed loop.**  Passing a :class:`~repro.resilience.clients.ResilienceModel`
turns failures into re-offers: every retryable terminal outcome asks the
model's runtime for a retry instant (all jitter resolved at plan time),
and scheduled retries join the event loop through a deterministic
min-heap ordered by ``(time, schedule-sequence)``.  With
``resilience=None`` the simulation takes exactly the open-loop path and
its digest is byte-identical to the pre-resilience definition.
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import TYPE_CHECKING

import numpy as np

from repro.common.errors import ValidationError
from repro.faults.plan import SERVING_SITE, FaultCalendar, serving_scope
from repro.loadgen.arrivals import RequestTrace
from repro.loadgen.autoscaler import AutoscalerConfig, FleetTelemetry, ReplicaSet
from repro.loadgen.queue import (
    DROPPED,
    ERROR,
    FAILED,
    REJECTED,
    SERVED,
    SHED,
    AdmissionConfig,
    RequestQueue,
)
from repro.serving.batching import BatchingConfig
from repro.serving.engine import InferenceEngine

if TYPE_CHECKING:  # no runtime import: loadgen must not depend on resilience
    from repro.resilience.clients import ResilienceModel, ResilienceOutcome

_INF = float("inf")
_NAN = float("nan")


@dataclass(frozen=True)
class ReplicaSpan:
    """One closed billing span (the fleet's ledger entry)."""

    rid: int
    launched_at_s: float
    ready_at_s: float
    terminated_at_s: float
    reason: str

    @property
    def billed_hours(self) -> float:
        return (self.terminated_at_s - self.launched_at_s) / 3600.0


@dataclass(frozen=True)
class TrafficResult:
    """Per-request outcomes plus the fleet ledger for one simulated run."""

    trace: RequestTrace
    admission: AdmissionConfig
    batching: BatchingConfig
    autoscaler: AutoscalerConfig
    device_name: str
    model_name: str
    status: np.ndarray      # int8 terminal codes (queue.SERVED & friends)
    start_s: np.ndarray     # service start (NaN if never started)
    finish_s: np.ndarray    # service completion (NaN if lost/never started)
    replica_of: np.ndarray  # serving replica id (-1 if none)
    spans: tuple[ReplicaSpan, ...]
    telemetry: FleetTelemetry
    batches: int
    max_queue_depth: int
    faulted: bool
    resilience: "ResilienceOutcome | None" = None

    # -- outcome counts -----------------------------------------------------

    @property
    def offered(self) -> int:
        return len(self.status)

    def count(self, code: int) -> int:
        return int((self.status == code).sum())

    @property
    def served(self) -> int:
        return self.count(SERVED)

    @property
    def rejected(self) -> int:
        return self.count(REJECTED)

    @property
    def dropped(self) -> int:
        return self.count(DROPPED)

    @property
    def errored(self) -> int:
        return self.count(ERROR)

    @property
    def failed(self) -> int:
        return self.count(FAILED)

    @property
    def shed(self) -> int:
        return self.count(SHED)

    @property
    def attempts_total(self) -> int:
        """Attempts offered at the front door (== offered when open-loop)."""
        return self.resilience.attempts_total if self.resilience else self.offered

    @property
    def loss_rate(self) -> float:
        """Fraction of offered requests that did not get a response."""
        return 1.0 - self.served / self.offered if self.offered else 0.0

    # -- latency ------------------------------------------------------------

    def latencies_ms(self) -> np.ndarray:
        """Per-request latency (completion − arrival) of served requests."""
        mask = self.status == SERVED
        return (self.finish_s[mask] - self.trace.arrivals_s[mask]) * 1e3

    def percentile_ms(self, q: float) -> float:
        lat = self.latencies_ms()
        if not len(lat):
            return float("nan")
        return float(np.percentile(lat, q))

    @property
    def p50_ms(self) -> float:
        return self.percentile_ms(50)

    @property
    def p95_ms(self) -> float:
        return self.percentile_ms(95)

    @property
    def p99_ms(self) -> float:
        return self.percentile_ms(99)

    @property
    def mean_batch(self) -> float:
        return self.served / self.batches if self.batches else 0.0

    # -- fleet --------------------------------------------------------------

    @property
    def replica_hours(self) -> float:
        return sum(s.billed_hours for s in self.spans)

    # -- the contract -------------------------------------------------------

    def digest(self) -> str:
        """SHA-256 over the complete observable outcome.

        Covers the trace, every per-request terminal tuple, and the
        fleet's billing spans — byte-identical digests mean identical
        latency percentiles, loss accounting, and dollars.
        """
        h = hashlib.sha256()
        h.update(self.trace.digest().encode())
        h.update(repr((self.admission, self.batching, self.autoscaler)).encode())
        h.update(self.status.tobytes())
        h.update(self.start_s.tobytes())
        h.update(self.finish_s.tobytes())
        h.update(self.replica_of.tobytes())
        for span in self.spans:
            h.update(repr(span).encode())
        if self.resilience is not None:
            # extends the hash stream only when the closed loop ran, so
            # open-loop digests stay byte-identical across this change
            self.resilience.digest_update(h)
        return h.hexdigest()


def _serving_windows(
    calendar: FaultCalendar | None, horizon_s: float
) -> tuple[list[tuple[float, float, int]], list[tuple[float, float]]]:
    """(outages, bursts) on the serving site, in seconds, clipped to horizon.

    Outage windows carry their scope as a third element: ``dark == 0``
    is the full-site window (every replica struck, no capacity until it
    clears), ``dark == k`` a partial window from
    :func:`repro.faults.plan.partial_serving_site` (``k`` replicas
    struck, the fleet ceiling shrunk by ``k`` for the duration).  Bursts
    stay full-site: a rate-limit storm hits the API front door, which
    has no per-replica scope.
    """
    if calendar is None:
        return [], []
    outages = []
    for w in calendar.outages:
        dark = serving_scope(w.site)
        if dark is not None and w.start * 3600.0 < horizon_s:
            outages.append((w.start * 3600.0, w.end * 3600.0, dark))
    bursts = [
        (w.start * 3600.0, w.end * 3600.0)
        for w in calendar.bursts
        if w.site == SERVING_SITE and w.start * 3600.0 < horizon_s
    ]
    return outages, bursts


def _merged_edges(windows: list[tuple[float, float]]) -> list[float]:
    """Flattened edge list of the merged ``[start, end)`` windows.

    ``bisect_right`` parity against this list answers "is instant ``t``
    inside any window" (left-closed, right-open; overlapping and touching
    windows union), and the edge right of an inside instant is the end of
    the whole stretch it sits in.  The edges are the windows' own values,
    so a clamp read from them keeps the calendar's scalar type."""
    merged: list[list[float]] = []
    for ws, we in sorted(windows):
        if merged and ws <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], we)
        else:
            merged.append([ws, we])
    return [edge for w in merged for edge in w]


def simulate_traffic(
    trace: RequestTrace,
    engine: InferenceEngine,
    *,
    admission: AdmissionConfig | None = None,
    batching: BatchingConfig | None = None,
    autoscaler: AutoscalerConfig | None = None,
    calendar: FaultCalendar | None = None,
    resilience: "ResilienceModel | None" = None,
    perturb: bool = False,
) -> TrafficResult:
    """Run the operations layer over one request trace.

    ``resilience`` closes the loop: failed attempts consult the model's
    runtime (retry policy, budget, breaker, shedding — all draws made at
    plan time) and re-enter the event loop at their scheduled instants.
    ``None`` is the open-loop simulation, byte-identical to before the
    resilience layer existed.

    ``perturb`` flips every internal evaluation order the simulation is
    free to choose (currently: the fleet scan in replica selection) and
    must not change the digest — ``python -m repro.verify loadgen``
    asserts exactly that.
    """
    admission = admission if admission is not None else AdmissionConfig()
    batching = batching if batching is not None else BatchingConfig()
    autoscaler = autoscaler if autoscaler is not None else AutoscalerConfig()

    arrivals = trace.arrivals_s
    n = len(arrivals)
    if n == 0:
        raise ValidationError("cannot simulate an empty request trace")

    # per-request state lives in compact typed buffers while the loop
    # runs (DESIGN §9) and becomes the result's numpy arrays once, at the
    # end; ``arrival_at`` is the typed mirror every arrival comparison reads
    arrival_at = array("d", np.ascontiguousarray(arrivals, dtype=np.float64).tobytes())
    status = bytearray(n)  # SERVED == 0
    start_s = array("d", [_NAN]) * n
    finish_s = array("d", [_NAN]) * n
    replica_of = array("i", [-1]) * n

    outage_windows, burst_windows = _serving_windows(calendar, trace.config.duration_s)
    in_burst = bytearray(n)
    for ws, we in burst_windows:
        lo = int(np.searchsorted(arrivals, ws, side="left"))
        hi = int(np.searchsorted(arrivals, we, side="left"))
        in_burst[lo:hi] = b"\x01" * (hi - lo)

    # outage edge events, time-ordered: (time, kind, scope) with start
    # before end on ties (kind 0 < 1), full-site before partial
    outage_events: list[tuple[float, int, int]] = []
    for ws, we, dark in outage_windows:
        outage_events.append((ws, 0, dark))
        outage_events.append((we, 1, dark))
    outage_events.sort()
    n_edges = len(outage_events)
    # the dark stretches of the full-site windows, merged once: readiness
    # is clamped to the end of the whole stretch, however many windows
    # overlap in it
    full_site_edges = _merged_edges(
        [(ws, we) for ws, we, dark in outage_windows if dark == 0]
    )

    closed_loop = resilience is not None
    if closed_loop:
        # writable per-attempt enqueue instants: a retry's deadline and
        # batch-window membership run from the attempt, not the arrival
        enq = array("d", arrival_at)
        runtime = resilience.runtime(arrivals, admission.queue_capacity)
        burst_edges = _merged_edges(burst_windows)
        queue = RequestQueue(admission, batching, arrival_at, status, enqueued_at=enq)
        begin_attempt, admit, on_failure = (
            runtime.begin_attempt, runtime.admit, runtime.on_failure)
    else:
        enq = arrival_at
        runtime = None
        burst_edges = []
        queue = RequestQueue(admission, batching, arrival_at, status)
    offer, expire, take_batch = queue.offer, queue.expire, queue.take_batch
    fleet = ReplicaSet(autoscaler)
    next_available, dispatch = fleet.next_available, fleet.dispatch
    window_close = batching.window_close
    interval = autoscaler.control_interval_s
    # service time is a pure function of the batch size: once per size
    service_times: dict[int, float] = {}

    i = 0        # next arrival to process
    oi = 0       # next outage edge to process
    next_tick = interval
    now = 0.0
    batches = 0
    # scheduled retries: (due_s, schedule_seq, idx) — the seq makes the
    # heap order total, so equal due instants pop in scheduling order
    retry_heap: list[tuple[float, int, int]] = []
    retry_seq = 0
    dark_now = 0  # replicas the active partial-outage windows keep dark

    def outage_end_covering(t: float) -> float:
        # full-site windows only: during a partial outage the surviving
        # placement can still host replacements, so readiness is not
        # clamped — the dark_replicas ceiling is the partial constraint
        k = bisect_right(full_site_edges, t)
        return full_site_edges[k] if k % 2 else 0.0

    def book_failure(idx: int, t: float, code: int) -> None:
        """Closed loop only: one attempt just terminated as ``code``.  Ask
        the runtime for a retry instant; if granted, un-book the loss and
        put the request back in flight on the retry heap."""
        nonlocal retry_seq
        retry_at = on_failure(idx, t, code)
        if retry_at is None:
            return
        status[idx] = SERVED  # pending again; the next terminal rewrites it
        start_s[idx] = _NAN
        finish_s[idx] = _NAN
        replica_of[idx] = -1
        heappush(retry_heap, (retry_at, retry_seq, idx))
        retry_seq += 1

    def offer_attempt(idx: int, t: float, burst: int) -> None:
        """One front-door attempt (fresh arrival or retry) at instant ``t``."""
        if not closed_loop:
            offer(idx, in_burst=burst)
            return
        begin_attempt(idx)
        enq[idx] = t
        if burst:
            offer(idx, in_burst=True)  # books ERROR
            book_failure(idx, t, ERROR)
        elif not admit(idx, t, queue.depth):
            status[idx] = SHED
            book_failure(idx, t, SHED)
        elif not offer(idx, in_burst=False):  # books REJECTED
            book_failure(idx, t, REJECTED)

    def advance(limit: float) -> None:
        """Process every event with time <= limit, in chronological order
        (outage edges, then control ticks, then arrivals, then retries on
        ties)."""
        nonlocal i, oi, next_tick, now, dark_now
        while True:
            ta = arrival_at[i] if i < n else _INF
            tr = retry_heap[0][0] if retry_heap else _INF
            to = outage_events[oi][0] if oi < n_edges else _INF
            if ta > limit and tr > limit and to > limit and next_tick > limit:
                break
            if to <= next_tick and to <= ta and to <= tr:
                t, kind, dark = outage_events[oi]
                oi += 1
                now = t
                if kind == 0:
                    if dark:
                        dark_now += dark
                    for idx in fleet.strike(t, limit=dark if dark else None):
                        status[idx] = FAILED
                        finish_s[idx] = _NAN
                        if closed_loop:
                            book_failure(idx, t, FAILED)
                elif dark:
                    dark_now -= dark
                # full-site window ends are otherwise implicit: the
                # provisioning clamp handles them
            elif next_tick <= ta and next_tick <= tr:
                now = next_tick
                next_tick += interval
                fleet.tick(
                    now,
                    queue.depth,
                    not_ready_before_s=outage_end_covering(now),
                    dark_replicas=dark_now,
                )
                if closed_loop:
                    runtime.sample_depth(now, queue.depth, fleet.open_spans)
            elif ta <= tr:
                # ROADMAP item 2: the arrival becomes ``now`` as the trace's
                # numpy scalar, whose repr a drain span's digest hashes
                now = arrivals[i]
                offer_attempt(i, now, in_burst[i])
                i += 1
            else:
                t, _, idx = heappop(retry_heap)
                now = t
                offer_attempt(idx, t, bisect_right(burst_edges, t) % 2)
        now = max(now, limit)

    def admit_through_window(close: float) -> None:
        """Admit arrivals and due retries up to the batching-window close
        (attempts only: structural events inside the millisecond window
        are evaluated at the next dispatch boundary — a defined part of
        the semantics).  Original arrivals beat retries on exact ties."""
        nonlocal i
        while True:
            ta = arrival_at[i] if i < n else _INF
            tr = retry_heap[0][0] if retry_heap else _INF
            if ta > close and tr > close:
                break
            if ta <= tr:
                # ROADMAP item 2: the attempt instant stays the trace's
                # numpy scalar; retry instants derive from it
                offer_attempt(i, arrivals[i], in_burst[i])
                i += 1
            else:
                t, _, idx = heappop(retry_heap)
                offer_attempt(idx, t, bisect_right(burst_edges, t) % 2)

    while True:
        if queue.depth == 0:
            ta = arrival_at[i] if i < n else _INF
            tr = retry_heap[0][0] if retry_heap else _INF
            if ta == _INF and tr == _INF:
                break
            advance(min(ta, tr))
            continue

        avail = next_available(now, perturb=perturb)
        next_struct = min(next_tick, outage_events[oi][0] if oi < n_edges else _INF)
        if avail is None:
            advance(next_struct)
            continue
        t_free, rid = avail
        t_start = max(t_free, queue.head_arrival())
        if next_struct <= t_start:
            advance(next_struct)
            continue
        expired = expire(t_start)
        if expired:
            if closed_loop:
                for idx in expired:
                    book_failure(idx, t_start, DROPPED)
            continue

        admit_through_window(window_close(t_start))
        depth_at_dispatch = queue.depth
        batch = take_batch(t_start)
        size = len(batch)
        service_start = max(t_start, enq[batch[-1]])
        service_time = service_times.get(size)
        if service_time is None:
            service_time = service_times[size] = engine.service_time_s(size)
        if closed_loop:
            factor = runtime.service_factor(depth_at_dispatch)
            if factor != 1.0:
                # < 1: brownout, degraded but faster; > 1: congestion
                # collapse, the server is thrashing under a deep queue
                service_time *= factor
                if factor < 1.0:
                    runtime.mark_brownout(batch)
        finish = service_start + service_time
        # a queued request's status is already SERVED (pending)
        for idx in batch:
            start_s[idx] = service_start
            finish_s[idx] = finish
            replica_of[idx] = rid
        dispatch(rid, tuple(batch), finish)
        batches += 1
        now = service_start
        if closed_loop:
            runtime.on_served(service_start, size)

    fleet.drain(now)
    spans = tuple(
        ReplicaSpan(
            rid=r.rid,
            launched_at_s=r.launched_at,
            ready_at_s=r.ready_at,
            terminated_at_s=r.terminated_at if r.terminated_at is not None else now,
            reason=r.reason or "drain",
        )
        for r in fleet.replicas
    )
    return TrafficResult(
        trace=trace,
        admission=admission,
        batching=batching,
        autoscaler=autoscaler,
        device_name=engine.device.name,
        model_name=engine.model.name,
        status=np.frombuffer(status, dtype=np.int8).copy(),
        start_s=np.frombuffer(start_s, dtype=np.float64).copy(),
        finish_s=np.frombuffer(finish_s, dtype=np.float64).copy(),
        replica_of=np.frombuffer(replica_of, dtype=np.int32).copy(),
        spans=spans,
        telemetry=fleet.telemetry,
        batches=batches,
        max_queue_depth=queue.max_depth,
        faulted=bool(outage_windows or burst_windows),
        resilience=runtime.finish() if closed_loop else None,
    )
