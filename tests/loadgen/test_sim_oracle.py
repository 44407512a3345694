"""The serving event loop against its frozen scalar reference.

``simulate_traffic`` keeps per-request state in typed buffers, reads
arrivals through a typed mirror, computes each batch size's service time
once per run, scans only the live replicas and looks retries' burst
membership up with ``bisect_right``.  The reference below is the loop as
it was before those changes, copied verbatim: numpy per-request arrays,
one ``searchsorted`` per retry, the per-tick outage window scan and one
engine call per batch.  It runs against the same public collaborators
(queue, fleet, closed-loop runtime), so the literal digests at the end
pin those too.

Three regimes, three seeds each: the open loop over every arrival
pattern with outages and bursts (``perturb`` off and on), the closed
loop under every client policy with a full and a partial outage, a
burst calendar and brownout shedding, and sweep points run through
``_plan_point`` and ``_simulate_point``.  Calendars with overlapping
full-site windows are left out: the reference clamps readiness to the
first window that covers an instant, the loop to the merged stretch.
"""

from __future__ import annotations

import heapq
from dataclasses import replace

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.faults.plan import (
    SERVING_SITE,
    ApiErrorBurst,
    FaultCalendar,
    FaultPlanConfig,
    OutageWindow,
    partial_serving_site,
    serving_scope,
)
from repro.loadgen import sim
from repro.loadgen.arrivals import RequestTrace, TrafficConfig, generate_trace
from repro.loadgen.autoscaler import AutoscalerConfig, ReplicaSet
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
from repro.loadgen.sim import ReplicaSpan, TrafficResult
from repro.resilience import sweep
from repro.resilience.clients import ResilienceModel, plan_resilience
from repro.resilience.scenario import POLICIES, StormConfig, policy_spec
from repro.resilience.shedding import SheddingConfig
from repro.serving import DEVICE_CATALOG, food11_classifier
from repro.serving.batching import BatchingConfig
from repro.serving.engine import InferenceEngine

_INF = float("inf")

# -- the reference: the event loop before the hot-path rewrite, verbatim ----


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


def _merged_edges(windows: list[tuple[float, float]]) -> np.ndarray:
    """Flattened edge array of the merged ``[start, end)`` windows.

    Searchsorted parity against this array answers "is instant ``t``
    inside any window" for retry attempts, matching the index-based
    ``in_burst`` marking used for the original arrivals (left-closed,
    right-open; overlapping windows union)."""
    if not windows:
        return np.zeros(0)
    merged: list[list[float]] = []
    for ws, we in sorted(windows):
        if merged and ws <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], we)
        else:
            merged.append([ws, we])
    return np.asarray([edge for w in merged for edge in w])


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

    status = np.full(n, SERVED, dtype=np.int8)
    start_s = np.full(n, np.nan)
    finish_s = np.full(n, np.nan)
    replica_of = np.full(n, -1, dtype=np.int32)

    outage_windows, burst_windows = _serving_windows(calendar, trace.config.duration_s)
    in_burst = np.zeros(n, dtype=bool)
    for ws, we in burst_windows:
        lo = int(np.searchsorted(arrivals, ws, side="left"))
        hi = int(np.searchsorted(arrivals, we, side="left"))
        in_burst[lo:hi] = True

    # outage edge events, time-ordered: (time, kind, scope) with start
    # before end on ties (kind 0 < 1), full-site before partial
    outage_events: list[tuple[float, int, int]] = []
    for ws, we, dark in outage_windows:
        outage_events.append((ws, 0, dark))
        outage_events.append((we, 1, dark))
    outage_events.sort()

    closed_loop = resilience is not None
    if closed_loop:
        # writable per-attempt enqueue instants: a retry's deadline and
        # batch-window membership run from the attempt, not the arrival
        enq = arrivals.copy()
        runtime = resilience.runtime(arrivals, admission.queue_capacity)
        burst_edges = _merged_edges(burst_windows)
        queue = RequestQueue(admission, batching, arrivals, status, enqueued_at=enq)
    else:
        enq = arrivals
        runtime = None
        burst_edges = np.zeros(0)
        queue = RequestQueue(admission, batching, arrivals, status)
    fleet = ReplicaSet(autoscaler)
    interval = autoscaler.control_interval_s

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
        for ws, we, dark in outage_windows:
            if dark == 0 and ws <= t < we:
                return we
        return 0.0

    def in_burst_at(t: float) -> bool:
        """Burst-window membership by instant (retries re-check by time)."""
        return bool(np.searchsorted(burst_edges, t, side="right") % 2)

    def book_failure(idx: int, t: float, code: int) -> None:
        """Closed loop only: one attempt just terminated as ``code``.  Ask
        the runtime for a retry instant; if granted, un-book the loss and
        put the request back in flight on the retry heap."""
        nonlocal retry_seq
        retry_at = runtime.on_failure(idx, t, code)
        if retry_at is None:
            return
        status[idx] = SERVED  # pending again; the next terminal rewrites it
        start_s[idx] = np.nan
        finish_s[idx] = np.nan
        replica_of[idx] = -1
        heapq.heappush(retry_heap, (retry_at, retry_seq, idx))
        retry_seq += 1

    def offer_attempt(idx: int, t: float, burst: bool) -> None:
        """One front-door attempt (fresh arrival or retry) at instant ``t``."""
        if not closed_loop:
            queue.offer(idx, in_burst=burst)
            return
        runtime.begin_attempt(idx)
        enq[idx] = t
        if burst:
            queue.offer(idx, in_burst=True)  # books ERROR
            book_failure(idx, t, ERROR)
        elif not runtime.admit(idx, t, queue.depth):
            status[idx] = SHED
            book_failure(idx, t, SHED)
        elif not queue.offer(idx, in_burst=False):  # books REJECTED
            book_failure(idx, t, REJECTED)

    def advance(limit: float) -> None:
        """Process every event with time <= limit, in chronological order
        (outage edges, then control ticks, then arrivals, then retries on
        ties)."""
        nonlocal i, oi, next_tick, now, dark_now
        while True:
            ta = arrivals[i] if i < n else _INF
            tr = retry_heap[0][0] if retry_heap else _INF
            to = outage_events[oi][0] if oi < len(outage_events) else _INF
            tm = min(ta, tr, to, next_tick)
            if tm > limit:
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
                        finish_s[idx] = np.nan
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
                now = ta
                offer_attempt(i, ta, bool(in_burst[i]))
                i += 1
            else:
                t, _, idx = heapq.heappop(retry_heap)
                now = t
                offer_attempt(idx, t, in_burst_at(t))
        now = max(now, limit)

    def admit_through_window(close: float) -> None:
        """Admit arrivals and due retries up to the batching-window close
        (attempts only: structural events inside the millisecond window
        are evaluated at the next dispatch boundary — a defined part of
        the semantics).  Original arrivals beat retries on exact ties."""
        nonlocal i
        while True:
            ta = arrivals[i] if i < n else _INF
            tr = retry_heap[0][0] if retry_heap else _INF
            if min(ta, tr) > close:
                break
            if ta <= tr:
                offer_attempt(i, ta, bool(in_burst[i]))
                i += 1
            else:
                t, _, idx = heapq.heappop(retry_heap)
                offer_attempt(idx, t, in_burst_at(t))

    while True:
        if queue.depth == 0:
            ta = arrivals[i] if i < n else _INF
            tr = retry_heap[0][0] if retry_heap else _INF
            if ta == _INF and tr == _INF:
                break
            advance(min(ta, tr))
            continue

        avail = fleet.next_available(now, perturb=perturb)
        next_struct = min(
            next_tick, outage_events[oi][0] if oi < len(outage_events) else _INF
        )
        if avail is None:
            advance(next_struct)
            continue
        t_free, rid = avail
        t_start = max(t_free, queue.head_arrival())
        if next_struct <= t_start:
            advance(next_struct)
            continue
        expired = queue.expire(t_start)
        if expired:
            if closed_loop:
                for idx in expired:
                    book_failure(idx, t_start, DROPPED)
            continue

        admit_through_window(batching.window_close(t_start))
        depth_at_dispatch = queue.depth
        batch = queue.take_batch(t_start)
        service_start = max(t_start, float(enq[batch[-1]]))
        service_time = engine.service_time_s(len(batch))
        if closed_loop:
            factor = runtime.service_factor(depth_at_dispatch)
            if factor != 1.0:
                # < 1: brownout, degraded but faster; > 1: congestion
                # collapse, the server is thrashing under a deep queue
                service_time *= factor
                if factor < 1.0:
                    runtime.mark_brownout(batch)
        finish = service_start + service_time
        for idx in batch:
            status[idx] = SERVED
            start_s[idx] = service_start
            finish_s[idx] = finish
            replica_of[idx] = rid
        fleet.dispatch(rid, tuple(batch), finish)
        batches += 1
        now = service_start
        if closed_loop:
            runtime.on_served(service_start, len(batch))

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
        status=status,
        start_s=start_s,
        finish_s=finish_s,
        replica_of=replica_of,
        spans=spans,
        telemetry=fleet.telemetry,
        batches=batches,
        max_queue_depth=queue.max_depth,
        faulted=bool(outage_windows or burst_windows),
        resilience=runtime.finish() if closed_loop else None,
    )


# -- the pack ---------------------------------------------------------------

SEEDS = (0, 1, 2)
ENGINE = InferenceEngine(food11_classifier(), DEVICE_CATALOG["server-cpu-16c"])


def calendar_s(outages=(), bursts=()):
    """A serving calendar from windows in seconds: outages are
    ``(start, end, dark)`` with ``dark == 0`` the full site."""

    def site(dark):
        return SERVING_SITE if dark == 0 else partial_serving_site(dark)

    sites = tuple(dict.fromkeys([SERVING_SITE] + [site(d) for _, _, d in outages]))
    return FaultCalendar(
        config=FaultPlanConfig(seed=0, sites=sites),
        horizon_hours=24.0,
        outages=tuple(OutageWindow(site(d), s / 3600.0, e / 3600.0) for s, e, d in outages),
        bursts=tuple(ApiErrorBurst(SERVING_SITE, s / 3600.0, e / 3600.0) for s, e in bursts),
    )


def assert_same(fast: TrafficResult, ref: TrafficResult) -> None:
    """Every observable of the two runs is equal, not just the digest."""
    assert fast.digest() == ref.digest()
    for name in ("status", "start_s", "finish_s", "replica_of"):
        a, b = getattr(fast, name), getattr(ref, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name
    assert repr(fast.spans) == repr(ref.spans)
    assert fast.telemetry == ref.telemetry
    assert (fast.batches, fast.max_queue_depth, fast.faulted) == (
        ref.batches, ref.max_queue_depth, ref.faulted)
    if ref.resilience is None:
        assert fast.resilience is None
        return
    for name, want in vars(ref.resilience).items():
        got = getattr(fast.resilience, name)
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape, got.tobytes()) == (
                want.dtype, want.shape, want.tobytes()), name
        else:
            assert (type(got), got) == (type(want), want), name


# open loop: ~140 rps for six minutes against one ~200 rps replica that may
# scale to three; the full outage and the flash crowd back the queue up
# past its capacity and deadline, and two bursts error the front door
OPEN_OPS = dict(
    admission=AdmissionConfig(queue_capacity=64, deadline_ms=250.0),
    batching=BatchingConfig(max_batch=8, max_queue_delay_ms=5.0),
    autoscaler=AutoscalerConfig(
        min_replicas=1, max_replicas=3, control_interval_s=10.0,
        provisioning_lag_s=30.0, target_queue_per_replica=16.0,
    ),
)
OPEN_CALENDAR = calendar_s(
    outages=[(60.0, 100.0, 0), (200.0, 250.0, 1)], bursts=[(130.0, 150.0), (300.0, 310.0)]
)


def open_trace(pattern, seed):
    return generate_trace(TrafficConfig(
        seed=seed, pattern=pattern, requests_per_day=1.2e7, duration_hours=0.1,
        flash_count=1, flash_multiplier=3.0, flash_duration_s=60.0,
    ))


@pytest.mark.parametrize("perturb", [False, True], ids=["ordered", "perturbed"])
@pytest.mark.parametrize("pattern", ["poisson", "diurnal", "flash"])
@pytest.mark.parametrize("seed", SEEDS)
def test_open_loop_matches_reference(seed, pattern, perturb):
    trace = open_trace(pattern, seed)
    args = dict(calendar=OPEN_CALENDAR, perturb=perturb, **OPEN_OPS)
    assert_same(
        sim.simulate_traffic(trace, ENGINE, **args), simulate_traffic(trace, ENGINE, **args)
    )


# closed loop: 200 rps for two minutes on the storm fleet, a 30 s outage,
# and bursts that catch first attempts and retries alike
STORM = StormConfig(requests_per_day=200.0 * 86_400.0, duration_s=120.0,
                    outage_start_s=30.0, outage_end_s=60.0)
CLOSED_OPS = dict(
    admission=AdmissionConfig(queue_capacity=STORM.queue_capacity, deadline_ms=STORM.deadline_ms),
    batching=BatchingConfig(max_batch=STORM.max_batch),
    autoscaler=AutoscalerConfig(
        min_replicas=STORM.max_replicas, max_replicas=STORM.max_replicas + 1,
        control_interval_s=STORM.control_interval_s, provisioning_lag_s=STORM.provisioning_lag_s,
    ),
)
#: brownout engages at a fifth of the queue, so degraded batches are served
BROWNOUT = SheddingConfig(brownout_depth_fraction=0.2)


def closed_case(policy, dark, seed):
    storm = replace(STORM, seed=seed, outage_dark_replicas=dark)
    trace = generate_trace(TrafficConfig(
        seed=seed, pattern="poisson", requests_per_day=storm.requests_per_day,
        duration_hours=storm.duration_hours,
    ))
    spec = policy_spec(policy, storm)
    shedding = BROWNOUT if spec.shedding is not None else None
    model = plan_resilience(trace, spec.client, shedding=shedding,
                            breaker=spec.breaker, congestion=spec.congestion)
    calendar = calendar_s(
        outages=[(storm.outage_start_s, storm.outage_end_s, dark)],
        bursts=[(15.0, 18.0), (18.0, 20.0), (70.0, 72.5)],
    )
    return trace, dict(calendar=calendar, resilience=model, **CLOSED_OPS)


@pytest.mark.parametrize("dark", [0, 1], ids=["full", "partial"])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_closed_loop_matches_reference(seed, policy, dark):
    trace, args = closed_case(policy, dark, seed)
    fast = sim.simulate_traffic(trace, ENGINE, **args)
    assert fast.resilience.retries or policy == "no-retry"
    assert_same(fast, simulate_traffic(trace, ENGINE, **args))


# sweep points: the perfbench --tiny storm cell, through the plan and
# execute halves that the sweep and the storm ladder share
SWEEP = replace(
    sweep.quick_sweep_config(),
    base=StormConfig(duration_s=150.0, outage_start_s=40.0, outage_end_s=85.0),
)


def sweep_points(seed):
    axes = replace(SWEEP.axes, loads_rps=(250.0,), outage_lengths_s=(45.0,),
                   policies=("naive-retry", "adaptive-retry+breaker"))
    config = replace(SWEEP, base=replace(SWEEP.base, seed=seed), axes=axes)
    return sweep.build_points(config)


def simulate_point(spec, loop, monkeypatch):
    monkeypatch.setattr(sweep, "simulate_traffic", loop)
    return sweep._simulate_point(spec.rung, *sweep._plan_point(spec.rung))


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_point_matches_reference(seed, k, monkeypatch):
    spec = sweep_points(seed)[k]
    fast, *verdict = simulate_point(spec, sim.simulate_traffic, monkeypatch)
    ref, *ref_verdict = simulate_point(spec, simulate_traffic, monkeypatch)
    assert verdict == ref_verdict
    assert_same(fast, ref)


# digests computed before the hot-path rewrite, by the reference loop and
# the collaborators of that time: a defect that the loop and the reference
# share through a changed collaborator cannot pass these
PINNED = {
    "open": "1dc7f948c631787fcedb3febd8d493c343efc8eb89c8f504a9a96a22b3621c51",
    "closed": "7ed345943eefe70f967241ac4031a15e19472f9b22fb97a7b9060a645dacbab6",
    "sweep": "5bc16f0ac8006c9a36e9582b355f3dd812c263f699c071aa066a5bf67dffeba3",
}


def test_literal_digests():
    trace, args = closed_case("naive-retry", 0, 0)
    got = {
        "open": sim.simulate_traffic(
            open_trace("flash", 0), ENGINE, calendar=OPEN_CALENDAR, **OPEN_OPS).digest(),
        "closed": sim.simulate_traffic(trace, ENGINE, **args).digest(),
        "sweep": sweep._run_point(sweep_points(0)[3]).digest,
    }
    assert got == PINNED
