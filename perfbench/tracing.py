"""The traced pass: wrap each layer's public callables from outside the package.

Every target below is patched at the name its caller looks it up by (a
module global read at call time, or a class attribute for methods), so
no file under ``src/`` changes.  Spans live in memory and are written
once the workload ends.  A layer's self time is its span minus the time
its traced children cover.

Three kinds of wrapper:

* ``SPAN`` keeps one record per call: (id, name, start, end, parent, op).
* ``AGG`` is for methods that fire millions of times per operation: it
  keeps only (calls, total seconds) per operation.  Their wrapper cost
  lands inside the measured interval, so their ``self_s`` values are
  upper bounds.
* ``GEN`` wraps a generator function; each resumption is one ``AGG`` call,
  so the consumer's work between items is not counted.

Counters come from the public results the wrapped calls return
(``CohortPlan``, ``ColumnarPlan``, ``RequestTrace``, ``TrafficResult``
with its ``FleetTelemetry`` and ``ResilienceOutcome``).
"""

from __future__ import annotations

import contextlib
import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

SPAN = "span"
AGG = "agg"
GEN = "gen"  # a generator: each resumption is one aggregated call


def _plan_cohort(c, plan):
    c["core.cohort.plan_cohort.activities"] += plan.activity_count


def _run_until(c, fired):
    c["common.events.fired"] += fired


def _records(c, records):
    c["core.usage.records"] += len(records)


def _plan_columns(c, plan):
    c["columnar.planner.activities"] += plan.tables.activity_count
    c["columnar.admission.fast_paths"] += sum(bool(v) for v in plan.sweep_info.values())
    c["columnar.admission.sweeps"] += len(plan.sweep_info)


def _batch(c, batch):
    c["columnar.kernels.records"] += len(batch)


def _trace(c, trace):
    c["loadgen.arrivals.requests"] += len(trace)


def _traffic(c, result):
    c["loadgen.sim.batches"] += result.batches
    c["loadgen.sim.served"] += result.served
    c["loadgen.autoscaler.scale_ups"] += result.telemetry.scale_ups
    c["loadgen.autoscaler.scale_downs"] += result.telemetry.scale_downs
    outcome = result.resilience
    if outcome is not None:
        c["resilience.clients.attempts"] += outcome.attempts_total
        c["resilience.clients.offered"] += result.offered
        c["resilience.clients.served"] += result.served
        c["resilience.clients.retries"] += outcome.retries
        c["common.breaker.opens"] += outcome.breaker_opens
        c["resilience.shedding.shed"] += outcome.shed_breaker + outcome.shed_tier


def _sweep(c, report):
    c["resilience.sweep.locked_points"] += sum(p.phase == "LOCKED" for p in report.points)


#: (layer name, module, attribute the caller looks up, kind, counter hook)
TARGETS = (
    ("core.cohort.plan_cohort", "repro.core.cohort", "plan_cohort", SPAN, _plan_cohort),
    ("core.cohort.execute_shard", "repro.core.cohort", "execute_shard", SPAN, None),
    ("core.usage.canonicalize_records", "repro.core.cohort", "canonicalize_records", SPAN, _records),
    ("core.report.records_digest", "repro.core.report", "records_digest", SPAN, None),
    ("common.events.run_until", "repro.common.events", "EventLoop.run_until", SPAN, _run_until),
    ("cloud.leases.create_lease", "repro.cloud.leases", "LeaseManager.create_lease", AGG, None),
    ("columnar.planner.plan_columns", "repro.columnar.engine", "plan_columns", SPAN, _plan_columns),
    ("columnar.admission.sweep_kvm_quota", "repro.columnar.admission", "sweep_kvm_quota", SPAN, None),
    ("columnar.admission.sweep_lease_calendar", "repro.columnar.admission", "sweep_lease_calendar", SPAN, None),
    ("columnar.kernels.iter_record_batches", "repro.columnar.engine", "iter_record_batches", GEN, _batch),
    ("columnar.merge.add", "repro.columnar.merge", "CanonicalMerger.add", SPAN, None),
    ("columnar.merge.finalize", "repro.columnar.merge", "CanonicalMerger.finalize", SPAN, None),
    ("loadgen.arrivals.generate_trace", "repro.loadgen.arrivals", "generate_trace", SPAN, _trace),
    ("loadgen.arrivals.generate_trace", "repro.resilience.sweep", "generate_trace", SPAN, _trace),
    ("faults.plan.calendar", "repro.faults.plan", "build_serving_calendar", SPAN, None),
    ("faults.plan.calendar", "repro.resilience.sweep", "build_outage_calendar", SPAN, None),
    ("loadgen.sim.simulate_traffic", "repro.loadgen.sim", "simulate_traffic", SPAN, _traffic),
    ("loadgen.sim.simulate_traffic", "repro.resilience.sweep", "simulate_traffic", SPAN, _traffic),
    ("loadgen.sim.digest", "repro.loadgen.sim", "TrafficResult.digest", SPAN, None),
    ("loadgen.queue.offer", "repro.loadgen.queue", "RequestQueue.offer", AGG, None),
    ("loadgen.queue.take_batch", "repro.loadgen.queue", "RequestQueue.take_batch", AGG, None),
    ("loadgen.queue.expire", "repro.loadgen.queue", "RequestQueue.expire", AGG, None),
    ("loadgen.autoscaler.next_available", "repro.loadgen.autoscaler", "ReplicaSet.next_available", AGG, None),
    ("loadgen.autoscaler.dispatch", "repro.loadgen.autoscaler", "ReplicaSet.dispatch", AGG, None),
    ("loadgen.autoscaler.tick", "repro.loadgen.autoscaler", "ReplicaSet.tick", AGG, None),
    ("serving.engine.service_time_s", "repro.serving.engine", "InferenceEngine.service_time_s", AGG, None),
    ("loadgen.report.build_report", "repro.loadgen.report", "build_report", SPAN, None),
    ("loadgen.report.build_report", "repro.resilience.sweep", "build_report", SPAN, None),
    ("resilience.sweep.run_sweep", "repro.resilience.sweep", "run_sweep", SPAN, _sweep),
    ("resilience.clients.plan_resilience", "repro.resilience.sweep", "plan_resilience", SPAN, None),
    ("resilience.clients.admit", "repro.resilience.clients", "ClosedLoopRuntime.admit", AGG, None),
    ("resilience.clients.on_failure", "repro.resilience.clients", "ClosedLoopRuntime.on_failure", AGG, None),
    ("resilience.clients.on_served", "repro.resilience.clients", "ClosedLoopRuntime.on_served", AGG, None),
    ("resilience.clients.begin_attempt", "repro.resilience.clients", "ClosedLoopRuntime.begin_attempt", AGG, None),
)


#: Spans the benchmark opens around its own calls.
BENCH_SPANS = ("core.report.artifacts",)

#: Counters the hooks fill; every one reads 0 on a workload that never moves it.
COUNTERS = (
    "core.cohort.plan_cohort.activities", "common.events.fired", "core.usage.records",
    "columnar.planner.activities", "columnar.admission.fast_paths", "columnar.admission.sweeps",
    "columnar.kernels.records", "loadgen.arrivals.requests", "loadgen.sim.batches",
    "loadgen.sim.served", "loadgen.autoscaler.scale_ups", "loadgen.autoscaler.scale_downs",
    "resilience.clients.attempts", "resilience.clients.offered", "resilience.clients.served",
    "resilience.clients.retries", "common.breaker.opens", "resilience.shedding.shed",
    "resilience.sweep.locked_points",
)


class Tracer:
    """Span stack, per-layer self time and call counts for one traced round."""

    def __init__(self) -> None:
        self.op = -1  # the operation (round position) spans belong to
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op)
        self.aggregates: list[tuple[int, dict]] = []  # (op, name -> [calls, seconds])
        names = {t[0] for t in TARGETS} | set(BENCH_SPANS)
        self.self_s: dict[str, float] = dict.fromkeys(names, 0.0)
        self.calls: dict[str, int] = dict.fromkeys(names, 0)
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self._agg_total: defaultdict[str, float] = defaultdict(float)  # AGG and GEN only
        self._agg_mark: tuple[dict, dict] = ({}, {})
        # frames are [span id or None, seconds covered by children]
        self._stack: list[list] = [[None, 0.0]]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def set_op(self, op: int) -> None:
        """Close the aggregates of the running operation and start ``op``."""
        calls, total = self._agg_mark
        if self.op >= 0:
            self.aggregates.append((self.op, {
                name: [self.calls[name] - calls.get(name, 0), seconds - total.get(name, 0.0)]
                for name, seconds in self._agg_total.items()
                if self.calls[name] != calls.get(name, 0)
            }))
        self._agg_mark = (dict(self.calls), dict(self._agg_total))
        self.op = op

    # -- accounting -----------------------------------------------------------

    def _record(self, name: str, frame: list, start: float, end: float) -> None:
        """Close a stored span; ``frame`` is already off the stack."""
        stack = self._stack
        duration = end - start
        stack[-1][1] += duration
        self.self_s[name] += duration - frame[1]
        self.calls[name] += 1
        parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
        self.spans.append((frame[0], name, start, end, parent, self.op))

    def _open(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark code (e.g. the report artifacts)."""
        frame = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self._record(name, frame, start, end)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, kind: str, fn, hook):
        stack = self._stack
        counters = self.counters
        self_s = self.self_s
        calls = self.calls
        agg_total = self._agg_total

        if kind == AGG:

            def agg_wrapper(*args, **kwargs):
                frame = [None, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = perf_counter() - start
                    stack.pop()
                    stack[-1][1] += duration
                    self_s[name] += duration - frame[1]
                    calls[name] += 1
                    agg_total[name] += duration

            return agg_wrapper

        if kind == GEN:

            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = [None, 0.0]
                    stack.append(frame)
                    start = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        duration = perf_counter() - start
                        stack.pop()
                        stack[-1][1] += duration
                        self_s[name] += duration - frame[1]
                        calls[name] += 1
                        agg_total[name] += duration
                    hook(counters, item)
                    yield item

            return gen_wrapper

        tracer = self

        def span_wrapper(*args, **kwargs):
            frame = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._record(name, frame, start, end)
            if hook is not None:
                hook(counters, result)
            return result

        return span_wrapper

    def install(self) -> None:
        """Patch every target; each must exist, or the traced pass is wrong."""
        for name, module, attr, kind, hook in TARGETS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            self._patches.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, kind, original, hook))

    def uninstall(self) -> None:
        self.set_op(-1)
        for owner, leaf, original in reversed(self._patches):
            setattr(owner, leaf, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans, then per-operation aggregates, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            for op, table in self.aggregates:
                for name, (calls, seconds) in sorted(table.items()):
                    fh.write(json.dumps({"name": name, "op": op, "calls": calls,
                                         "seconds": seconds}) + "\n")


def null_span(name: str):
    """The untraced stand-in for :meth:`Tracer.span`."""
    return contextlib.nullcontext()
