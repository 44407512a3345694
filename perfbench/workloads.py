"""The four workloads: inputs built from a seed, a timed body, output checks.

Each workload is a round of operations.  ``run`` is the timed body of one
operation and returns the program's full output.  ``summarize`` reduces
that output to the few values the checks need, so the output can be
dropped before the next operation.  ``check`` compares a summary with a
reference and returns the problems it found; ``check_round`` does the
same for conditions that span a whole round.

All four are batch jobs over simulated time, so each reports the work it
completed (``unit``) per host-second at the input size below.  Sizes are
chosen so that one operation takes a few seconds on one core, which
lets a run of a few tens of seconds take medians over repeats.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from tracing import null_span

REFERENCES = Path(__file__).with_name("references.json")

#: Import order of the set-up measurement (``setup.import_<name>_s``).
PACKAGES = ("core", "columnar", "loadgen", "resilience")

#: Stands in for a reference digest when ``--plant-mismatch`` is given.
PLANTED_DIGEST = "0" * 64


@dataclass(frozen=True)
class Op:
    """One operation of a round."""

    label: str
    arg: Any


def _expect(name: str, got, want) -> list[str]:
    return [] if got == want else [f"{name}: got {got!r}, want {want!r}"]


class Workload:
    name: str
    unit: str  # what one completed item is: a student, a request, a point
    packages: tuple[str, ...]
    default_seed: int
    #: Summary values pinned next to the digests by ``pin.py``.
    pin_keys: tuple[str, ...] = ()
    #: Opens a span around benchmark code; the traced pass swaps in its own.
    span = staticmethod(null_span)

    def __init__(self, seed: int, *, tiny: bool, plant: bool) -> None:
        self.seed = seed
        self.tiny = tiny
        self.plant = plant
        self.size = "tiny" if tiny else "full"
        self.ops: list[Op] = []
        refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
        #: The reference pinned for this seed and size, if there is one.
        self.pinned: dict[str, Any] | None = refs.get(f"{self.name}@{self.size}", {}).get(str(seed))
        self._first_digests: dict[str, str] = {}

    def setup(self) -> None:
        """Build course/config/engine objects and the round's operations."""
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def summarize(self, op: Op, output) -> dict:
        raise NotImplementedError

    def check(self, op: Op, summary: dict) -> list[str]:
        raise NotImplementedError

    def check_round(self, summaries: list[dict]) -> list[list[str]]:
        return [[] for _ in summaries]

    def check_digest(self, op: Op, digest: str) -> list[str]:
        """``op``'s digest against the pinned one.  For a seed with no pinned
        reference, every repeat in the run must reproduce the first."""
        if self.plant:
            want = PLANTED_DIGEST
        elif self.pinned is not None:
            want = self.pinned["digests"][self.ops.index(op)]
        else:
            want = self._first_digests.setdefault(op.label, digest)
        return _expect(f"{op.label} digest", digest, want)


class Semester(Workload):
    """The flagship path of ``examples/course_cost_report.py``.

    Eight consecutive seeds of the 191-student paper cohort.  The only
    workload that runs the ``cloud`` testbed, the ``common.events`` loop and
    the ``core.report`` artifacts.
    """

    name = "semester"
    unit = "students"
    packages = ("core",)
    default_seed = 42
    SEEDS_PER_ROUND = 8
    #: EXPERIMENTS.md's measured headline at seed 42 (paper cohort).
    HEADLINE_42 = {"lab_instance_hours": 109_569, "aws_total_per_student": 256,
                   "gcp_total_per_student": 227}

    def setup(self) -> None:
        core = importlib.import_module("repro.core")
        self.core = core
        self.report = importlib.import_module("repro.core.report")
        self.course = core.scaled_course(0.1) if self.tiny else core.COURSE
        self.ops = [
            Op(f"seed={s}", core.CohortConfig(seed=s))
            for s in range(self.seed, self.seed + self.SEEDS_PER_ROUND)
        ]

    def run(self, op: Op):
        course, report = self.course, self.report
        records = self.core.CohortSimulation(course, op.arg).run()
        digest = report.records_digest(records)
        with self.span("core.report.artifacts"):
            report.table1(records, course=course).render()
            report.fig1_duration_data(records, course=course).render()
            report.fig2_cost_distribution(records, course=course).render()
            report.fig3_project_usage(records, course=course).render()
            headline = report.headline_summary(records, course=course)
        return digest, headline

    def summarize(self, op: Op, output) -> dict:
        digest, headline = output
        return {"items": self.course.enrollment, "digest": digest, "headline": headline}

    def check(self, op: Op, summary: dict) -> list[str]:
        # the columnar engine is an independent implementation of the same
        # contract: its digest must equal the testbed path's for every seed
        from repro.columnar.engine import run_columnar

        want = PLANTED_DIGEST if self.plant else run_columnar(self.course, op.arg).digest
        problems = _expect(f"{op.label} digest", summary["digest"], want)
        if op.arg.seed == 42 and not self.tiny:
            for key, value in self.HEADLINE_42.items():
                problems += _expect(f"{op.label} {key}", round(summary["headline"][key]), value)
        return problems


class CohortColumnar(Workload):
    """``run_columnar`` on a scaled cohort, digest on.

    The only workload for the ``columnar`` planner, admission, kernels and
    merge.  At 50x the paper cohort (9,550 students, 230 k records) its
    working set is about 40 MiB above the import baseline: beyond a core's
    L2 and its share of the shared last-level cache.  It bypasses the
    testbed.
    """

    name = "cohort-columnar"
    unit = "students"
    packages = ("core", "columnar")
    default_seed = 42
    pin_keys = ("records",)
    SCALE = {"full": 50.0, "tiny": 1.0}

    def setup(self) -> None:
        core = importlib.import_module("repro.core")
        self.engine = importlib.import_module("repro.columnar.engine")
        self.course = core.scaled_course(self.SCALE[self.size])
        self.ops = [Op(f"seed={self.seed}", core.CohortConfig(seed=self.seed))]

    def run(self, op: Op):
        return self.engine.run_columnar(self.course, op.arg)

    def summarize(self, op: Op, output) -> dict:
        return {"items": output.students, "digest": output.digest, "records": output.records}

    def check(self, op: Op, summary: dict) -> list[str]:
        problems = _expect("students", summary["items"], self.course.enrollment)
        if self.pinned is not None:
            problems += _expect("records", summary["records"], self.pinned["records"])
        return problems + self.check_digest(op, summary["digest"])


class ServingFlash(Workload):
    """The README serving day: flash crowds, outages, autoscaling, open loop.

    ``python -m repro.loadgen --pattern flash --outage-rate 2`` with CLI
    defaults (fault seed 7), at an eighth of the README's 2e6 requests per
    day so one operation takes a few seconds.  At this rate one replica
    absorbs the flash crowds; the outage backs the queue up and drives the
    autoscaler from 1 to 8 replicas and back (8 scale-ups, 7 scale-downs at
    seed 0).  The storm sweep pins min = max, so this is the only workload
    that measures the scaling path.
    """

    name = "serving-flash"
    unit = "requests"
    packages = ("core", "loadgen")
    default_seed = 0
    pin_keys = ("loss_pct", "usd_per_million")
    REQUESTS_PER_DAY = {"full": 2.5e5, "tiny": 2e4}
    FAULT_SEED = 7

    def setup(self) -> None:
        loadgen = importlib.import_module("repro.loadgen")
        serving = importlib.import_module("repro.serving")
        # the body calls through these modules, where the traced pass patches
        self.arrivals, self.sim, self.report, self.queue = (
            loadgen.arrivals, loadgen.sim, loadgen.report, loadgen.queue)
        self.plan = importlib.import_module("repro.faults.plan")
        self.engine = serving.InferenceEngine(
            serving.food11_classifier(), serving.DEVICE_CATALOG["server-cpu-16c"])
        self.kwargs = dict(
            admission=loadgen.AdmissionConfig(queue_capacity=512, deadline_ms=1000.0),
            batching=serving.BatchingConfig(max_batch=8, max_queue_delay_ms=5.0),
            autoscaler=loadgen.AutoscalerConfig(
                min_replicas=1, max_replicas=8, provisioning_lag_s=60.0),
        )
        self.policy = loadgen.SloPolicy(p99_budget_ms=250.0, max_loss_rate=0.01)
        traffic = loadgen.TrafficConfig(
            seed=self.seed, pattern="flash",
            requests_per_day=self.REQUESTS_PER_DAY[self.size], duration_hours=24.0,
        )
        self.ops = [Op(f"seed={self.seed}", traffic)]

    def run(self, op: Op):
        traffic = op.arg
        trace = self.arrivals.generate_trace(traffic)
        calendar = self.plan.build_serving_calendar(
            duration_hours=traffic.duration_hours, seed=self.FAULT_SEED, outage_rate_per_week=2.0
        )
        result = self.sim.simulate_traffic(trace, self.engine, calendar=calendar, **self.kwargs)
        report = self.report.build_report(result, self.engine, self.policy)
        return result, report, result.digest()

    def summarize(self, op: Op, output) -> dict:
        import numpy as np

        result, report, digest = output
        q = self.queue
        served = result.status == q.SERVED
        completed = ~np.isnan(result.finish_s) & (result.replica_of >= 0)
        open_loop = (q.SERVED, q.REJECTED, q.DROPPED, q.ERROR, q.FAILED)
        return {
            "items": result.offered,
            "digest": digest,
            # exactly one terminal status per offered request: each holds an
            # open-loop terminal code, and served <=> completed on a replica
            "no_terminal": int((~np.isin(result.status, open_loop)).sum()),
            "served_incomplete": int((served & ~completed).sum()),
            "lost_completed": int((~served & completed).sum()),
            "loss_pct": round(result.loss_rate * 100, 3),
            "usd_per_million": round(report.cost_per_million_usd, 2),
        }

    def check(self, op: Op, summary: dict) -> list[str]:
        problems = []
        for key in ("no_terminal", "served_incomplete", "lost_completed"):
            problems += _expect(f"{op.label} requests {key}", summary[key], 0)
        if self.pinned is not None:
            for key in self.pin_keys:
                problems += _expect(f"{op.label} {key}", summary[key], self.pinned[key])
        return problems + self.check_digest(op, summary["digest"])


class StormSweep(Workload):
    """The closed-loop storm sweep, one grid point per operation.

    Each operation is ``run_sweep`` over a one-point ``SweepConfig`` built
    from ``quick_sweep_config()`` with the workload seed as ``base.seed``.
    A round is the quick sweep's cell at 250 rps and a 45 s outage, both
    outage scopes, naive / budgeted / adaptive clients: 6 points.  It runs
    the same ``simulate_traffic`` as serving-flash, closed-loop: retries,
    the breaker (it opens on full-site points) and shedding.
    """

    name = "storm-sweep"
    unit = "points"
    packages = ("core", "loadgen", "resilience")
    default_seed = 11
    POLICIES = ("naive-retry", "budgeted-retry+breaker", "adaptive-retry+breaker")

    def setup(self) -> None:
        sweep = importlib.import_module("repro.resilience.sweep")
        self.sweep = sweep
        quick = sweep.quick_sweep_config()
        base = replace(quick.base, seed=self.seed)
        load, length = 250.0, 45.0
        if self.tiny:
            base = replace(base, duration_s=150.0, outage_start_s=40.0, outage_end_s=85.0)
        self.ops = []
        for dark in (0, 1):
            for policy in self.POLICIES:
                axes = replace(quick.axes, loads_rps=(load,), outage_lengths_s=(length,),
                               dark_replicas=(dark,), policies=(policy,))
                config = replace(quick, base=base, axes=axes)
                self.ops.append(Op(f"{load:g}rps/{length:g}s/dark{dark}/{policy}", config))

    def run(self, op: Op):
        return self.sweep.run_sweep(op.arg)

    def summarize(self, op: Op, output) -> dict:
        (point,) = output.points
        return {"items": 1, "digest": point.digest, "policy": point.policy,
                "phase": point.phase, "amplification": point.amplification,
                "budget_fill": point.budget_fill}

    def check(self, op: Op, summary: dict) -> list[str]:
        problems = []
        if summary["policy"] != "naive-retry":
            if summary["phase"] == "LOCKED":
                problems.append(f"{op.label}: a defended client ended LOCKED")
            bound = 1.0 + summary["budget_fill"]
            if not summary["amplification"] <= bound:
                problems.append(f"{op.label} amplification {summary['amplification']} > {bound}")
        return problems + self.check_digest(op, summary["digest"])

    def check_round(self, summaries: list[dict]) -> list[list[str]]:
        naive = [s["policy"] == "naive-retry" for s in summaries]
        if any(n and s["phase"] == "LOCKED" for n, s in zip(naive, summaries)):
            return [[] for _ in summaries]
        return [["naive LOCKED region is empty"] if n else [] for n in naive]


WORKLOADS = {w.name: w for w in (Semester, CohortColumnar, ServingFlash, StormSweep)}

