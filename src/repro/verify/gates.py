"""The registered gates: one digest contract per engine.

A gate's ``run(quick, **keywords)`` simulates its engine once and
returns the output digest.  The :class:`Gate` flags say which of the
keywords ``workers``, ``perturb`` and ``faulted`` the engine honours;
the harness passes and checks exactly those, and ``run`` takes no
other.  No keyword may change
the digest except ``faulted``, which swaps in the gate's non-null fault
plan.  ``quick`` selects the CI-sized inputs, the full inputs are the
ones EXPERIMENTS.md documents.
"""

from __future__ import annotations

import tempfile
from collections.abc import Callable
from dataclasses import dataclass
from typing import Literal

from repro.checkpoint.killmatrix import run_kill_matrix
from repro.columnar.engine import run_columnar
from repro.core.cohort import CohortConfig, CohortSimulation
from repro.core.course import COURSE, CourseDefinition, scaled_course
from repro.core.report import records_digest
from repro.faults.plan import FaultPlanConfig, build_fault_calendar, build_serving_calendar
from repro.faults.sweep import FaultSweep
from repro.loadgen.arrivals import TrafficConfig, generate_trace
from repro.loadgen.sim import simulate_traffic
from repro.parallel.engine import run_parallel
from repro.resilience.scenario import StormConfig
from repro.resilience.sweep import SweepConfig, quick_sweep_config, run_storm, run_sweep
from repro.serving.devices import DEVICE_CATALOG
from repro.serving.engine import InferenceEngine
from repro.serving.models import food11_classifier


@dataclass(frozen=True)
class Gate:
    """One engine's digest contract, as the harness checks it."""

    run: Callable[..., str]
    #: ``perturb=True`` flips evaluation orders the engine is free to choose.
    perturb: bool = False
    #: ``workers`` fans the run out over processes.
    workers: bool = False
    #: ``"optional"``: ``faulted=True`` applies a non-null fault plan;
    #: ``"always"``: every run is already under one; ``None``: no plan.
    faults: Literal["optional", "always"] | None = None
    #: ``oracle(quick, *, faulted)``: an independent engine's digest.
    oracle: Callable[..., str] | None = None
    #: ``resume(quick)``: labels of crash cases that did not resume to
    #: the uninterrupted digest.
    resume: Callable[[bool], list[str]] | None = None


# -- the cohort engines -------------------------------------------------------------

COHORT = CohortConfig(seed=42)
#: Weekly-ish outages, real hardware attrition and API-error bursts.
COHORT_FAULTS = FaultPlanConfig(
    seed=11, outage_rate_per_week=0.3, hazard_rate_per_khour=2.0, burst_rate_per_week=1.0
)


def _cohort_faults(course: CourseDefinition, faulted: bool) -> FaultSweep | None:
    if not faulted:
        return None
    return FaultSweep(build_fault_calendar(COHORT_FAULTS, horizon_hours=course.semester_hours))


def _serial_oracle(course_for: Callable[[bool], CourseDefinition]) -> Callable[..., str]:
    """The serial testbed path (``CohortSimulation.run``) at a gate's size.

    It plans through the same planner as the engines it checks, so it is
    an independent oracle for execution (event loop vs shards vs
    kernels), not for planning.
    """

    def oracle(quick: bool, *, faulted: bool = False) -> str:
        course = course_for(quick)
        faults = _cohort_faults(course, faulted)
        return records_digest(CohortSimulation(course, COHORT, faults=faults).run())

    return oracle


def _parallel_course(quick: bool) -> CourseDefinition:
    return scaled_course(0.5 if quick else 4.0)


def _parallel(quick: bool, *, workers: int = 1, faulted: bool = False) -> str:
    course = _parallel_course(quick)
    faults = _cohort_faults(course, faulted)
    return records_digest(run_parallel(course, COHORT, workers=workers, faults=faults))


def _kill_matrix(quick: bool) -> list[str]:
    with tempfile.TemporaryDirectory(prefix="repro-killmatrix-") as root:
        return [o.case.label for o in run_kill_matrix(root, quick=quick) if not o.ok]


def _columnar_course(quick: bool) -> CourseDefinition:
    return scaled_course(0.5) if quick else COURSE


def _columnar(quick: bool, *, faulted: bool = False) -> str:
    course = _columnar_course(quick)
    faults = _cohort_faults(course, faulted)
    return run_columnar(course, COHORT, faults=faults).digest


# -- the serving engines ------------------------------------------------------------


def _loadgen(quick: bool, *, perturb: bool = False) -> str:
    rpd, hours, outages, bursts = (4e6, 0.5, 200.0, 200.0) if quick else (2e6, 24.0, 2.0, 0.0)
    trace = generate_trace(
        TrafficConfig(pattern="flash", requests_per_day=rpd, duration_hours=hours)
    )
    engine = InferenceEngine(food11_classifier(), DEVICE_CATALOG["server-cpu-16c"])
    calendar = build_serving_calendar(
        duration_hours=hours, outage_rate_per_week=outages, burst_rate_per_week=bursts
    )
    return simulate_traffic(trace, engine, calendar=calendar, perturb=perturb).digest()


def _storm(quick: bool, *, workers: int = 1, perturb: bool = False) -> str:
    config = (
        StormConfig(duration_s=600.0, outage_start_s=150.0, outage_end_s=240.0)
        if quick
        else StormConfig()
    )
    return run_storm(config, workers=workers, perturb=perturb).digest()


def _sweep(quick: bool, *, workers: int = 1, perturb: bool = False) -> str:
    config = quick_sweep_config() if quick else SweepConfig()
    return run_sweep(config, workers=workers, perturb=perturb).digest()


GATES: dict[str, Gate] = {
    "parallel": Gate(
        _parallel,
        workers=True,
        faults="optional",
        oracle=_serial_oracle(_parallel_course),
        resume=_kill_matrix,
    ),
    "columnar": Gate(_columnar, faults="optional", oracle=_serial_oracle(_columnar_course)),
    "loadgen": Gate(_loadgen, perturb=True, faults="always"),
    "storm": Gate(_storm, perturb=True, workers=True, faults="always"),
    "sweep": Gate(_sweep, perturb=True, workers=True, faults="always"),
}
