"""The phase-map sweep: where does the retry storm become metastable?

`repro.resilience.scenario` proves the metastable failure mode exists at
one operating point.  This module maps the *phase boundary*: it fans the
storm over offered load × outage length × outage scope × client policy ×
budget fill × breaker threshold through
:func:`repro.parallel.engine.deterministic_map`, and classifies every
point by how the fleet came back:

* **RECOVERED** — the queue drained within the recovery grace after the
  outage ended (time-to-recovery ≤ ``recovery_grace_s``).
* **DEGRADED** — it drained, but only after the grace: the storm
  outlived the fault by more than an autoscaler reaction's worth.
* **LOCKED** — the final control tick was still congested: the storm
  never drained.  The metastable region.

The phase map is the set of classifications over the grid; the *defense
frontier* (:meth:`~repro.resilience.report.SweepReport.defense_frontier`)
is the Pareto set over ($/M effective, time-to-recovery) at one cell —
robustness priced the way ``slo_cost_frontier`` prices latency nines.

The scenario's ladder is the one-cell case: :func:`run_storm` runs its
three rungs through the same plan → simulate → price path as every grid
point, and projects each into a :class:`RungMetrics` instead of a
:class:`PointMetrics`.

Determinism: a storm is a pure function of its :class:`RungSpec`.  All
randomness (trace, jitter grid, tier draws) resolves in
:func:`_plan_point`; :func:`_simulate_point` — registered as a PUR001
shard entry point — is RNG-free and clock-free, so every storm digest is
byte-identical under rerun, evaluation-order perturbation, and any
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.common.errors import ValidationError
from repro.core.costmodel import quality_adjusted_served
from repro.faults.plan import build_outage_calendar
from repro.loadgen.arrivals import TrafficConfig, generate_trace
from repro.loadgen.autoscaler import AutoscalerConfig
from repro.loadgen.queue import AdmissionConfig
from repro.loadgen.report import build_report
from repro.loadgen.sim import TrafficResult, simulate_traffic
from repro.parallel.engine import deterministic_map
from repro.resilience.clients import plan_resilience
from repro.resilience.report import PointMetrics, SweepReport
from repro.resilience.scenario import (
    DEFENDED_POLICIES,
    POLICIES,
    RungMetrics,
    RungSpec,
    StormConfig,
    StormReport,
    policy_spec,
    recovery_from_samples,
    storm_ladder,
)
from repro.serving import DEVICE_CATALOG, BatchingConfig, InferenceEngine, food11_classifier

#: The three phases, benign first.  Order matters: it is the collapse
#: order for "worst phase in a cell" renderings.
PHASES = ("RECOVERED", "DEGRADED", "LOCKED")

SECONDS_PER_DAY = 86_400.0


def classify(
    time_to_recovery_s: float | None, locked: bool, *, recovery_grace_s: float
) -> str:
    """One point's phase from its recovery measurement.

    ``locked`` (final tick still congested) is LOCKED no matter what;
    otherwise the time to the *last* congested tick after the outage
    decides RECOVERED (≤ grace) vs DEGRADED (> grace).
    """
    if locked:
        return "LOCKED"
    assert time_to_recovery_s is not None
    return "RECOVERED" if time_to_recovery_s <= recovery_grace_s else "DEGRADED"


@dataclass(frozen=True)
class SweepAxes:
    """The grid: what varies between points.

    Undefended policies (no-retry, naive) have no budget and no breaker,
    so the fill and threshold axes do not apply to them — they run once
    per (load, length, scope) cell.  Defended policies take the full
    cross product.  The default grid is 336 points: 4 × 3 × 2 cells ×
    (2 undefended + 3 defended × 2 fills × 2 thresholds).
    """

    loads_rps: tuple[float, ...] = (150.0, 250.0, 325.0, 375.0)
    outage_lengths_s: tuple[float, ...] = (60.0, 120.0, 180.0)
    #: Outage scope: 0 = full site, k > 0 = k replicas dark (partial).
    dark_replicas: tuple[int, ...] = (0, 1)
    policies: tuple[str, ...] = POLICIES
    budget_fills: tuple[float, ...] = (0.1, 0.5)
    breaker_error_thresholds: tuple[float, ...] = (0.5, 0.25)

    def __post_init__(self) -> None:
        for name in (
            "loads_rps",
            "outage_lengths_s",
            "dark_replicas",
            "policies",
            "budget_fills",
            "breaker_error_thresholds",
        ):
            if not getattr(self, name):
                raise ValidationError(f"sweep axis {name} cannot be empty")
        unknown = [p for p in self.policies if p not in POLICIES]
        if unknown:
            raise ValidationError(f"unknown policies {unknown!r}; have {POLICIES}")

    @property
    def cells(self) -> int:
        """(load, length, scope) combinations."""
        return (
            len(self.loads_rps) * len(self.outage_lengths_s) * len(self.dark_replicas)
        )

    @property
    def points(self) -> int:
        """Total grid size (what :func:`build_points` will emit)."""
        undefended = sum(1 for p in self.policies if p not in DEFENDED_POLICIES)
        defended = len(self.policies) - undefended
        per_cell = undefended + defended * len(self.budget_fills) * len(
            self.breaker_error_thresholds
        )
        return self.cells * per_cell


@dataclass(frozen=True)
class SweepConfig:
    """The whole campaign: a base storm, the axes, and the phase contract.

    ``base`` supplies everything the axes don't sweep (seed, fleet size,
    queue capacity, the congestion-collapse model...); each point
    replaces its offered load, outage window, scope, and budget fill.
    ``recovery_grace_s`` is the RECOVERED/DEGRADED boundary — defaulted
    to two provisioning lags: a recovery the autoscaler itself could not
    have beaten is not "degraded", it is as good as recovery gets.
    """

    base: StormConfig = StormConfig(
        duration_s=600.0, outage_start_s=150.0, outage_end_s=240.0
    )
    axes: SweepAxes = SweepAxes()
    recovery_grace_s: float = 60.0

    def __post_init__(self) -> None:
        if self.recovery_grace_s < 0:
            raise ValidationError(
                f"recovery_grace_s cannot be negative: {self.recovery_grace_s!r}"
            )
        tail = self.base.duration_s - self.base.outage_start_s
        for length in self.axes.outage_lengths_s:
            if length <= 0 or self.base.outage_start_s + length >= self.base.duration_s:
                raise ValidationError(
                    f"outage length {length!r} s does not fit the run: start "
                    f"{self.base.outage_start_s} s + length must stay under "
                    f"duration {self.base.duration_s} s (tail {tail} s)"
                )
        for dark in self.axes.dark_replicas:
            if not (0 <= dark < self.base.max_replicas):
                raise ValidationError(
                    f"dark_replicas {dark!r} must leave a survivor of the "
                    f"{self.base.max_replicas}-replica fleet"
                )


def quick_sweep_config() -> SweepConfig:
    """The CI-sized campaign: 24 points, minutes not tens of minutes.

    Small enough that ``python -m repro.verify sweep --quick`` (5 full
    runs) fits a CI job, while still crossing every new mechanism: both outage
    scopes, a naive rung, and two defended policies including the
    adaptive client.
    """
    return SweepConfig(
        base=StormConfig(duration_s=300.0, outage_start_s=75.0, outage_end_s=165.0),
        axes=SweepAxes(
            loads_rps=(250.0, 325.0),
            outage_lengths_s=(45.0, 90.0),
            dark_replicas=(0, 1),
            policies=(
                "naive-retry",
                "budgeted-retry+breaker",
                "adaptive-retry+breaker",
            ),
            budget_fills=(0.1,),
            breaker_error_thresholds=(0.5,),
        ),
    )


@dataclass(frozen=True)
class PointSpec:
    """One grid point, fully resolved and picklable (the pool item)."""

    load_rps: float
    outage_length_s: float
    dark_replicas: int
    policy: str
    budget_fill: float
    breaker_error_threshold: float | None
    recovery_grace_s: float
    rung: RungSpec


def build_points(
    config: SweepConfig, *, perturb: bool = False
) -> tuple[PointSpec, ...]:
    """Expand the axes into the full, ordered point list.

    Iteration order is the fixed axis order (load, length, scope,
    policy, fill, threshold), so the point list — and therefore the
    report digest — is a pure function of the config.  ``perturb`` rides
    into every spec (it must not change any digest; the ``sweep`` gate
    of :mod:`repro.verify` pins that).
    """
    base = config.base
    points: list[PointSpec] = []
    for load in config.axes.loads_rps:
        for length in config.axes.outage_lengths_s:
            for dark in config.axes.dark_replicas:
                for policy in config.axes.policies:
                    defended = policy in DEFENDED_POLICIES
                    fills = config.axes.budget_fills if defended else (base.retry_budget_fill,)
                    thresholds = (
                        config.axes.breaker_error_thresholds if defended else (None,)
                    )
                    for fill in fills:
                        for threshold in thresholds:
                            storm = replace(
                                base,
                                requests_per_day=load * SECONDS_PER_DAY,
                                outage_end_s=base.outage_start_s + length,
                                outage_dark_replicas=dark,
                                retry_budget_fill=fill,
                            )
                            points.append(
                                PointSpec(
                                    load_rps=load,
                                    outage_length_s=length,
                                    dark_replicas=dark,
                                    policy=policy,
                                    budget_fill=fill,
                                    breaker_error_threshold=threshold,
                                    recovery_grace_s=config.recovery_grace_s,
                                    rung=policy_spec(
                                        policy,
                                        storm,
                                        breaker_error_threshold=threshold,
                                        perturb=perturb,
                                    ),
                                )
                            )
    return tuple(points)


def _plan_point(rung: RungSpec):
    """The plan-time half of one storm: every random draw happens here.

    Trace generation, the outage calendar, and the resilience plan
    (jitter grid, tier assignment) are all seeded and resolved before
    the simulation starts — the execute half below never draws.
    """
    storm = rung.storm
    trace = generate_trace(
        TrafficConfig(
            seed=storm.seed,
            pattern="poisson",
            requests_per_day=storm.requests_per_day,
            duration_hours=storm.duration_hours,
        )
    )
    calendar = build_outage_calendar(
        outage_start_s=storm.outage_start_s,
        outage_end_s=storm.outage_end_s,
        horizon_hours=storm.duration_hours,
        dark_replicas=storm.outage_dark_replicas,
    )
    model = plan_resilience(
        trace,
        rung.client,
        shedding=rung.shedding,
        breaker=rung.breaker,
        congestion=rung.congestion,
    )
    engine = InferenceEngine(food11_classifier(), DEVICE_CATALOG["server-cpu-16c"])
    return trace, engine, calendar, model


def _simulate_point(rung: RungSpec, trace, engine, calendar, model):
    """The execute half of one storm: simulate and measure recovery.

    Registered in ``SHARD_ENTRY_POINTS`` (PUR001): nothing reachable
    from here may construct RNG state, read a clock, or mutate module
    globals — all of that already happened in :func:`_plan_point`.
    Returns ``(result, time_to_recovery_s, locked)``.
    """
    storm = rung.storm
    result = simulate_traffic(
        trace,
        engine,
        admission=AdmissionConfig(
            queue_capacity=storm.queue_capacity, deadline_ms=storm.deadline_ms
        ),
        batching=BatchingConfig(max_batch=storm.max_batch),
        autoscaler=AutoscalerConfig(
            min_replicas=storm.max_replicas,
            max_replicas=storm.max_replicas,
            control_interval_s=storm.control_interval_s,
            provisioning_lag_s=storm.provisioning_lag_s,
        ),
        calendar=calendar,
        resilience=model,
        perturb=rung.perturb,
    )
    outcome = result.resilience
    assert outcome is not None
    ttr, locked = recovery_from_samples(
        outcome.depth_samples,
        outage_end_s=storm.outage_end_s,
        congestion_depth=storm.congestion_depth,
    )
    return result, ttr, locked


def _measure_storm(rung: RungSpec) -> tuple[TrafficResult, dict]:
    """Plan, simulate and price one storm: the ladder's and the sweep's runner.

    Returns the full result and the twelve observables that
    :class:`RungMetrics` and :class:`PointMetrics` share, by field name.
    Brownout servings count at the shedding config's quality discount in
    the $/M effective figure.
    """
    trace, engine, calendar, model = _plan_point(rung)
    result, ttr, locked = _simulate_point(rung, trace, engine, calendar, model)
    outcome = result.resilience
    cost = build_report(result, engine).cost_usd
    discount = rung.shedding.quality_discount if rung.shedding is not None else 0.0
    effective = quality_adjusted_served(
        result.served - outcome.brownout_served, outcome.brownout_served, discount
    )
    return result, dict(
        digest=result.digest(),
        offered=result.offered,
        served=result.served,
        shed=result.shed,
        loss_rate=result.loss_rate,
        p99_ms=result.p99_ms,
        amplification=outcome.amplification,
        breaker_opens=outcome.breaker_opens,
        time_to_recovery_s=ttr,
        locked=locked,
        cost_usd=cost,
        usd_per_million_effective=(cost / effective * 1e6 if effective else None),
    )


def _run_point(spec: PointSpec) -> PointMetrics:
    """Pool entry point: one sweep point, measured and classified."""
    result, shared = _measure_storm(spec.rung)
    phase = classify(
        shared["time_to_recovery_s"],
        shared["locked"],
        recovery_grace_s=spec.recovery_grace_s,
    )
    return PointMetrics(
        load_rps=spec.load_rps,
        outage_length_s=spec.outage_length_s,
        dark_replicas=spec.dark_replicas,
        policy=spec.policy,
        budget_fill=spec.budget_fill,
        breaker_error_threshold=spec.breaker_error_threshold,
        phase=phase,
        retries_declined_deadline=result.resilience.retries_declined_deadline,
        **shared,
    )


def _run_ladder_rung(rung: RungSpec) -> RungMetrics:
    """Pool entry point: one ladder rung, measured."""
    result, shared = _measure_storm(rung)
    outcome = result.resilience
    return RungMetrics(
        name=rung.name,
        attempts_total=outcome.attempts_total,
        brownout_served=outcome.brownout_served,
        **shared,
    )


def run_sweep(
    config: SweepConfig | None = None, *, workers: int = 1, perturb: bool = False
) -> SweepReport:
    """Run the whole campaign; point fan-out via :func:`deterministic_map`.

    Neither ``workers`` nor ``perturb`` may change
    :meth:`~repro.resilience.report.SweepReport.digest` — the sweep's
    determinism contract, pinned by ``python -m repro.verify sweep`` and
    CI.
    """
    config = config if config is not None else SweepConfig()
    points = build_points(config, perturb=perturb)
    metrics = deterministic_map(_run_point, points, workers=workers)
    return SweepReport(config=config, points=tuple(metrics))


def run_storm(
    config: StormConfig | None = None, *, workers: int = 1, perturb: bool = False
) -> StormReport:
    """Run the three-rung ladder: a one-cell sweep over the policy axis.

    The rungs come from :func:`storm_ladder`, which carries ``config``
    itself into every spec.  A grid point rebuilds its storm from its
    coordinates instead, and ``load_rps * 86400`` does not always
    round-trip a caller's ``requests_per_day``.  Neither ``workers`` nor
    ``perturb`` may change :meth:`StormReport.digest` — the ladder's
    determinism contract, pinned by ``python -m repro.verify storm``.
    """
    config = config if config is not None else StormConfig()
    specs = storm_ladder(config, perturb=perturb)
    metrics = deterministic_map(_run_ladder_rung, specs, workers=workers)
    return StormReport(config=config, rungs=tuple(metrics))


__all__ = [
    "PHASES",
    "PointSpec",
    "SweepAxes",
    "SweepConfig",
    "build_points",
    "classify",
    "quick_sweep_config",
    "run_storm",
    "run_sweep",
]
