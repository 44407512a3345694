"""Plan-time fault resolution: seeded calendars and the activity-table sweep.

Mirrors the cohort's plan → execute → merge architecture: all fault
randomness is drawn serially at plan time from one
``SeedSequence(fault_seed).spawn(3)`` tree — (outage stream, burst
stream, hazard stream) — and resolved into rewritten rows of the
planner's raw activity tables, with fully absolute times, before the
admission sweeps run.  Execution stays RNG-free, so every engine's
digest contract survives any fault plan, and the *empty* calendar
returns the very same tables (the null plan is a strict no-op).

Three fault classes, matching what real testbeds throw at a course:

* **Site outages / maintenance windows** — Poisson arrivals per site,
  lognormal durations.  Starts inside a window are delayed (retry with
  backoff); instances running into a window are force-terminated and
  relaunched after it, redoing part of their work.
* **Hardware failures** — per-instance exponential (MTBF-style) hazard
  draws.  A failed lab segment ends early; the student relaunches under
  the cohort's :class:`~repro.common.retry.RetryPolicy`, paying redo
  hours, or abandons the lab when attempts run out.
* **Transient API-error bursts** — short windows during which
  provisioning calls fail with 503/429-style errors; starts retry on a
  tight exponential-backoff policy.

Every rewrite is recorded in a :class:`FaultLedger` so
:func:`repro.core.report.fault_accounting` can price what the faults
cost (lost instance-hours, redo hours, per-student deltas).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.common.errors import InvalidStateError, ValidationError
from repro.common.retry import RetryPolicy
from repro.core.cohort import (
    COURSE,
    EDGE_SITE,
    KVM_SITE,
    METAL_SITE,
    CohortConfig,
    CohortPlan,
    CourseDefinition,
    plan_cohort,
)

if TYPE_CHECKING:
    from repro.columnar.planner import ActivityTables
    from repro.columnar.schema import ColumnSchema

#: Segments shorter than this are dropped rather than scheduled (a VM set
#: that would be torn down the instant it boots produces no usage).
_MIN_SEGMENT_HOURS = 1e-6

#: The logical site the serving stack runs on.  ``repro.loadgen`` builds
#: its fault calendars against this site name so serving outages and
#: API-error bursts draw from the same seeded generators as the testbed's,
#: without ever colliding with the cohort sites' windows.
SERVING_SITE = "serving"


def partial_serving_site(dark_replicas: int) -> str:
    """The scoped site name for a *partial* serving outage.

    ``serving/dark-k`` means the window strikes only ``k`` replicas of
    the fleet and caps capacity by ``k`` for its duration — the
    one-replica-of-N brownfield outage, as opposed to the full-site
    window spelled :data:`SERVING_SITE`.  The scope rides in the site
    name so :class:`FaultCalendar` needs no schema change and existing
    full-site consumers (which filter on ``SERVING_SITE`` exactly) are
    untouched.
    """
    if dark_replicas < 1:
        raise ValidationError(
            f"a partial outage darkens at least one replica: {dark_replicas!r}"
        )
    return f"{SERVING_SITE}/dark-{dark_replicas}"


def serving_scope(site: str) -> int | None:
    """How many replicas a serving-site window darkens.

    ``0`` = the full site (:data:`SERVING_SITE`), ``k > 0`` = a partial
    window from :func:`partial_serving_site`, ``None`` = not a serving
    window at all (a cohort site).
    """
    if site == SERVING_SITE:
        return 0
    prefix = f"{SERVING_SITE}/dark-"
    if site.startswith(prefix):
        try:
            dark = int(site[len(prefix):])
        except ValueError:
            return None
        return dark if dark >= 1 else None
    return None


# -- configuration -----------------------------------------------------------------


@dataclass(frozen=True)
class FaultPlanConfig:
    """Knobs of the fault model.  All rates default to zero: the default
    config IS the null plan, and a null plan is a byte-exact no-op.

    ``seed`` is independent of the cohort seed — fault streams never
    touch the cohort's ``SeedSequence`` tree, so enabling faults cannot
    perturb behaviour draws (and disabling them restores the baseline
    artifacts bit-for-bit).
    """

    seed: int = 7
    #: Site outages: Poisson arrivals per site per week, lognormal length.
    outage_rate_per_week: float = 0.0
    outage_mean_hours: float = 6.0
    outage_sigma: float = 0.6
    #: Hardware failures: exponential hazard per instance, per 1000 hours.
    hazard_rate_per_khour: float = 0.0
    #: Transient API-error bursts: Poisson arrivals per site per week.
    burst_rate_per_week: float = 0.0
    burst_mean_hours: float = 0.5
    burst_sigma: float = 0.5
    #: Fraction of a killed segment's work the relaunch must redo (the
    #: part since the last "save your work" point).
    redo_fraction: float = 0.5
    #: Sites the outage/burst generators cover.
    sites: tuple[str, ...] = (KVM_SITE, METAL_SITE, EDGE_SITE)

    def __post_init__(self) -> None:
        for name in ("outage_rate_per_week", "hazard_rate_per_khour", "burst_rate_per_week"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} cannot be negative: {getattr(self, name)!r}")
        if self.outage_mean_hours <= 0 or self.burst_mean_hours <= 0:
            raise ValidationError(f"window mean hours must be positive: {self!r}")
        if self.outage_sigma < 0 or self.burst_sigma < 0:
            raise ValidationError(f"window sigma cannot be negative: {self!r}")
        if not (0.0 <= self.redo_fraction <= 1.0):
            raise ValidationError(f"redo fraction must be in [0, 1]: {self.redo_fraction!r}")
        if not self.sites:
            raise ValidationError("fault plan needs at least one site")

    @property
    def is_null(self) -> bool:
        """True when no fault class can ever fire."""
        return (
            self.outage_rate_per_week == 0
            and self.hazard_rate_per_khour == 0
            and self.burst_rate_per_week == 0
        )


# -- the calendar ------------------------------------------------------------------


@dataclass(frozen=True)
class OutageWindow:
    """One site-wide outage / maintenance window [start, end)."""

    site: str
    start: float
    end: float


@dataclass(frozen=True)
class ApiErrorBurst:
    """One transient API-error window [start, end) on a site."""

    site: str
    start: float
    end: float


@dataclass(frozen=True)
class FaultCalendar:
    """The fully resolved fault schedule for one semester.

    Static data only — the calendar is what makes fault injection
    deterministic: every consumer (the plan sweep, the runtime injector,
    the report) reads the same windows.  The hazard stream is *not*
    materialized here (failure times depend on instance lifetimes, which
    the sweep resolves); :meth:`hazard_rng` re-derives its seeded
    generator so every sweep over this calendar draws identically.
    """

    config: FaultPlanConfig
    horizon_hours: float
    outages: tuple[OutageWindow, ...]
    bursts: tuple[ApiErrorBurst, ...]

    @property
    def empty(self) -> bool:
        """No windows and no hazard: applying this calendar is a no-op."""
        return (
            not self.outages
            and not self.bursts
            and self.config.hazard_rate_per_khour == 0
        )

    def hazard_rng(self) -> np.random.Generator:
        """The hazard stream (third spawn of the fault seed tree)."""
        return np.random.default_rng(np.random.SeedSequence(self.config.seed).spawn(3)[2])

    # -- lookups (linear scans; calendars hold dozens of windows, not thousands)

    def outage_at(self, site: str, t: float) -> OutageWindow | None:
        for w in self.outages:
            if w.site == site and w.start <= t < w.end:
                return w
        return None

    def burst_at(self, site: str, t: float) -> ApiErrorBurst | None:
        for w in self.bursts:
            if w.site == site and w.start <= t < w.end:
                return w
        return None

    def outage_over(self, site: str, start: float, end: float) -> OutageWindow | None:
        """Earliest outage overlapping [start, end), if any."""
        best: OutageWindow | None = None
        for w in self.outages:
            if w.site == site and w.end > start and w.start < end:
                if best is None or w.start < best.start:
                    best = w
        return best

    def next_clear(self, site: str, t: float) -> float:
        """First instant >= ``t`` outside every outage window on ``site``."""
        moved = True
        while moved:
            moved = False
            w = self.outage_at(site, t)
            if w is not None:
                t = w.end
                moved = True
        return t


def _lognormal_hours(rng: np.random.Generator, mean: float, sigma: float) -> float:
    """A lognormal draw whose *distribution mean* is exactly ``mean``."""
    mu = np.log(mean) - sigma**2 / 2.0
    return float(rng.lognormal(mu, sigma))


def build_fault_calendar(
    config: FaultPlanConfig, *, horizon_hours: float
) -> FaultCalendar:
    """Resolve the seeded generators into a static window calendar.

    Streams: ``SeedSequence(config.seed).spawn(3)`` → (outages, bursts,
    hazard).  Sites are walked in the config's fixed order, so the
    calendar is a pure function of (config, horizon).
    """
    if horizon_hours <= 0:
        raise ValidationError(f"horizon must be positive: {horizon_hours!r}")
    outage_ss, burst_ss, _hazard_ss = np.random.SeedSequence(config.seed).spawn(3)
    weeks = horizon_hours / 168.0

    outages: list[OutageWindow] = []
    rng = np.random.default_rng(outage_ss)
    for site in config.sites:
        for _ in range(int(rng.poisson(config.outage_rate_per_week * weeks))):
            start = float(rng.uniform(0.0, horizon_hours))
            length = _lognormal_hours(rng, config.outage_mean_hours, config.outage_sigma)
            outages.append(
                OutageWindow(site=site, start=start, end=min(start + length, horizon_hours))
            )

    bursts: list[ApiErrorBurst] = []
    rng = np.random.default_rng(burst_ss)
    for site in config.sites:
        for _ in range(int(rng.poisson(config.burst_rate_per_week * weeks))):
            start = float(rng.uniform(0.0, horizon_hours))
            length = _lognormal_hours(rng, config.burst_mean_hours, config.burst_sigma)
            bursts.append(
                ApiErrorBurst(site=site, start=start, end=min(start + length, horizon_hours))
            )

    return FaultCalendar(
        config=config,
        horizon_hours=horizon_hours,
        outages=tuple(sorted(outages, key=lambda w: (w.start, w.site, w.end))),
        bursts=tuple(sorted(bursts, key=lambda w: (w.start, w.site, w.end))),
    )


# -- the ledger --------------------------------------------------------------------


@dataclass(frozen=True)
class FaultEvent:
    """One resolved fault outcome, in instance-hours.

    ``kind`` is one of ``hw_kill`` / ``outage_kill`` (forced
    termination + relaunch), ``delayed_start`` (window pushed the start),
    ``abandoned`` (retry budget exhausted; the remaining work never ran).
    """

    kind: str
    site: str
    user: str
    lab: str
    resource_type: str
    at: float
    lost_hours: float = 0.0  # planned instance-hours that never ran
    redo_hours: float = 0.0  # extra instance-hours re-billed by the relaunch
    delay_hours: float = 0.0  # start slip caused by retry backoff


@dataclass(frozen=True)
class HardwareFailure:
    """One resolved per-instance hardware failure (an MTBF hazard draw)."""

    site: str
    user: str
    lab: str
    at: float


@dataclass
class FaultLedger:
    """Accumulated fault accounting for one plan sweep."""

    events: list[FaultEvent] = field(default_factory=list)

    def add(self, event: FaultEvent) -> None:
        self.events.append(event)

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    @property
    def hardware_kills(self) -> int:
        return self.count("hw_kill")

    @property
    def outage_kills(self) -> int:
        return self.count("outage_kill")

    @property
    def delayed_starts(self) -> int:
        return self.count("delayed_start")

    @property
    def abandoned(self) -> int:
        return self.count("abandoned")

    @property
    def lost_instance_hours(self) -> float:
        return sum(e.lost_hours for e in self.events)

    @property
    def redo_instance_hours(self) -> float:
        return sum(e.redo_hours for e in self.events)

    @property
    def delay_hours(self) -> float:
        return sum(e.delay_hours for e in self.events)

    def hardware_failures(self) -> tuple[HardwareFailure, ...]:
        """The resolved MTBF failures, as standalone records."""
        return tuple(
            HardwareFailure(site=e.site, user=e.user, lab=e.lab, at=e.at)
            for e in self.events
            if e.kind == "hw_kill"
        )

    def per_user_redo_hours(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for e in self.events:
            if e.redo_hours:
                out[e.user] = out.get(e.user, 0.0) + e.redo_hours
        return out


# -- the sweep ---------------------------------------------------------------------


class FaultSweep:
    """Applies a :class:`FaultCalendar` to raw activity tables (pre-admission).

    Implements the planner's :class:`~repro.core.cohort.FaultModel`
    protocol.  One sweep = one ledger: applying the same sweep twice
    would double-count accounting, so a second ``apply`` raises — plan
    once, then hand the *plan* to both serial and parallel executors.
    """

    def __init__(
        self,
        calendar: FaultCalendar,
        *,
        relaunch: RetryPolicy | None = None,
        transient: RetryPolicy | None = None,
    ) -> None:
        self.calendar = calendar
        self.relaunch = relaunch if relaunch is not None else RetryPolicy.relaunch_default()
        self.transient = transient if transient is not None else RetryPolicy.transient_default()
        self.ledger = FaultLedger()
        self._applied = False

    # -- FaultModel ---------------------------------------------------------

    def apply(
        self, tables: ActivityTables, *, schema: ColumnSchema, semester_hours: float
    ) -> ActivityTables:
        """Rewrite the planner's raw ``tables`` (pre-admission).

        The hazard stream is consumed student by student (VM rows, then
        slot rows), then group by group (service-VM rows, then lease
        rows).  Instance runs become one row per executed segment;
        bookings move or drop.  Every other column is gathered by source
        row, so rows stay grouped by owner.
        """
        if self._applied:
            raise InvalidStateError(
                "FaultSweep already applied; build a fresh sweep (or reuse the plan)"
            )
        self._applied = True
        if self.calendar.empty:
            return tables  # strict no-op: same object
        # imported here: the serving stack loads this module for its
        # calendars and must not pull in the columnar engine
        from repro.columnar.schema import SITE_NAMES

        rng = self.calendar.hazard_rng()
        labs, rtypes = schema.lab_names, schema.rtype_names
        n = schema.n_students
        vm, slot = list(tables.rows("vm")), list(tables.rows("slot"))
        pvm, pl = list(tables.rows("pvm")), list(tables.rows("pl"))
        # family -> kept (source row, start[, hours]) in output order
        kept: dict[str, list[tuple]] = {"vm": [], "slot": [], "pvm": [], "pl": []}

        def run(family: str, row: int, **kw) -> None:
            for start, hours in self._rewrite_instance_run(rng, semester_hours, **kw):
                kept[family].append((row, start, hours))

        def book(family: str, row: int, **kw) -> None:
            start = self._rewrite_booking(rng, semester_hours, **kw)
            if start is not None:
                kept[family].append((row, start))

        vm_at, slot_at = tables.owner_bounds("vm", n), tables.owner_bounds("slot", n)
        for i in range(n):
            user = schema.user_string(i)
            for row in range(vm_at[i], vm_at[i + 1]):
                _, lab, start, hours, flavor, count, _, _ = vm[row]
                run("vm", row, site=KVM_SITE, user=user, lab=labs[lab], start=start,
                    hours=hours, instances=count, resource=rtypes[flavor])
            for row in range(slot_at[i], slot_at[i + 1]):
                _, lab, node, start, hours, site, _ = slot[row]
                book("slot", row, site=SITE_NAMES[site], user=user, lab=labs[lab],
                     start=start, hours=hours, resource=rtypes[node])
        pvm_at = tables.owner_bounds("pvm", schema.n_groups)
        pl_at = tables.owner_bounds("pl", schema.n_groups)
        for g in range(schema.n_groups):
            user = schema.user_string(n + g)
            for row in range(pvm_at[g], pvm_at[g + 1]):
                _, flavor, start, hours, _ = pvm[row]
                run("pvm", row, site=KVM_SITE, user=user, lab="project", start=start,
                    hours=hours, instances=1, resource=rtypes[flavor])
            for row in range(pl_at[g], pl_at[g + 1]):
                _, node, start, hours, site, _ = pl[row]
                book("pl", row, site=SITE_NAMES[site], user=user, lab="project",
                     start=start, hours=hours, resource=rtypes[node])

        rewritten = {
            "vm": ("vm_start", "vm_duration"),
            "slot": ("slot_start",),
            "pvm": ("pvm_start", "pvm_hours"),
            "pl": ("pl_start",),
        }
        for family, names in rewritten.items():
            source, *values = zip(*kept[family]) if kept[family] else [()] * (1 + len(names))
            tables = tables.take(
                family,
                np.array(source, dtype=np.int64),
                **{name: np.array(col, dtype=np.float64) for name, col in zip(names, values)},
            )
        return tables

    # -- per-activity rewriting ---------------------------------------------

    def _rewrite_instance_run(
        self,
        rng: np.random.Generator,
        semester_hours: float,
        *,
        site: str,
        user: str,
        lab: str,
        start: float,
        hours: float,
        instances: int,
        resource: str,
    ) -> list[tuple[float, float]]:
        """Fault-resolve one unattended instance run (VM lab / project VM).

        Start delays, then a segment walk: each segment runs until the
        earlier of its planned end, a hazard draw, or the next outage;
        kills relaunch after policy backoff with redo hours, until the
        retry budget or the semester runs out.  Returns the executed
        ``(start, hours)`` segments.
        """
        cal = self.calendar
        cfg = cal.config
        cleared = self._clear_start(site, start, rng, semester_hours)
        if cleared is None:
            self.ledger.add(FaultEvent(
                kind="abandoned", site=site, user=user, lab=lab,
                resource_type=resource, at=start,
                lost_hours=hours * instances,
            ))
            return []
        if cleared > start:
            self.ledger.add(FaultEvent(
                kind="delayed_start", site=site, user=user, lab=lab,
                resource_type=resource, at=start,
                delay_hours=cleared - start,
            ))

        out: list[tuple[float, float]] = []
        remaining = hours
        seg_start = cleared
        relaunches = 0
        hazard = cfg.hazard_rate_per_khour / 1000.0 * instances
        while remaining > _MIN_SEGMENT_HOURS and seg_start < semester_hours:
            kill_in = np.inf
            if hazard > 0:
                kill_in = float(rng.exponential(1.0 / hazard))
            window = cal.outage_over(site, seg_start, min(seg_start + remaining, semester_hours))
            outage_in = window.start - seg_start if window is not None else np.inf
            cut = min(kill_in, outage_in)
            if cut >= remaining:
                out.append((seg_start, remaining))
                return out

            executed = max(cut, 0.0)
            kill_t = seg_start + executed
            if executed > _MIN_SEGMENT_HOURS:
                out.append((seg_start, executed))
            kind = "outage_kill" if outage_in <= kill_in else "hw_kill"
            redo = cfg.redo_fraction * executed
            left = remaining - executed

            relaunches += 1
            u = float(rng.random())  # one draw per relaunch, jitter or not
            if not self.relaunch.allows_retry(
                relaunches - 1, elapsed_hours=kill_t - start
            ):
                self.ledger.add(FaultEvent(
                    kind="abandoned", site=site, user=user, lab=lab,
                    resource_type=resource, at=kill_t,
                    lost_hours=left * instances,
                ))
                return out
            next_start = kill_t + self.relaunch.backoff_hours(relaunches, u=u)
            if kind == "outage_kill" and window is not None:
                next_start = max(next_start, window.end)
            next_start = cal.next_clear(site, next_start)
            if next_start >= semester_hours:
                self.ledger.add(FaultEvent(
                    kind="abandoned", site=site, user=user, lab=lab,
                    resource_type=resource, at=kill_t,
                    lost_hours=left * instances,
                ))
                return out
            self.ledger.add(FaultEvent(
                kind=kind, site=site, user=user, lab=lab,
                resource_type=resource, at=kill_t,
                redo_hours=redo * instances,
                delay_hours=next_start - kill_t,
            ))
            remaining = left + redo
            seg_start = next_start
        return out

    def _rewrite_booking(
        self,
        rng: np.random.Generator,
        semester_hours: float,
        *,
        site: str,
        user: str,
        lab: str,
        start: float,
        hours: float,
        resource: str,
    ) -> float | None:
        """Fault-resolve one reservation (lab slot / project lease).

        Reserved instances are lease-bound and auto-terminated, so the
        whole interval must clear every outage window; bursts only block
        the booking call itself.  Returns the (possibly moved) start, or
        None when the retry budget ran out (recorded as abandoned).
        """
        t = self._clear_interval(site, start, hours, rng, semester_hours)
        if t is None:
            self.ledger.add(FaultEvent(
                kind="abandoned", site=site, user=user, lab=lab,
                resource_type=resource, at=start, lost_hours=hours,
            ))
            return None
        if t > start:
            self.ledger.add(FaultEvent(
                kind="delayed_start", site=site, user=user, lab=lab,
                resource_type=resource, at=start, delay_hours=t - start,
            ))
        return t

    # -- window-clearing walks ----------------------------------------------

    def _clear_start(
        self, site: str, t: float, rng: np.random.Generator, semester_hours: float
    ) -> float | None:
        """Retry-walk a single provisioning call out of outage/burst windows."""
        return self._clear_interval(site, t, 0.0, rng, semester_hours)

    def _clear_interval(
        self,
        site: str,
        t: float,
        hours: float,
        rng: np.random.Generator,
        semester_hours: float,
    ) -> float | None:
        """First admissible start >= ``t`` for an interval of ``hours``.

        Outage conflicts retry on the relaunch policy (site-down
        timescale), burst conflicts on the transient policy (rate-limit
        timescale); exhausting either budget abandons the attempt.
        """
        cal = self.calendar
        outage_retries = 0
        burst_retries = 0
        t0 = t
        while t < semester_hours:
            window = (
                cal.outage_over(site, t, t + hours)
                if hours > 0
                else cal.outage_at(site, t)
            )
            if window is not None:
                outage_retries += 1
                if not self.relaunch.allows_retry(
                    outage_retries - 1, elapsed_hours=t - t0
                ):
                    return None
                u = float(rng.random())
                t = max(window.end, t + self.relaunch.backoff_hours(outage_retries, u=u))
                continue
            burst = cal.burst_at(site, t)
            if burst is not None:
                burst_retries += 1
                if not self.transient.allows_retry(
                    burst_retries - 1, elapsed_hours=t - t0
                ):
                    return None
                u = float(rng.random())
                t = t + self.transient.backoff_hours(burst_retries, u=u)
                continue
            return t
        return None


# -- the front door ----------------------------------------------------------------


def plan_faulted_cohort(
    course: CourseDefinition = COURSE,
    config: CohortConfig | None = None,
    fault_config: FaultPlanConfig | None = None,
    *,
    relaunch: RetryPolicy | None = None,
    transient: RetryPolicy | None = None,
) -> tuple[CohortPlan, FaultLedger]:
    """Plan one semester under a fault plan; returns (plan, ledger).

    The returned plan is an ordinary :class:`~repro.core.cohort.CohortPlan`
    — hand it to ``CohortSimulation(plan=...)`` for the serial reference
    or ``repro.parallel.execute_plan`` for the pool; both produce the
    same record digest because all fault resolution happened here.
    """
    cfg = config if config is not None else CohortConfig()
    fcfg = fault_config if fault_config is not None else FaultPlanConfig()
    calendar = build_fault_calendar(fcfg, horizon_hours=course.semester_hours)
    sweep = FaultSweep(calendar, relaunch=relaunch, transient=transient)
    plan = plan_cohort(course, cfg, faults=sweep)
    return plan, sweep.ledger


def build_serving_calendar(
    *,
    duration_hours: float,
    seed: int = 7,
    outage_rate_per_week: float = 0.0,
    outage_mean_hours: float = 0.25,
    outage_sigma: float = 0.6,
    burst_rate_per_week: float = 0.0,
    burst_mean_hours: float = 0.05,
    burst_sigma: float = 0.5,
) -> FaultCalendar:
    """A fault calendar scoped to the serving site (:data:`SERVING_SITE`).

    The serving stack fails on minutes-scale windows (a replica fleet
    losing its zone, a rate-limit storm at the front door), not the
    hours-scale maintenance windows of the cohort testbed, so the window
    means default two orders of magnitude shorter.  Same seeded
    generators, same determinism contract: the calendar is a pure
    function of its arguments, and the zero-rate default is empty.
    """
    config = FaultPlanConfig(
        seed=seed,
        outage_rate_per_week=outage_rate_per_week,
        outage_mean_hours=outage_mean_hours,
        outage_sigma=outage_sigma,
        burst_rate_per_week=burst_rate_per_week,
        burst_mean_hours=burst_mean_hours,
        burst_sigma=burst_sigma,
        sites=(SERVING_SITE,),
    )
    return build_fault_calendar(config, horizon_hours=duration_hours)


def build_outage_calendar(
    *,
    outage_start_s: float,
    outage_end_s: float,
    horizon_hours: float,
    dark_replicas: int = 0,
) -> FaultCalendar:
    """One explicit serving-site outage window, placed in seconds.

    The retry-storm scenario (`repro.resilience.scenario`) needs a
    *controlled* experiment: the same outage at the same instant under
    every client policy, so rung-to-rung differences are policy and
    nothing else.  A sampled calendar can't give that — this builds the
    window directly (the config is the null plan; the window is explicit,
    not drawn).

    ``dark_replicas=0`` (default) is the full-site outage; ``k > 0``
    scopes the window via :func:`partial_serving_site` so only ``k``
    replicas go dark and the rest of the fleet keeps serving.
    """
    if not (0.0 <= outage_start_s < outage_end_s):
        raise ValidationError(
            f"need 0 <= start < end: {outage_start_s!r}, {outage_end_s!r}"
        )
    if outage_end_s > horizon_hours * 3600.0:
        raise ValidationError(
            f"outage ends past the horizon: {outage_end_s!r} s vs {horizon_hours!r} h"
        )
    if dark_replicas < 0:
        raise ValidationError(f"dark_replicas cannot be negative: {dark_replicas!r}")
    site = SERVING_SITE if dark_replicas == 0 else partial_serving_site(dark_replicas)
    return FaultCalendar(
        config=FaultPlanConfig(seed=0, sites=(site,)),
        horizon_hours=horizon_hours,
        outages=(
            OutageWindow(
                site=site,
                start=outage_start_s / 3600.0,
                end=outage_end_s / 3600.0,
            ),
        ),
        bursts=(),
    )
