"""Plan-time fault resolution, calendar half: seeded fault calendars.

All fault randomness is drawn serially at plan time from one
``SeedSequence(fault_seed).spawn(3)`` tree — (outage stream, burst
stream, hazard stream).  This module resolves the first two into a
static :class:`FaultCalendar` of windows and re-derives the third for
whoever consumes the calendar (:meth:`FaultCalendar.hazard_rng`).  The
cohort half, :mod:`repro.faults.sweep`, rewrites the planner's activity
tables against a calendar; the serving engines read one directly
(:func:`build_serving_calendar`, :func:`build_outage_calendar`).  This
half imports neither the cohort nor the testbed, so the serving engines
load it without them (DESIGN §15).

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ValidationError
from repro.core.course import EDGE_SITE, KVM_SITE, METAL_SITE

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
        if self.seed < 0:
            raise ValidationError(f"fault-plan seed must be a non-negative integer: {self.seed!r}")
        for name in ("outage_rate_per_week", "hazard_rate_per_khour", "burst_rate_per_week"):
            rate = getattr(self, name)
            if not (math.isfinite(rate) and rate >= 0):
                raise ValidationError(f"{name} must be a non-negative number: {rate!r}")
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
