"""The metastable retry-storm scenario: one outage, three client policies.

The experiment the resilience layer exists to run.  A fixed serving
fleet takes stationary Poisson traffic below capacity; a short outage
kills every replica; replacements come up after the provisioning lag.
What happens next depends entirely on the *client* policy:

* **no-retry** — the open-loop fiction: failures vanish, the fleet
  recovers as soon as replicas are back.  Cheap, but every lost request
  is a lost answer.
* **naive-retry** — every failure re-offers on a fast, barely-jittered
  schedule with no budget.  During the outage a retry backlog builds;
  when replicas return, fresh load *times* the retry multiplier exceeds
  capacity, rejections breed more retries, and the system locks into
  sustained overload **after the fault is gone** — the metastable
  failure mode (Bronson et al.'s "metastable failures" shape, built
  from this repo's own queue/autoscaler/faults parts).
* **budgeted-retry + breaker** — the same appetite for retries under a
  token-bucket budget (amplification provably ≤ 1 + fill ratio), behind
  a circuit breaker, tiered shedding, and brownout.  The storm is paid
  for in sheds and degraded answers instead of in hours of overload.

Each rung is priced through the serving cost model with brownout
servings quality-discounted, so the ladder lands on the paper's axis:
what does operational robustness cost, per million answers?

This module defines the experiment; :func:`repro.resilience.sweep.run_storm`
runs it, as a one-cell sweep through the phase map's plan and execute
halves.  Determinism: rungs are pure functions of :class:`RungSpec`
(trace, calendar, and resilience plan are all seeded and resolved before
the simulation), fanned out through
:func:`repro.parallel.engine.deterministic_map` — the storm digest is
byte-identical under rerun, ``perturb=True``, and any worker count.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, replace

from repro.common.breaker import BreakerConfig
from repro.common.errors import ValidationError
from repro.common.tables import format_table
from repro.resilience.breaker import serving_breaker_config
from repro.resilience.clients import ClientConfig
from repro.resilience.shedding import CongestionConfig, SheddingConfig

#: The policy ladder, weakest defense first.
RUNGS = ("no-retry", "naive-retry", "budgeted-retry+breaker")


@dataclass(frozen=True)
class StormConfig:
    """The controlled experiment: same traffic, same outage, per-rung policy.

    Defaults put stationary load at ~60% of fleet capacity (food11 on
    ``server-cpu-16c``: ~200 rps/replica at batch 8, two replicas) and
    knock the whole fleet out for two minutes mid-run — enough headroom
    that an open-loop fleet recovers instantly, and enough closed-loop
    amplification (× ``storm_default``'s six attempts) that a naive
    client pushes the recovered fleet back over capacity.
    """

    seed: int = 11
    requests_per_day: float = 2.16e7   # 250 rps mean
    duration_s: float = 1200.0
    outage_start_s: float = 300.0
    outage_end_s: float = 420.0
    #: 0 = the full fleet goes dark (the classic storm).  k > 0 = a
    #: *partial* outage: only k replicas are struck and the autoscaler's
    #: ceiling shrinks by k for the window — the breaker must ride it
    #: out closed, because the surviving fraction is still answering.
    outage_dark_replicas: int = 0
    queue_capacity: int = 256
    deadline_ms: float = 1000.0
    max_batch: int = 8
    max_replicas: int = 2
    control_interval_s: float = 10.0
    provisioning_lag_s: float = 30.0
    #: Queue-depth fraction at or above which a control tick counts as
    #: congested (the recovery criterion reads these tick samples).
    congestion_fraction: float = 0.5
    retry_budget_fill: float = 0.1
    #: The server-under-study's congestion collapse (applied to every
    #: rung): past this depth fraction, service time inflates by the
    #: slowdown — the capacity loss that lets a storm turn metastable.
    thrash_depth_fraction: float = 0.4
    thrash_slowdown: float = 2.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.outage_start_s < self.outage_end_s <= self.duration_s):
            raise ValidationError(f"outage must sit inside the run: {self!r}")
        if not (0.0 < self.congestion_fraction <= 1.0):
            raise ValidationError(
                f"congestion_fraction must be in (0, 1]: {self.congestion_fraction!r}"
            )
        if not (0 <= self.outage_dark_replicas < self.max_replicas):
            raise ValidationError(
                f"outage_dark_replicas must leave a survivor (0 <= k < "
                f"max_replicas={self.max_replicas}): {self.outage_dark_replicas!r}"
            )

    @property
    def duration_hours(self) -> float:
        return self.duration_s / 3600.0

    @property
    def congestion_depth(self) -> float:
        return self.congestion_fraction * self.queue_capacity


@dataclass(frozen=True)
class RungSpec:
    """One ladder rung, fully specified and picklable (the pool item)."""

    name: str
    storm: StormConfig
    client: ClientConfig
    shedding: SheddingConfig | None
    breaker: BreakerConfig | None
    congestion: CongestionConfig | None
    #: Flip the simulation's free evaluation orders (must not change digests).
    perturb: bool = False


def storm_ladder(
    config: StormConfig, *, perturb: bool = False
) -> tuple[RungSpec, ...]:
    """The three-rung policy ladder over one storm configuration.

    Every rung runs against the *same server* — including its congestion
    collapse — and the same outage; only the client policy and the
    front-door defenses differ between rungs.
    """
    return (
        policy_spec("no-retry", config, perturb=perturb),
        policy_spec("naive-retry", config, perturb=perturb),
        policy_spec("budgeted-retry+breaker", config, perturb=perturb),
    )


#: Client policies a spec can name: the ladder's three plus the sweep's
#: adaptive and hedged rungs (both defended like the budgeted client).
POLICIES = (
    "no-retry",
    "naive-retry",
    "budgeted-retry+breaker",
    "adaptive-retry+breaker",
    "hedged-retry+breaker",
)

#: Policies that mount the full server-side defense stack.
DEFENDED_POLICIES = POLICIES[2:]


def policy_spec(
    name: str,
    config: StormConfig,
    *,
    breaker_error_threshold: float | None = None,
    perturb: bool = False,
) -> RungSpec:
    """One named client policy over one storm, fully specified.

    The single place a policy name becomes a (client, defenses) bundle —
    the ladder and the phase-map sweep both build their specs here, so
    "budgeted" means the same thing in both.  Undefended policies
    (no-retry, naive) take no breaker; ``breaker_error_threshold``
    overrides the serving breaker's trip point on defended ones (the
    sweep's breaker axis).
    """
    congestion = CongestionConfig(
        thrash_depth_fraction=config.thrash_depth_fraction,
        slowdown=config.thrash_slowdown,
    )
    fill = config.retry_budget_fill
    if name == "no-retry":
        client = ClientConfig.no_retry(seed=config.seed)
    elif name == "naive-retry":
        client = ClientConfig.naive(seed=config.seed)
    elif name == "budgeted-retry+breaker":
        client = ClientConfig.budgeted(seed=config.seed, fill_per_request=fill)
    elif name == "adaptive-retry+breaker":
        client = ClientConfig.adaptive(
            seed=config.seed,
            fill_per_request=fill,
            give_up_deadline_s=config.deadline_ms / 1000.0 * 10.0,
        )
    elif name == "hedged-retry+breaker":
        client = ClientConfig.hedged(
            seed=config.seed,
            fill_per_request=fill,
            give_up_deadline_s=config.deadline_ms / 1000.0 * 10.0,
        )
    else:
        raise ValidationError(f"unknown policy {name!r}; have {POLICIES}")
    if name in DEFENDED_POLICIES:
        breaker = serving_breaker_config()
        if breaker_error_threshold is not None:
            breaker = replace(breaker, error_threshold=breaker_error_threshold)
        shedding: SheddingConfig | None = SheddingConfig.guarding(
            config.thrash_depth_fraction
        )
    else:
        breaker = None
        shedding = None
    return RungSpec(
        name=name,
        storm=config,
        client=client,
        shedding=shedding,
        breaker=breaker,
        congestion=congestion,
        perturb=perturb,
    )


@dataclass(frozen=True)
class RungMetrics:
    """One rung's observables: the storm, measured and priced."""

    name: str
    digest: str
    offered: int
    served: int
    shed: int
    loss_rate: float
    p99_ms: float
    amplification: float
    attempts_total: int
    brownout_served: int
    breaker_opens: int
    #: Seconds from outage end to the last congested control tick
    #: (0.0 = never congested after the outage; None = locked).
    time_to_recovery_s: float | None
    #: True when the final control tick was still congested: the storm
    #: outlived the fault — the metastable signature.
    locked: bool
    cost_usd: float | None
    #: Dollars per million quality-adjusted served requests (brownout
    #: servings count at a discount).
    usd_per_million_effective: float | None

    @property
    def recovered(self) -> bool:
        return not self.locked


def recovery_from_samples(
    samples, *, outage_end_s: float, congestion_depth: float
) -> tuple[float | None, bool]:
    """(time-to-recovery, locked) from the (t, depth, alive) tick series.

    Recovery time is measured to the *last* congested tick at or after
    the outage end — transient dips below the threshold don't count as
    recovered.  If the final tick of the run is still congested the run
    never recovered: ``(None, True)``.
    """
    after = samples[samples[:, 0] >= outage_end_s]
    if not len(after):
        return 0.0, False
    congested = after[:, 1] >= congestion_depth
    if not congested.any():
        return 0.0, False
    if congested[-1]:
        return None, True
    last = float(after[congested][-1, 0])
    return last - outage_end_s, False


@dataclass(frozen=True)
class StormReport:
    """The ladder's verdict: per-rung metrics over one shared storm."""

    config: StormConfig
    rungs: tuple[RungMetrics, ...]

    def rung(self, name: str) -> RungMetrics:
        for m in self.rungs:
            if m.name == name:
                return m
        raise ValidationError(f"unknown rung {name!r}; have {[m.name for m in self.rungs]}")

    def digest(self) -> str:
        """SHA-256 over every rung's full result digest plus its metrics.

        The CI contract: byte-identical under rerun, evaluation-order
        perturbation inside each simulation, and any worker count in the
        rung fan-out.
        """
        h = hashlib.sha256()
        h.update(repr(self.config).encode())
        for m in self.rungs:
            h.update(m.digest.encode())
            h.update(repr(m).encode())
        return h.hexdigest()

    def to_dict(self) -> dict:
        return {
            "config": repr(self.config),
            "digest": self.digest(),
            "rungs": [asdict(m) for m in self.rungs],
        }

    def render(self) -> str:
        cfg = self.config
        rows = [
            (
                m.name,
                m.served,
                m.shed,
                f"{m.loss_rate:.3%}",
                f"{m.amplification:.3f}",
                "LOCKED" if m.locked else f"{m.time_to_recovery_s:.0f}",
                m.breaker_opens,
                m.brownout_served,
                m.cost_usd,
                m.usd_per_million_effective,
            )
            for m in self.rungs
        ]
        table = format_table(
            [
                "policy",
                "served",
                "shed",
                "loss",
                "amp",
                "ttr_s",
                "opens",
                "brownout",
                "cost_usd",
                "usd_per_M_eff",
            ],
            rows,
            title=(
                f"retry storm: {cfg.requests_per_day:,.0f} req/day,"
                f" outage {cfg.outage_start_s:.0f}-{cfg.outage_end_s:.0f} s,"
                f" {cfg.max_replicas} replicas"
                " (ttr = seconds congested past outage end; LOCKED = never drained)"
            ),
            float_fmt=",.4f",
        )
        naive = self.rung("naive-retry")
        guarded = self.rung("budgeted-retry+breaker")
        verdict = (
            "metastable: the naive client never drains the storm"
            if naive.locked
            else f"naive client drains after {naive.time_to_recovery_s:.0f} s"
        )
        guarded_line = (
            "LOCKED"
            if guarded.locked
            else f"drains {guarded.time_to_recovery_s:.0f} s after the outage"
        )
        return "\n".join(
            [
                table,
                "",
                f"verdict: {verdict}; budgeted-retry+breaker {guarded_line}"
                f" at {guarded.amplification:.3f}x amplification"
                f" (cap 1 + fill = {1.0 + cfg.retry_budget_fill:.2f}).",
            ]
        )


__all__ = [
    "DEFENDED_POLICIES",
    "POLICIES",
    "RUNGS",
    "RungMetrics",
    "RungSpec",
    "StormConfig",
    "StormReport",
    "policy_spec",
    "recovery_from_samples",
    "storm_ladder",
]
