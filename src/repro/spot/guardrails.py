"""Budget guardrails over the usage-record stream.

The paper's Fig 2 long tail — students whose incurred cost is many times
the median, "in most cases due to compute instances that were left
running for days or weeks" — is an *operational* failure, so the fix is
operational too: meter continuously, warn at a threshold, stop at the
budget, and reap forgotten VMs.  :class:`BudgetGuard` implements exactly
that loop against a site's :class:`~repro.cloud.metering.UsageMeter` and
:class:`~repro.cloud.compute.ComputeService`, pricing usage with the same
commercial rates as the §5 analysis so "budget" means real dollars.

The guard is a pure consumer: it reads records (open spans included, so
a still-running VM counts at its current accrual) and acts only through
the public compute API.  Attached to the cohort simulation it compresses
the Fig-2 max/mean ratio; never started, it schedules no events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cloud.compute import ComputeService
from repro.cloud.metering import UsageMeter, UsageRecord
from repro.common.errors import ValidationError
from repro.common.events import EventLoop
from repro.core.costmodel import CostModel

RateFn = Callable[[UsageRecord], float]


def commercial_rate_fn(model: CostModel | None = None, provider: str = "aws") -> RateFn:
    """$/unit-hour for a usage record, priced like the §5 analysis.

    Lab instance records use the lab's cheapest matched instance rate,
    project records the per-resource-type project match; edge records
    (no commercial equivalent) and unknown types price at zero, like the
    paper's "NA" rows.
    """
    model = model if model is not None else CostModel()
    catalog = model.catalogs[provider] if provider in model.catalogs else None
    if catalog is None:
        raise ValidationError(f"unknown provider {provider!r}")
    cache: dict[tuple[str | None, str], float] = {}

    def rate(rec: UsageRecord) -> float:
        if rec.kind == "floating_ip":
            return catalog.ip_hourly_usd
        if rec.kind == "volume":
            return catalog.block_gb_month_usd / 730.0
        if rec.kind == "object_storage":
            return catalog.object_gb_month_usd / 730.0
        if rec.kind not in ("server", "baremetal", "edge"):
            return 0.0
        key = (rec.lab, rec.resource_type)
        if key not in cache:
            try:
                inst = model.record_equivalent(rec.lab, rec.resource_type, provider)
            except ValidationError:
                inst = None  # no spec for this type -> not commercially priced
            cache[key] = 0.0 if inst is None else inst.hourly_usd
        return cache[key]

    return rate


@dataclass(frozen=True)
class BudgetPolicy:
    """What the guard enforces.

    Attributes
    ----------
    budget_usd: Hard ceiling per scope key (project or user).
    warn_fraction: Fraction of budget at which a warning is emitted.
    check_every_hours: Monitoring cadence.
    scope: ``"project"`` (one budget per project) or ``"user"``.
    stop: Terminate the scope's servers once the budget is exhausted.
    max_vm_age_hours: Auto-terminate any VM running longer than this
        (the forgotten-instance reaper); ``None`` disables it.
    """

    budget_usd: float
    warn_fraction: float = 0.8
    check_every_hours: float = 6.0
    scope: str = "project"
    stop: bool = True
    max_vm_age_hours: float | None = None

    def __post_init__(self) -> None:
        if self.budget_usd <= 0:
            raise ValidationError(f"budget must be positive: {self!r}")
        if not (0 < self.warn_fraction <= 1):
            raise ValidationError(f"warn_fraction must be in (0, 1]: {self!r}")
        if self.check_every_hours <= 0:
            raise ValidationError(f"check cadence must be positive: {self!r}")
        if self.scope not in ("project", "user"):
            raise ValidationError(f"scope must be 'project' or 'user': {self!r}")
        if self.max_vm_age_hours is not None and self.max_vm_age_hours <= 0:
            raise ValidationError(f"max_vm_age_hours must be positive: {self!r}")


@dataclass(frozen=True)
class GuardrailEvent:
    """One guard action: a warning, a budget stop, or an age reap."""

    time: float
    action: str  # "warn" | "stop" | "reap"
    scope_key: str
    spent_usd: float
    budget_usd: float
    detail: str = ""


@dataclass
class _ScopeState:
    warned: bool = False
    stopped: bool = False


class BudgetGuard:
    """Periodic budget monitor over one or more sites.

    Prices every usage record with ``rate_fn`` (defaults to AWS §5
    rates), aggregates by the policy scope, and acts: one warning as
    spend crosses ``warn_fraction * budget``, then — if ``policy.stop``
    — terminates the scope's servers every check while it remains over
    budget (repeatedly, because nothing stops a student from booting a
    new VM after the stop).  Independently reaps VMs older than
    ``max_vm_age_hours``.

    A scope's budget is testbed-wide: :meth:`watch` adds further
    ``(compute, meter)`` pairs whose spend aggregates into the same
    per-scope totals, so a student's KVM VMs and bare-metal leases
    draw down one budget.  The Fig-2 tail is dominated by the GPU
    bare-metal labs, so a guard watching only the KVM site barely
    moves the max/mean ratio.
    """

    def __init__(
        self,
        loop: EventLoop,
        compute: ComputeService,
        meter: UsageMeter,
        policy: BudgetPolicy,
        *,
        rate_fn: RateFn | None = None,
    ) -> None:
        self._loop = loop
        self._targets: list[tuple[ComputeService, UsageMeter]] = [(compute, meter)]
        self.policy = policy
        self.rate_fn = rate_fn if rate_fn is not None else commercial_rate_fn()
        self.events: list[GuardrailEvent] = []
        self._states: dict[str, _ScopeState] = {}
        self._active = False
        self._until: float | None = None

    def watch(self, compute: ComputeService, meter: UsageMeter) -> "BudgetGuard":
        """Add another site's spend to the same per-scope budgets."""
        if any(compute is c for c, _ in self._targets):
            raise ValidationError("compute service already watched by this guard")
        self._targets.append((compute, meter))
        return self

    def start(self, *, until: float | None = None) -> None:
        """Begin monitoring; checks run every ``check_every_hours``."""
        if self._active:
            return
        self._active = True
        self._until = until
        self._schedule_next()

    def stop(self) -> None:
        """Stop monitoring (pending check events become no-ops)."""
        self._active = False

    # -- queries -----------------------------------------------------------

    def spend(self) -> dict[str, float]:
        """Current $ spend per scope key across all watched meters
        (open spans included)."""
        out: dict[str, float] = {}
        for _, meter in self._targets:
            for rec in meter.records(include_open=True):
                key = self._scope_key(rec.project, rec.user)
                if key is None:
                    continue
                out[key] = out.get(key, 0.0) + self.rate_fn(rec) * rec.unit_hours
        return out

    def warned_keys(self) -> list[str]:
        return sorted(k for k, s in self._states.items() if s.warned)

    def stopped_keys(self) -> list[str]:
        return sorted(k for k, s in self._states.items() if s.stopped)

    # -- internals ---------------------------------------------------------

    def _scope_key(self, project: str, user: str | None) -> str | None:
        if self.policy.scope == "project":
            return project
        return user  # user scope: unattributed usage is nobody's budget

    def _schedule_next(self) -> None:
        next_at = self._loop.clock.now + self.policy.check_every_hours
        if self._until is not None and next_at > self._until:
            self._active = False
            return
        self._loop.schedule(next_at, self._check, priority=20, label="budget:check")

    def _check(self) -> None:
        if not self._active:
            return
        now = self._loop.clock.now
        spend = self.spend()
        policy = self.policy
        for key, spent in sorted(spend.items()):
            state = self._states.setdefault(key, _ScopeState())
            if not state.warned and spent >= policy.warn_fraction * policy.budget_usd:
                state.warned = True
                self.events.append(GuardrailEvent(
                    time=now, action="warn", scope_key=key,
                    spent_usd=spent, budget_usd=policy.budget_usd,
                    detail=f"spend crossed {policy.warn_fraction:.0%} of budget",
                ))
            if policy.stop and spent >= policy.budget_usd:
                killed = self._kill_scope(key)
                if killed or not state.stopped:
                    state.stopped = True
                    self.events.append(GuardrailEvent(
                        time=now, action="stop", scope_key=key,
                        spent_usd=spent, budget_usd=policy.budget_usd,
                        detail=f"terminated {killed} servers",
                    ))
        if policy.max_vm_age_hours is not None:
            self._reap(now, policy.max_vm_age_hours)
        self._schedule_next()

    def _kill_scope(self, key: str) -> int:
        killed = 0
        for compute, _ in self._targets:
            for server in list(compute.servers.values()):
                if self._scope_key(server.project, server.user) == key:
                    compute.delete_server(server.id)
                    killed += 1
        return killed

    def _reap(self, now: float, max_age: float) -> None:
        for compute, _ in self._targets:
            for server in list(compute.servers.values()):
                age = now - server.created_at
                if age > max_age:
                    compute.delete_server(server.id)
                    key = self._scope_key(server.project, server.user) or server.project
                    self.events.append(GuardrailEvent(
                        time=now, action="reap", scope_key=key,
                        spent_usd=0.0, budget_usd=self.policy.budget_usd,
                        detail=f"reaped {server.name} after {age:.1f} h",
                    ))
