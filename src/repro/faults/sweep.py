"""Plan-time fault resolution, cohort half: the activity-table sweep.

A :class:`FaultSweep` resolves a :class:`~repro.faults.plan.FaultCalendar`
into rewritten rows of the planner's raw activity tables, with fully
absolute times, before the admission sweeps run.  It is the one way a
fault plan enters a cohort engine: ``CohortSimulation``,
``run_parallel`` and ``run_columnar`` each take
``faults=FaultSweep(calendar)``.  Execution stays RNG-free, so every
engine's digest contract survives any fault plan, and the *empty*
calendar returns the very same tables.  Every rewrite is booked in the
sweep's :class:`FaultLedger`, which
:func:`repro.core.report.fault_accounting` prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.columnar.schema import SITE_NAMES
from repro.common.errors import InvalidStateError
from repro.common.retry import RetryPolicy
from repro.core.course import KVM_SITE
from repro.faults.plan import FaultCalendar

if TYPE_CHECKING:
    from repro.columnar.planner import ActivityTables
    from repro.columnar.schema import ColumnSchema

#: Segments shorter than this are dropped rather than scheduled (a VM set
#: that would be torn down the instant it boots produces no usage).
_MIN_SEGMENT_HOURS = 1e-6

#: How a student reacts to a killed lab or a site outage (site-down timescale).
RELAUNCH = RetryPolicy.relaunch_default()
#: How a provisioning call reacts to an API-error burst (rate-limit timescale).
TRANSIENT = RetryPolicy.transient_default()


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


# -- the sweep ---------------------------------------------------------------------


class FaultSweep:
    """Applies a :class:`FaultCalendar` to raw activity tables (pre-admission).

    Implements the planner's :class:`~repro.core.cohort.FaultModel`
    protocol, the one way a fault plan enters any cohort engine
    (``faults=FaultSweep(calendar)``); the ledger is read from
    :attr:`ledger` after the run.  One sweep = one ledger: applying the
    same sweep twice would double-count accounting, so a second
    ``apply`` raises — a second run takes a fresh sweep over the same
    calendar, which resolves to the same plan.
    """

    def __init__(self, calendar: FaultCalendar) -> None:
        self.calendar = calendar
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
                "FaultSweep already applied; build a fresh sweep over the same calendar"
            )
        self._applied = True
        if self.calendar.empty:
            return tables  # strict no-op: same object
        rng = self.calendar.hazard_rng()
        labs, rtypes, users = schema.lab_names, schema.rtype_names, schema.user_names
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
            user = users[i]
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
            user = users[n + g]
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
            if not RELAUNCH.allows_retry(relaunches - 1, elapsed_hours=kill_t - start):
                self.ledger.add(FaultEvent(
                    kind="abandoned", site=site, user=user, lab=lab,
                    resource_type=resource, at=kill_t,
                    lost_hours=left * instances,
                ))
                return out
            next_start = kill_t + RELAUNCH.backoff_hours(relaunches, u=u)
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

        Outage conflicts retry on :data:`RELAUNCH` (site-down timescale),
        burst conflicts on :data:`TRANSIENT` (rate-limit timescale);
        exhausting either budget abandons the attempt.
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
                if not RELAUNCH.allows_retry(outage_retries - 1, elapsed_hours=t - t0):
                    return None
                u = float(rng.random())
                t = max(window.end, t + RELAUNCH.backoff_hours(outage_retries, u=u))
                continue
            burst = cal.burst_at(site, t)
            if burst is not None:
                burst_retries += 1
                if not TRANSIENT.allows_retry(burst_retries - 1, elapsed_hours=t - t0):
                    return None
                u = float(rng.random())
                t = t + TRANSIENT.backoff_hours(burst_retries, u=u)
                continue
            return t
        return None

