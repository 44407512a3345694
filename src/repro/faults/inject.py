"""Runtime fault injection against a live testbed.

The plan-time sweep (:mod:`repro.faults.sweep`) is how the *cohort*
experiences faults — resolved before execution so the parallel digest
contract holds.  This module is the other half: a
:class:`FaultInjector` drives a running testbed directly, for chaos
tests and standalone what-ifs where the interesting question is whether
the *infrastructure model itself* degrades gracefully:

* admission gates on every compute create call and every
  ``create_lease`` raise
  :class:`~repro.common.errors.ServiceUnavailableError` during a site
  outage and :class:`~repro.common.errors.TransientError` during an
  API-error burst — before any quota or calendar state is touched, so a
  refused call leaves no residue;
* at each outage start, every live instance on the site is
  force-terminated through :meth:`ComputeService.fail_server` (the same
  unified terminal path as delete/preempt — metering span closed
  exactly once) and every active lease is cut short;
* per-instance hazard timers armed on a seeded create watcher kill
  instances at exponential MTBF-style lifetimes.

All randomness comes from the calendar's hazard stream (or an explicit
seed), so a chaos run is replayable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cloud.compute import Server
from repro.cloud.leases import LeaseStatus
from repro.cloud.site import Site
from repro.cloud.testbed import Testbed
from repro.common.errors import ServiceUnavailableError, TransientError
from repro.faults.plan import FaultCalendar, OutageWindow


@dataclass
class InjectorStats:
    """What the injector actually did to the testbed."""

    outages_scheduled: int = 0
    bursts_covered: int = 0
    rejections: int = 0  # admission-gate refusals (raised errors)
    servers_killed: int = 0  # forced terminations at outage starts
    leases_cut: int = 0  # active leases truncated by an outage
    hazard_kills: int = 0  # per-instance MTBF failures that fired


class FaultInjector:
    """Arms a :class:`~repro.faults.plan.FaultCalendar` on a live testbed.

    Attaching is done in the constructor: gates and watchers register on
    every site the calendar covers, and one loop event is scheduled per
    outage window.  The injector never raises out of a loop callback —
    forced terminations are idempotent no-ops for servers already gone.
    """

    def __init__(
        self,
        testbed: Testbed,
        calendar: FaultCalendar,
        *,
        hazard_seed: int | None = None,
    ) -> None:
        self.testbed = testbed
        self.calendar = calendar
        self.stats = InjectorStats()
        self._rng = (
            np.random.default_rng(hazard_seed)
            if hazard_seed is not None
            else calendar.hazard_rng()
        )
        self._hazard_rate = calendar.config.hazard_rate_per_khour / 1000.0
        for name in sorted(testbed.sites):
            if name in calendar.config.sites:
                self._attach_site(testbed.sites[name])

    # -- wiring -------------------------------------------------------------

    def _attach_site(self, site: Site) -> None:
        site.compute.on_admission(lambda kind, _name=site.name: self._gate(_name))
        if site.leases is not None:
            site.leases.on_admission(lambda rt, _name=site.name: self._gate(_name))
        if self._hazard_rate > 0:
            site.compute.on_create(
                lambda server, _site=site: self._arm_hazard(_site, server)
            )
        now = self.testbed.clock.now
        for window in self.calendar.outages:
            if window.site != site.name or window.end <= now:
                continue
            self.testbed.loop.schedule(
                max(window.start, now),
                lambda _site=site, _w=window: self._outage_strike(_site, _w),
                label=f"fault:outage:{site.name}:{window.start:.3f}",
            )
            self.stats.outages_scheduled += 1
        self.stats.bursts_covered += sum(
            1 for b in self.calendar.bursts if b.site == site.name
        )

    # -- admission gates ----------------------------------------------------

    def _gate(self, site_name: str) -> None:
        now = self.testbed.clock.now
        if self.calendar.outage_at(site_name, now) is not None:
            self.stats.rejections += 1
            raise ServiceUnavailableError(
                f"site {site_name} is down for maintenance at t={now:.2f}h"
            )
        if self.calendar.burst_at(site_name, now) is not None:
            self.stats.rejections += 1
            raise TransientError(
                f"site {site_name} API error burst at t={now:.2f}h; retry later"
            )

    # -- strikes ------------------------------------------------------------

    def _arm_hazard(self, site: Site, server: Server) -> None:
        lifetime = float(self._rng.exponential(1.0 / self._hazard_rate))
        self.testbed.loop.schedule_in(
            lifetime,
            lambda: self._hazard_strike(site, server.id),
            label=f"fault:hazard:{server.id}",
        )

    def _hazard_strike(self, site: Site, server_id: str) -> None:
        if server_id in site.compute.servers:  # already gone → span closed; no-op
            self.stats.hazard_kills += 1
            site.compute.fail_server(server_id)

    def _outage_strike(self, site: Site, window: OutageWindow) -> None:
        for server in site.compute.list_servers():
            site.compute.fail_server(server.id)
            self.stats.servers_killed += 1
        if site.leases is not None:
            for lease_id in sorted(site.leases.leases):
                lease = site.leases.leases[lease_id]
                if lease.status is LeaseStatus.ACTIVE and lease.end > window.start:
                    site.leases.delete_lease(lease_id)
                    self.stats.leases_cut += 1


__all__ = ["FaultInjector", "InjectorStats"]
