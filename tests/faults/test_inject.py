"""Runtime injection against a live testbed: gates, strikes, span hygiene."""

import pytest

from repro.cloud.compute import ServerStatus
from repro.cloud.leases import LeaseStatus
from repro.cloud.testbed import chameleon
from repro.common.errors import ServiceUnavailableError, TransientError
from repro.core.course import KVM_SITE, METAL_SITE
from repro.faults.inject import FaultInjector
from repro.faults.plan import ApiErrorBurst, FaultCalendar, FaultPlanConfig, OutageWindow


def calendar_with(outages=(), bursts=(), *, hazard=0.0, horizon=1000.0):
    cfg = FaultPlanConfig(seed=1, hazard_rate_per_khour=hazard)
    return FaultCalendar(config=cfg, horizon_hours=horizon,
                         outages=tuple(outages), bursts=tuple(bursts))


def boot(testbed, name="vm-0"):
    return testbed.site(KVM_SITE).compute.create_server(
        "proj", name, "m1.medium", user="s1", lab="lab2"
    )


class TestAdmissionGates:
    def test_create_refused_during_outage(self):
        tb = chameleon()
        FaultInjector(tb, calendar_with(outages=[OutageWindow(KVM_SITE, 0.0, 5.0)]))
        with pytest.raises(ServiceUnavailableError):
            boot(tb)
        assert tb.site(KVM_SITE).compute.servers == {}
        assert tb.site(KVM_SITE).meter.open_count == 0  # no residue

    def test_create_refused_during_burst_is_transient(self):
        tb = chameleon()
        injector = FaultInjector(
            tb, calendar_with(bursts=[ApiErrorBurst(KVM_SITE, 0.0, 1.0)])
        )
        with pytest.raises(TransientError):
            boot(tb)
        assert injector.stats.rejections == 1

    def test_create_succeeds_once_window_passes(self):
        tb = chameleon()
        FaultInjector(tb, calendar_with(outages=[OutageWindow(KVM_SITE, 0.0, 5.0)]))
        tb.run_until(6.0)
        server = boot(tb)
        assert server.id in tb.site(KVM_SITE).compute.servers

    def test_lease_refused_during_outage(self):
        tb = chameleon()
        FaultInjector(tb, calendar_with(outages=[OutageWindow(METAL_SITE, 0.0, 5.0)]))
        with pytest.raises(ServiceUnavailableError):
            tb.site(METAL_SITE).leases.create_lease(
                "proj", "compute_cascadelake", start=1.0, end=4.0
            )

    def test_other_sites_unaffected(self):
        tb = chameleon()
        FaultInjector(tb, calendar_with(outages=[OutageWindow(METAL_SITE, 0.0, 5.0)]))
        server = boot(tb)
        assert server.id in tb.site(KVM_SITE).compute.servers


class TestOutageStrike:
    def test_outage_kills_live_servers_and_closes_spans_once(self):
        tb = chameleon()
        for i in range(3):
            boot(tb, f"vm-{i}")
        site = tb.site(KVM_SITE)
        assert site.meter.open_count == 3
        injector = FaultInjector(
            tb, calendar_with(outages=[OutageWindow(KVM_SITE, 10.0, 12.0)])
        )
        tb.run_until(11.0)
        assert injector.stats.servers_killed == 3
        assert site.compute.servers == {}
        assert site.meter.open_count == 0
        records = [r for r in tb.usage_records() if r.resource_id.startswith("vm")]
        assert len(records) == 3  # one span each — closed exactly once
        assert all(r.end == 10.0 for r in records)

    def test_outage_cuts_active_leases(self):
        tb = chameleon()
        leases = tb.site(METAL_SITE).leases
        lease = leases.create_lease("proj", "compute_cascadelake", start=1.0, end=40.0)
        injector = FaultInjector(
            tb, calendar_with(outages=[OutageWindow(METAL_SITE, 10.0, 12.0)])
        )
        tb.run_until(11.0)
        assert injector.stats.leases_cut == 1
        assert leases.leases[lease.id].status is LeaseStatus.DELETED

    def test_server_deleted_before_strike_is_idempotent_noop(self):
        tb = chameleon()
        server = boot(tb)
        injector = FaultInjector(
            tb, calendar_with(outages=[OutageWindow(KVM_SITE, 10.0, 12.0)])
        )
        tb.run_until(5.0)
        tb.site(KVM_SITE).compute.delete_server(server.id)
        tb.run_until(11.0)  # strike fires against an empty site
        assert injector.stats.servers_killed == 0
        assert tb.site(KVM_SITE).meter.open_count == 0
        records = [r for r in tb.usage_records() if r.resource_id == server.id]
        assert len(records) == 1 and records[0].end == 5.0


class TestHazard:
    def test_hazard_kills_mark_error_and_conserve_spans(self):
        tb = chameleon()
        injector = FaultInjector(tb, calendar_with(hazard=200.0), hazard_seed=42)
        created = [boot(tb, f"vm-{i}") for i in range(20)]
        tb.run_until(200.0)
        site = tb.site(KVM_SITE)
        assert injector.stats.hazard_kills > 0  # MTBF 5 h, 200 h horizon
        survivors = set(site.compute.servers)
        killed = [s for s in created if s.id not in survivors]
        assert all(s.status is ServerStatus.ERROR for s in killed)
        # conservation: every created server has exactly one span,
        # open iff it is still alive
        assert site.meter.open_count == len(survivors)
        closed = [r for r in tb.usage_records() if r.resource_id.startswith("vm")]
        assert len(closed) == len(created) - len(survivors)

    def test_hazard_replayable_from_calendar_stream(self):
        def run():
            tb = chameleon()
            injector = FaultInjector(tb, calendar_with(hazard=100.0))
            for i in range(10):
                boot(tb, f"vm-{i}")
            tb.run_until(300.0)
            return injector.stats.hazard_kills, sorted(
                tb.site(KVM_SITE).compute.servers
            )

        assert run() == run()
