"""Nova/Ironic-like compute service: VM servers, bare-metal instances, edge
containers.

Three provisioning regimes, matching the paper:

* **VM servers** (KVM site) are on-demand, count against the project quota,
  and — crucially for the paper's Fig 1(a) — persist until explicitly
  deleted.  A VM a student forgets about keeps metering hours.
* **Bare-metal instances** require an *active lease* from the
  :class:`~repro.cloud.leases.LeaseManager`; when the lease expires the
  compute service destroys the instance (Fig 1(b): reserved usage tracks
  expectations).
* **Edge sessions** (CHI@Edge) are container launches on reservable devices,
  also lease-gated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from repro.common.clock import SimClock
from repro.common.errors import (
    ConflictError,
    InvalidStateError,
    NotFoundError,
    ValidationError,
)
from repro.common.events import EventLoop
from repro.common.ids import IdGenerator
from repro.cloud.inventory import EdgeDeviceType, Flavor, Image, NodeType
from repro.cloud.leases import Lease, LeaseManager
from repro.cloud.metering import UsageMeter
from repro.cloud.network import NetworkService
from repro.cloud.quota import QuotaManager


class ServerStatus(str, Enum):
    BUILD = "BUILD"
    ACTIVE = "ACTIVE"
    SHUTOFF = "SHUTOFF"
    DELETED = "DELETED"
    PREEMPTED = "PREEMPTED"
    ERROR = "ERROR"


@dataclass
class Server:
    """A compute instance (VM, bare-metal, or edge container)."""

    id: str
    name: str
    project: str
    resource_type: str  # flavor name, node type name, or edge device type
    kind: str  # "server" | "baremetal" | "edge"
    image: str
    status: ServerStatus = ServerStatus.BUILD
    user: str | None = None
    lab: str | None = None
    network_ids: list[str] = field(default_factory=list)
    fixed_ips: list[str] = field(default_factory=list)
    floating_ip_id: str | None = None
    volume_ids: list[str] = field(default_factory=list)
    lease_id: str | None = None
    created_at: float = 0.0
    security_group_ids: list[str] = field(default_factory=list)
    # preemptible-capacity ("spot") support: interruptible servers may be
    # reclaimed by the provider after a short notice window
    interruptible: bool = False
    preemption_notice_at: float | None = None


class ComputeService:
    """The compute API of one site."""

    # Time (hours) a VM spends in BUILD before going ACTIVE.  Small but
    # nonzero so "reuse the instance to save creation time" (paper §5,
    # Unit 4/5 note) is a real trade-off in the simulation.
    BUILD_TIME = 2.0 / 60.0

    # Warning window between a preemption notice and the actual reclaim —
    # 120 simulated seconds, matching the two-minute notice commercial
    # clouds give interruptible instances.
    PREEMPTION_NOTICE_HOURS = 120.0 / 3600.0

    def __init__(
        self,
        loop: EventLoop,
        ids: IdGenerator,
        quota: QuotaManager,
        meter: UsageMeter,
        network: NetworkService,
        *,
        flavors: dict[str, Flavor] | None = None,
        node_types: dict[str, NodeType] | None = None,
        edge_types: dict[str, EdgeDeviceType] | None = None,
        images: dict[str, Image] | None = None,
        leases: LeaseManager | None = None,
    ) -> None:
        self._loop = loop
        self._clock: SimClock = loop.clock
        self._ids = ids
        self._quota = quota
        self._meter = meter
        self._network = network
        self.flavors = dict(flavors or {})
        self.node_types = dict(node_types or {})
        self.edge_types = dict(edge_types or {})
        self.images = dict(images or {})
        self.leases = leases
        self.servers: dict[str, Server] = {}
        self._interruptible_watchers: list[Callable[[Server], None]] = []
        self._preemption_watchers: list[Callable[[Server], None]] = []
        self._create_watchers: list[Callable[[Server], None]] = []
        self._admission_gates: list[Callable[[str], None]] = []
        if leases is not None:
            leases.on_expire(self._on_lease_end)

    # -- preemptible-capacity hooks ----------------------------------------

    def on_interruptible_create(self, callback: Callable[[Server], None]) -> None:
        """Register a callback fired whenever an interruptible VM boots
        (the spot market uses this to start tracking the instance)."""
        self._interruptible_watchers.append(callback)

    def on_preemption_notice(self, callback: Callable[[Server], None]) -> None:
        """Register a callback fired when a server receives its preemption
        notice, :data:`PREEMPTION_NOTICE_HOURS` before the reclaim."""
        self._preemption_watchers.append(callback)

    # -- fault-injection hooks ---------------------------------------------

    def on_create(self, callback: Callable[[Server], None]) -> None:
        """Register a callback fired for *every* server that boots (the
        fault injector uses this to arm per-instance hazard timers)."""
        self._create_watchers.append(callback)

    def on_admission(self, gate: Callable[[str], None]) -> None:
        """Register an admission gate consulted before any create call.

        Gates receive the instance kind (``"server"`` / ``"baremetal"`` /
        ``"edge"``) and signal refusal by raising — a fault injector
        raises :class:`~repro.common.errors.ServiceUnavailableError`
        during site outages and
        :class:`~repro.common.errors.TransientError` during API-error
        bursts, *before* any quota or lease state is touched.
        """
        self._admission_gates.append(gate)

    def _admit(self, kind: str) -> None:
        for gate in self._admission_gates:
            gate(kind)

    # -- VM instances -----------------------------------------------------

    def create_server(
        self,
        project: str,
        name: str,
        flavor: str,
        *,
        image: str = "CC-Ubuntu24.04",
        network_id: str | None = None,
        user: str | None = None,
        lab: str | None = None,
        security_groups: list[str] | None = None,
        interruptible: bool = False,
    ) -> Server:
        """Boot an on-demand VM.  Persists until :meth:`delete_server`.

        With ``interruptible=True`` the VM runs on preemptible ("spot")
        capacity: it behaves identically until the provider reclaims it via
        :meth:`preempt_server`, at which point it receives a
        :data:`PREEMPTION_NOTICE_HOURS` warning and is then terminated with
        status :attr:`ServerStatus.PREEMPTED`.
        """
        self._admit("server")
        flv = self._flavor(flavor)
        img = self._image(image)
        self._quota.reserve(instances=1, cores=flv.vcpus, ram_gib=flv.ram_gib)
        server = Server(
            id=self._ids.next("vm"),
            name=name,
            project=project,
            resource_type=flv.name,
            kind="server",
            image=img.name,
            user=user,
            lab=lab,
            created_at=self._clock.now,
            security_group_ids=list(security_groups or []),
            interruptible=interruptible,
        )
        if network_id is not None:
            try:
                self.attach_network(server, network_id)
            except Exception:
                # deliberately broad: any attach failure must undo the quota
                # charge before the error propagates (ERR001-clean: re-raises)
                self._quota.release(instances=1, cores=flv.vcpus, ram_gib=flv.ram_gib)
                raise
        self.servers[server.id] = server
        self._meter.open_span(
            server.id,
            kind="server",
            resource_type=flv.name,
            project=project,
            user=user,
            lab=lab,
        )
        self._loop.schedule_in(
            self.BUILD_TIME, lambda: self._finish_build(server.id), label=f"{server.id}:build"
        )
        if interruptible:
            for cb in self._interruptible_watchers:
                cb(server)
        for cb in self._create_watchers:
            cb(server)
        return server

    # -- bare metal ---------------------------------------------------------

    def create_baremetal(
        self,
        project: str,
        name: str,
        node_type: str,
        lease_id: str,
        *,
        image: str = "CC-Ubuntu24.04-CUDA",
        user: str | None = None,
        lab: str | None = None,
    ) -> Server:
        """Deploy a bare-metal node under an active lease."""
        self._admit("baremetal")
        if self.leases is None:
            raise InvalidStateError("this site has no reservable resources")
        nt = self._node_type(node_type)
        lease = self.leases.get(lease_id)
        if lease.resource_type != node_type:
            raise ValidationError(
                f"lease {lease_id} reserves {lease.resource_type!r}, not {node_type!r}"
            )
        img = self._image(image)
        self.leases.check_bindable(lease)
        server = Server(
            id=self._ids.next("bm"),
            name=name,
            project=project,
            resource_type=nt.name,
            kind="baremetal",
            image=img.name,
            user=user,
            lab=lab,
            lease_id=lease_id,
            created_at=self._clock.now,
            status=ServerStatus.ACTIVE,  # bare-metal deploy time folded into lease
        )
        self.leases.bind_instance(lease_id, server.id)
        self.servers[server.id] = server
        self._meter.open_span(
            server.id,
            kind="baremetal",
            resource_type=nt.name,
            project=project,
            user=user,
            lab=lab,
        )
        for cb in self._create_watchers:
            cb(server)
        return server

    # -- edge devices -------------------------------------------------------

    def create_edge_session(
        self,
        project: str,
        name: str,
        device_type: str,
        lease_id: str,
        *,
        image: str = "CC-Ubuntu24.04",
        user: str | None = None,
        lab: str | None = None,
    ) -> Server:
        """Launch a container on a reserved edge device."""
        self._admit("edge")
        if self.leases is None:
            raise InvalidStateError("this site has no reservable resources")
        dt = self._edge_type(device_type)
        lease = self.leases.get(lease_id)
        if lease.resource_type != device_type:
            raise ValidationError(
                f"lease {lease_id} reserves {lease.resource_type!r}, not {device_type!r}"
            )
        server = Server(
            id=self._ids.next("edge"),
            name=name,
            project=project,
            resource_type=dt.name,
            kind="edge",
            image=image,
            user=user,
            lab=lab,
            lease_id=lease_id,
            created_at=self._clock.now,
            status=ServerStatus.ACTIVE,
        )
        self.leases.bind_instance(lease_id, server.id)
        self.servers[server.id] = server
        self._meter.open_span(
            server.id,
            kind="edge",
            resource_type=dt.name,
            project=project,
            user=user,
            lab=lab,
        )
        for cb in self._create_watchers:
            cb(server)
        return server

    # -- shared lifecycle ---------------------------------------------------

    def attach_network(self, server: Server, network_id: str) -> str:
        """Plug the server into a network; returns the fixed IP."""
        net = self._network.networks.get(network_id)
        if net is None:
            raise NotFoundError(f"network {network_id!r} not found")
        if not net.subnet_ids:
            raise InvalidStateError(f"network {network_id} has no subnet")
        subnet = self._network.subnets[net.subnet_ids[0]]
        addr = subnet.allocate_address()
        server.network_ids.append(network_id)
        server.fixed_ips.append(addr)
        return addr

    def associate_floating_ip(self, server_id: str, fip_id: str) -> None:
        server = self._server(server_id)
        if server.floating_ip_id is not None:
            raise ConflictError(f"server {server_id} already has a floating IP")
        self._network.associate_floating_ip(fip_id, server_id)
        server.floating_ip_id = fip_id

    def stop_server(self, server_id: str) -> None:
        server = self._server(server_id)
        if server.status is not ServerStatus.ACTIVE:
            raise InvalidStateError(f"server {server_id} is {server.status.value}")
        server.status = ServerStatus.SHUTOFF

    def start_server(self, server_id: str) -> None:
        server = self._server(server_id)
        if server.status is not ServerStatus.SHUTOFF:
            raise InvalidStateError(f"server {server_id} is {server.status.value}")
        server.status = ServerStatus.ACTIVE

    def delete_server(self, server_id: str) -> None:
        """Terminate and stop metering.  Detaches volumes and floating IPs."""
        self._terminate(self._server(server_id), ServerStatus.DELETED)

    def preempt_server(self, server_id: str) -> None:
        """Provider-side capacity reclaim of an interruptible VM.

        Issues the preemption notice immediately (firing
        :meth:`on_preemption_notice` callbacks so checkpoint/drain handlers
        can run), then terminates the server
        :data:`PREEMPTION_NOTICE_HOURS` later with status ``PREEMPTED``.
        Idempotent while the notice is pending; a server deleted during the
        notice window is simply not reclaimed (its span already closed).
        """
        server = self._server(server_id)
        if server.kind != "server" or not server.interruptible:
            raise InvalidStateError(f"server {server_id} is not interruptible")
        if server.preemption_notice_at is not None:
            return  # notice already issued; reclaim is scheduled
        server.preemption_notice_at = self._clock.now
        for cb in self._preemption_watchers:
            cb(server)
        self._loop.schedule_in(
            self.PREEMPTION_NOTICE_HOURS,
            lambda: self._finish_preemption(server_id),
            label=f"{server_id}:preempt",
        )

    def fail_server(self, server_id: str) -> None:
        """Infrastructure-side forced termination (hardware failure or a
        site outage taking the host down).

        Same unified terminal path as delete/preempt — quota release and
        span close happen exactly once — but the server dies with status
        :attr:`ServerStatus.ERROR`.  Idempotent from the injector's side:
        a server already gone is a no-op (its span already closed).
        """
        server = self.servers.get(server_id)
        if server is None:
            return
        self._terminate(server, ServerStatus.ERROR)

    def _finish_preemption(self, server_id: str) -> None:
        server = self.servers.get(server_id)
        if server is None:
            return  # deleted during the notice window; span closed exactly once
        self._terminate(server, ServerStatus.PREEMPTED)

    def _terminate(self, server: Server, status: ServerStatus) -> None:
        """The single terminal path: every way a server dies goes through
        here, so quota release and span close happen exactly once."""
        if server.floating_ip_id is not None:
            self._network.disassociate_floating_ip(server.floating_ip_id)
            server.floating_ip_id = None
        if server.kind == "server":
            flv = self._flavor(server.resource_type)
            self._quota.release(instances=1, cores=flv.vcpus, ram_gib=flv.ram_gib)
        elif server.lease_id is not None and self.leases is not None:
            self.leases.unbind_instance(server.lease_id, server.id)
        server.status = status
        del self.servers[server.id]
        self._meter.close_span(server.id)

    def can_reach(self, server_id: str, protocol: str, port: int) -> bool:
        """Would a packet to (protocol, port) pass the server's security groups?

        A server with no security group is treated as using the default
        group, which permits nothing inbound.
        """
        server = self._server(server_id)
        for sg_id in server.security_group_ids:
            sg = self._network.security_groups.get(sg_id)
            if sg is not None and sg.permits(protocol, port):
                return True
        return False

    def list_servers(self, *, project: str | None = None, lab: str | None = None) -> list[Server]:
        out = []
        for s in self.servers.values():
            if project is not None and s.project != project:
                continue
            if lab is not None and s.lab != lab:
                continue
            out.append(s)
        return sorted(out, key=lambda s: s.id)

    # -- internals ----------------------------------------------------------

    def _finish_build(self, server_id: str) -> None:
        server = self.servers.get(server_id)
        if server is not None and server.status is ServerStatus.BUILD:
            server.status = ServerStatus.ACTIVE

    def _on_lease_end(self, lease: Lease) -> None:
        """Auto-terminate every instance bound to an ending lease."""
        for instance_id in list(lease.bound_instances):
            if instance_id in self.servers:
                # unbind first so delete_server doesn't mutate the list we iterate
                lease.bound_instances.remove(instance_id)
                self.delete_server(instance_id)

    def _flavor(self, name: str) -> Flavor:
        try:
            return self.flavors[name]
        except KeyError:
            raise NotFoundError(f"flavor {name!r} not found") from None

    def _node_type(self, name: str) -> NodeType:
        try:
            return self.node_types[name]
        except KeyError:
            raise NotFoundError(f"node type {name!r} not found") from None

    def _edge_type(self, name: str) -> EdgeDeviceType:
        try:
            return self.edge_types[name]
        except KeyError:
            raise NotFoundError(f"edge device type {name!r} not found") from None

    def _image(self, name: str) -> Image:
        try:
            return self.images[name]
        except KeyError:
            raise NotFoundError(f"image {name!r} not found") from None

    def _server(self, server_id: str) -> Server:
        try:
            return self.servers[server_id]
        except KeyError:
            raise NotFoundError(f"server {server_id!r} not found") from None
