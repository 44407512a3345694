"""Neutron-like network service: networks, subnets, routers, floating IPs,
security groups.

The labs exercise exactly this surface (paper §3.2: "provision VM instances,
networks, ports, and floating IPs"; §4 quotas name routers, floating IPs and
security groups).  Floating IPs are first-class metered resources because the
paper's cost model bills them separately ("the total cost also includes
charges for networking services (floating IPs)", §5).
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field

from repro.common.clock import SimClock
from repro.common.errors import ConflictError, NotFoundError, ValidationError
from repro.common.ids import IdGenerator
from repro.cloud.metering import UsageMeter
from repro.cloud.quota import QuotaManager


@dataclass
class Network:
    """A tenant network."""

    id: str
    name: str
    project: str
    external: bool = False
    subnet_ids: list[str] = field(default_factory=list)


@dataclass
class Subnet:
    """An IPv4 subnet carved out of a network."""

    id: str
    network_id: str
    cidr: str
    _next_host: int = 10  # skip gateway/dhcp addresses
    # parsed once here, not per address: a public pool hands out thousands
    _net: ipaddress.IPv4Network | ipaddress.IPv6Network = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._net = ipaddress.ip_network(self.cidr)

    def allocate_address(self) -> str:
        """Hand out the next free host address in the CIDR."""
        net = self._net
        if self._next_host >= net.num_addresses - 1:
            raise ConflictError(f"subnet {self.id} ({self.cidr}) exhausted")
        addr = str(net.network_address + self._next_host)
        self._next_host += 1
        return addr


@dataclass
class Router:
    """Connects tenant subnets to the external network."""

    id: str
    name: str
    project: str
    external_network_id: str | None = None
    interface_subnet_ids: list[str] = field(default_factory=list)


@dataclass
class FloatingIP:
    """A publicly routable address, billable while allocated."""

    id: str
    address: str
    project: str
    port_device_id: str | None = None  # server it is associated with

    @property
    def associated(self) -> bool:
        return self.port_device_id is not None


@dataclass(frozen=True)
class SecurityGroupRule:
    """A single allow rule (the simulator models allow-lists only)."""

    protocol: str  # "tcp" | "udp" | "icmp"
    port_min: int
    port_max: int
    remote_cidr: str = "0.0.0.0/0"

    def __post_init__(self) -> None:
        if self.protocol not in ("tcp", "udp", "icmp"):
            raise ValidationError(f"unknown protocol {self.protocol!r}")
        if not (0 <= self.port_min <= self.port_max <= 65535):
            raise ValidationError(f"invalid port range {self.port_min}-{self.port_max}")
        ipaddress.ip_network(self.remote_cidr)  # raises ValueError if malformed

    def permits(self, protocol: str, port: int) -> bool:
        return protocol == self.protocol and self.port_min <= port <= self.port_max


@dataclass
class SecurityGroup:
    id: str
    name: str
    project: str
    rules: list[SecurityGroupRule] = field(default_factory=list)

    def permits(self, protocol: str, port: int) -> bool:
        return any(r.permits(protocol, port) for r in self.rules)


class NetworkService:
    """The network API of one site."""

    def __init__(
        self,
        clock: SimClock,
        ids: IdGenerator,
        quota: QuotaManager,
        meter: UsageMeter,
        *,
        public_cidr: str = "129.114.0.0/16",
    ) -> None:
        self._clock = clock
        self._ids = ids
        self._quota = quota
        self._meter = meter
        self.networks: dict[str, Network] = {}
        self.subnets: dict[str, Subnet] = {}
        self.routers: dict[str, Router] = {}
        self.floating_ips: dict[str, FloatingIP] = {}
        self.security_groups: dict[str, SecurityGroup] = {}
        self._public_pool = Subnet(id="public-pool", network_id="external", cidr=public_cidr)
        # The provider-configured external network every site exposes (§3.2).
        ext = Network(id="external", name="public", project="admin", external=True)
        self.networks[ext.id] = ext

    # -- networks / subnets / routers -----------------------------------

    def create_network(self, project: str, name: str) -> Network:
        self._quota.reserve(networks=1)
        net = Network(id=self._ids.next("net"), name=name, project=project)
        self.networks[net.id] = net
        return net

    def delete_network(self, network_id: str) -> None:
        net = self._get(self.networks, network_id, "network")
        if net.external:
            raise ConflictError("cannot delete the external network")
        if net.subnet_ids:
            raise ConflictError(f"network {network_id} still has subnets")
        del self.networks[network_id]
        self._quota.release(networks=1)

    def create_subnet(self, network_id: str, cidr: str) -> Subnet:
        net = self._get(self.networks, network_id, "network")
        ipaddress.ip_network(cidr)  # validate
        sub = Subnet(id=self._ids.next("subnet"), network_id=net.id, cidr=cidr)
        self.subnets[sub.id] = sub
        net.subnet_ids.append(sub.id)
        return sub

    def delete_subnet(self, subnet_id: str) -> None:
        sub = self._get(self.subnets, subnet_id, "subnet")
        for router in self.routers.values():
            if subnet_id in router.interface_subnet_ids:
                raise ConflictError(f"subnet {subnet_id} attached to router {router.id}")
        self.networks[sub.network_id].subnet_ids.remove(subnet_id)
        del self.subnets[subnet_id]

    def create_router(self, project: str, name: str) -> Router:
        self._quota.reserve(routers=1)
        router = Router(id=self._ids.next("router"), name=name, project=project)
        self.routers[router.id] = router
        return router

    def delete_router(self, router_id: str) -> None:
        router = self._get(self.routers, router_id, "router")
        if router.interface_subnet_ids:
            raise ConflictError(f"router {router_id} still has interfaces")
        del self.routers[router_id]
        self._quota.release(routers=1)

    def set_router_gateway(self, router_id: str, network_id: str) -> None:
        router = self._get(self.routers, router_id, "router")
        net = self._get(self.networks, network_id, "network")
        if not net.external:
            raise ValidationError(f"network {network_id} is not external")
        router.external_network_id = net.id

    def add_router_interface(self, router_id: str, subnet_id: str) -> None:
        router = self._get(self.routers, router_id, "router")
        self._get(self.subnets, subnet_id, "subnet")
        if subnet_id in router.interface_subnet_ids:
            raise ConflictError(f"subnet {subnet_id} already attached to {router_id}")
        router.interface_subnet_ids.append(subnet_id)

    # -- floating IPs ----------------------------------------------------

    def allocate_floating_ip(
        self, project: str, *, lab: str | None = None, user: str | None = None
    ) -> FloatingIP:
        """Allocate a public address; metered from now until release."""
        self._quota.reserve(floating_ips=1)
        fip = FloatingIP(
            id=self._ids.next("fip"),
            address=self._public_pool.allocate_address(),
            project=project,
        )
        self.floating_ips[fip.id] = fip
        self._meter.open_span(
            fip.id, kind="floating_ip", resource_type="floating_ip",
            project=project, lab=lab, user=user,
        )
        return fip

    def associate_floating_ip(self, fip_id: str, server_id: str) -> None:
        fip = self._get(self.floating_ips, fip_id, "floating IP")
        if fip.associated:
            raise ConflictError(f"floating IP {fip_id} already associated with {fip.port_device_id}")
        fip.port_device_id = server_id

    def disassociate_floating_ip(self, fip_id: str) -> None:
        fip = self._get(self.floating_ips, fip_id, "floating IP")
        fip.port_device_id = None

    def release_floating_ip(self, fip_id: str) -> None:
        fip = self._get(self.floating_ips, fip_id, "floating IP")
        del self.floating_ips[fip_id]
        self._quota.release(floating_ips=1)
        self._meter.close_span(fip_id)

    # -- security groups --------------------------------------------------

    def create_security_group(self, project: str, name: str) -> SecurityGroup:
        self._quota.reserve(security_groups=1)
        sg = SecurityGroup(id=self._ids.next("sg"), name=name, project=project)
        self.security_groups[sg.id] = sg
        return sg

    def add_rule(self, sg_id: str, rule: SecurityGroupRule) -> None:
        sg = self._get(self.security_groups, sg_id, "security group")
        if rule in sg.rules:
            raise ConflictError(f"duplicate rule on {sg_id}: {rule!r}")
        sg.rules.append(rule)

    def delete_security_group(self, sg_id: str) -> None:
        self._get(self.security_groups, sg_id, "security group")
        del self.security_groups[sg_id]
        self._quota.release(security_groups=1)

    # -- helpers ----------------------------------------------------------

    @staticmethod
    def _get(mapping, key, what):
        try:
            return mapping[key]
        except KeyError:
            raise NotFoundError(f"{what} {key!r} not found") from None
