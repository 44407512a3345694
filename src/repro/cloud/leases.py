"""Blazar-like advance reservations ("leases") for bare-metal and edge nodes.

Paper §4: course staff reserved bare-metal GPU nodes in week-long blocks and
students booked short 2–3-hour slots on them; reserved instances are
**automatically terminated at the end of the reservation**.  That auto-
termination is the mechanism behind Fig 1(b): reserved usage closely tracks
expected usage, while on-demand VMs (no reservation, no auto-termination)
overshoot by up to an order of magnitude.

The manager enforces capacity: at every instant, the sum of reserved node
counts per node type may not exceed the inventory.  Expiry fires an event
that invokes registered callbacks (the compute service uses this to destroy
instances bound to the lease).

Admission reads a per-type index of the *live* (pending or active) leases
rather than every lease ever created, so a booking in week 14 costs what
one in week 1 does.  ``create_lease`` adds to the index; ``_expire`` and
``delete_lease`` — the only transitions out of the live states — remove
from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from repro.common.errors import (
    ConflictError,
    InvalidStateError,
    NotFoundError,
    ValidationError,
)
from repro.common.events import EventLoop
from repro.common.ids import IdGenerator


class LeaseStatus(str, Enum):
    PENDING = "pending"  # starts in the future
    ACTIVE = "active"
    EXPIRED = "expired"
    DELETED = "deleted"


@dataclass
class Lease:
    """A reservation of ``count`` nodes of ``resource_type`` over [start, end)."""

    id: str
    project: str
    resource_type: str
    count: int
    start: float
    end: float
    user: str | None = None
    lab: str | None = None
    status: LeaseStatus = LeaseStatus.PENDING
    bound_instances: list[str] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def active_at(self, t: float) -> bool:
        return self.start <= t < self.end and self.status in (
            LeaseStatus.PENDING,
            LeaseStatus.ACTIVE,
        )


class LeaseManager:
    """Reservation calendar for one site's reservable inventory."""

    def __init__(self, loop: EventLoop, ids: IdGenerator, inventory: dict[str, int]) -> None:
        """``inventory`` maps resource-type name to node count."""
        self._loop = loop
        self._ids = ids
        self._inventory = dict(inventory)
        self.leases: dict[str, Lease] = {}
        # resource type -> id -> lease, for exactly the PENDING/ACTIVE leases
        self._live: dict[str, dict[str, Lease]] = {}
        self._expiry_callbacks: list[Callable[[Lease], None]] = []
        self._admission_gates: list[Callable[[str], None]] = []

    def on_expire(self, callback: Callable[[Lease], None]) -> None:
        """Register a callback invoked when any lease expires."""
        self._expiry_callbacks.append(callback)

    def on_admission(self, gate: Callable[[str], None]) -> None:
        """Register an admission gate consulted before any ``create_lease``.

        Gates receive the resource-type name and refuse by raising — the
        fault injector raises
        :class:`~repro.common.errors.ServiceUnavailableError` during site
        outages and :class:`~repro.common.errors.TransientError` during
        API-error bursts, before any calendar state is touched.
        """
        self._admission_gates.append(gate)

    def capacity(self, resource_type: str) -> int:
        try:
            return self._inventory[resource_type]
        except KeyError:
            raise NotFoundError(f"no reservable resource type {resource_type!r}") from None

    def reserved_at(self, resource_type: str, t: float) -> int:
        """Nodes of ``resource_type`` reserved at instant ``t``."""
        live = self._live.get(resource_type, {})
        return sum(l.count for l in live.values() if l.start <= t < l.end)

    def _max_overlap(self, resource_type: str, start: float, end: float, count: int) -> int:
        """Peak concurrent reservation in [start, end) if ``count`` were added."""
        live = self._live.get(resource_type, {})
        overlapping = [l for l in live.values() if l.end > start and l.start < end]
        # the reserved total only steps up where a lease starts, so its peak
        # over [start, end) is at ``start`` or at one of those starts
        boundaries = {start}
        boundaries.update(max(l.start, start) for l in overlapping)
        peak = 0
        for t in boundaries:
            reserved = sum(l.count for l in overlapping if l.start <= t < l.end)
            peak = max(peak, reserved + count)
        return peak

    def create_lease(
        self,
        project: str,
        resource_type: str,
        *,
        start: float,
        end: float,
        count: int = 1,
        user: str | None = None,
        lab: str | None = None,
    ) -> Lease:
        """Reserve ``count`` nodes over [start, end); conflicts raise 409."""
        for gate in self._admission_gates:
            gate(resource_type)
        if count <= 0:
            raise ValidationError(f"lease count must be positive, got {count!r}")
        if end <= start:
            raise ValidationError(f"lease must end after it starts: [{start}, {end})")
        if start < self._loop.clock.now - 1e-12:
            raise ValidationError(f"lease cannot start in the past ({start} < {self._loop.clock.now})")
        cap = self.capacity(resource_type)
        if self._max_overlap(resource_type, start, end, count) > cap:
            raise ConflictError(
                f"not enough {resource_type!r} nodes free in [{start}, {end}) "
                f"(capacity {cap})"
            )
        lease = Lease(
            id=self._ids.next("lease"),
            project=project,
            resource_type=resource_type,
            count=count,
            start=start,
            end=end,
            user=user,
            lab=lab,
        )
        self.leases[lease.id] = lease
        self._live.setdefault(resource_type, {})[lease.id] = lease
        if start <= self._loop.clock.now:
            lease.status = LeaseStatus.ACTIVE
        else:
            self._loop.schedule(start, lambda: self._activate(lease.id), label=f"{lease.id}:start")
        self._loop.schedule(end, lambda: self._expire(lease.id), label=f"{lease.id}:end")
        return lease

    def get(self, lease_id: str) -> Lease:
        try:
            return self.leases[lease_id]
        except KeyError:
            raise NotFoundError(f"lease {lease_id!r} not found") from None

    def bind_instance(self, lease_id: str, instance_id: str) -> None:
        """Record that ``instance_id`` runs under this lease (for auto-kill)."""
        lease = self.get(lease_id)
        if lease.status is not LeaseStatus.ACTIVE:
            raise InvalidStateError(f"lease {lease_id} is {lease.status.value}, not active")
        if len(lease.bound_instances) >= lease.count:
            raise ConflictError(
                f"lease {lease_id} already has {lease.count} bound instance(s)"
            )
        lease.bound_instances.append(instance_id)

    def unbind_instance(self, lease_id: str, instance_id: str) -> None:
        lease = self.get(lease_id)
        if instance_id in lease.bound_instances:
            lease.bound_instances.remove(instance_id)

    def delete_lease(self, lease_id: str) -> None:
        """Early termination by the user; fires expiry callbacks."""
        lease = self.get(lease_id)
        if lease.status in (LeaseStatus.EXPIRED, LeaseStatus.DELETED):
            raise InvalidStateError(f"lease {lease_id} already {lease.status.value}")
        lease.status = LeaseStatus.DELETED
        del self._live[lease.resource_type][lease.id]
        for cb in self._expiry_callbacks:
            cb(lease)
        lease.bound_instances.clear()

    # -- event handlers ----------------------------------------------------

    def _activate(self, lease_id: str) -> None:
        lease = self.leases.get(lease_id)
        if lease is not None and lease.status is LeaseStatus.PENDING:
            lease.status = LeaseStatus.ACTIVE

    def _expire(self, lease_id: str) -> None:
        lease = self.leases.get(lease_id)
        if lease is None or lease.status in (LeaseStatus.EXPIRED, LeaseStatus.DELETED):
            return
        lease.status = LeaseStatus.EXPIRED
        del self._live[lease.resource_type][lease.id]
        for cb in self._expiry_callbacks:
            cb(lease)
        lease.bound_instances.clear()
