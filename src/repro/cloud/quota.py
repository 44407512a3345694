"""Per-project quota accounting.

The paper (§4) lists the quota increase the course requested for the
KVM@TACC site — 600 simultaneous VM instances, 1200 cores, 2.5 TB RAM,
unlimited networks, 200 routers, 300 floating IPs, 100 security groups,
200 volumes, 10 TB block storage.  :class:`Quota` encodes such a limit set
and :class:`QuotaManager` enforces it with reserve/release semantics; every
provisioning path in the site goes through it, so quota exhaustion surfaces
exactly where it would on the real testbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.common.errors import QuotaExceededError, ValidationError

UNLIMITED = math.inf


@dataclass(frozen=True)
class Quota:
    """Resource ceilings for one project.  ``math.inf`` means unlimited."""

    instances: float = 10
    cores: float = 20
    ram_gib: float = 50
    networks: float = 10
    routers: float = 10
    floating_ips: float = 10
    security_groups: float = 10
    volumes: float = 10
    volume_storage_gb: float = 1000
    object_storage_gb: float = 1000

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if v < 0:
                raise ValidationError(f"quota {f.name} cannot be negative: {v!r}")

    @classmethod
    def unlimited(cls) -> "Quota":
        return cls(**{f.name: UNLIMITED for f in fields(cls)})

    def scaled(self, factor: float) -> "Quota":
        """This quota with every finite ceiling multiplied by ``factor``.

        Used when simulating cohorts larger than the one the paper's
        quota increase was sized for; values round up so integral limits
        stay integral.  Unlimited dimensions stay unlimited.
        """
        if factor <= 0:
            raise ValidationError(f"scale factor must be positive: {factor!r}")
        scaled_values = {}
        for f in fields(self):
            v = getattr(self, f.name)
            scaled_values[f.name] = v if math.isinf(v) else float(math.ceil(v * factor))
        return Quota(**scaled_values)

    @classmethod
    def course_quota(cls) -> "Quota":
        """The KVM@TACC quota increase granted to the course (paper §4)."""
        return cls(
            instances=600,
            cores=1200,
            ram_gib=2560,  # 2.5 TB
            networks=UNLIMITED,
            routers=200,
            floating_ips=300,
            security_groups=100,
            volumes=200,
            volume_storage_gb=10_000,  # 10 TB
            object_storage_gb=UNLIMITED,
        )


@dataclass(slots=True)
class _Usage:
    instances: float = 0
    cores: float = 0
    ram_gib: float = 0
    networks: float = 0
    routers: float = 0
    floating_ips: float = 0
    security_groups: float = 0
    volumes: float = 0
    volume_storage_gb: float = 0
    object_storage_gb: float = 0


#: The dimensions ``reserve`` and ``release`` accept (``_Usage``'s fields).
_DIMENSIONS = frozenset(f.name for f in fields(_Usage))


class QuotaManager:
    """Track per-project usage against a :class:`Quota`.

    ``reserve`` raises :class:`~repro.common.errors.QuotaExceededError`
    atomically — either every requested dimension fits and is charged, or
    nothing is.
    """

    def __init__(self, limits: Quota | None = None) -> None:
        self.limits = limits if limits is not None else Quota()
        self._usage = _Usage()

    def usage(self, dimension: str) -> float:
        """Current in-use amount for ``dimension``."""
        return getattr(self._usage, dimension)

    def available(self, dimension: str) -> float:
        """Remaining headroom for ``dimension``."""
        return getattr(self.limits, dimension) - getattr(self._usage, dimension)

    def reserve(self, **amounts: float) -> None:
        """Atomically charge ``amounts`` against the quota."""
        usage, limits = self._usage, self.limits
        for dim, amount in amounts.items():
            if dim not in _DIMENSIONS:
                raise ValidationError(f"unknown quota dimension {dim!r}")
            if amount < 0:
                raise ValidationError(f"cannot reserve negative {dim}={amount!r}")
            in_use = getattr(usage, dim)
            if in_use + amount > getattr(limits, dim):
                raise QuotaExceededError(
                    f"quota exceeded for {dim}: in use {in_use!r} "
                    f"+ requested {amount!r} > limit {getattr(limits, dim)!r}"
                )
        for dim, amount in amounts.items():
            setattr(usage, dim, getattr(usage, dim) + amount)

    def release(self, **amounts: float) -> None:
        """Return previously reserved ``amounts``."""
        usage = self._usage
        for dim, amount in amounts.items():
            if dim not in _DIMENSIONS:
                raise ValidationError(f"unknown quota dimension {dim!r}")
            if amount < 0:
                raise ValidationError(f"cannot release negative {dim}={amount!r}")
            current = getattr(usage, dim)
            if amount > current + 1e-9:
                raise ValidationError(
                    f"releasing more {dim} than reserved: {amount!r} > {current!r}"
                )
        for dim, amount in amounts.items():
            setattr(usage, dim, max(0.0, getattr(usage, dim) - amount))
