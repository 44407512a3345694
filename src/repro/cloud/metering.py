"""Usage metering.

Every billable resource (server, bare-metal node, edge device, floating IP,
block volume, object-store capacity) opens a *span* when created and closes
it when deleted.  The paper's entire §5 analysis — instance hours per
assignment, floating-IP hours, storage totals — is an aggregation over these
spans, so the meter is the single source of truth connecting the testbed
simulator to the cost model in :mod:`repro.core`.

Spans carry free-form attribution metadata.  The paper associated instances
with assignments "using the course timeline and the naming conventions
specified in the lab instructions"; the simulator attributes explicitly via
the ``lab``/``user`` fields (with the same effect and no parsing fragility).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.common.clock import SimClock
from repro.common.errors import ConflictError, NotFoundError, ValidationError


@dataclass(frozen=True)
class UsageRecord:
    """A closed (or snapshot-closed) usage span.

    Attributes
    ----------
    resource_id: The metered resource's id.
    kind: Billing family: ``server`` | ``baremetal`` | ``edge`` |
        ``floating_ip`` | ``volume`` | ``object_storage``.
    resource_type: The flavor / node type / device type name ("m1.medium",
        "gpu_v100", "raspberrypi5", ...).
    project: Owning project.
    user: Attributed user (student id) if known.
    lab: Assignment key (e.g. ``"lab2"``), or ``None`` for project work.
    start, end: Span boundaries in simulated hours.
    quantity: Billable quantity multiplier — 1.0 for instances and floating
        IPs, capacity in GB for storage spans.
    site: Site name the resource lived at.
    """

    resource_id: str
    kind: str
    resource_type: str
    project: str
    start: float
    end: float
    quantity: float = 1.0
    user: str | None = None
    lab: str | None = None
    site: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValidationError(f"span ends before it starts: {self!r}")
        if self.quantity < 0:
            raise ValidationError(f"negative quantity: {self!r}")

    @property
    def hours(self) -> float:
        """Duration of the span in hours."""
        return self.end - self.start

    @property
    def unit_hours(self) -> float:
        """``quantity * hours`` — the billing integral (GB-hours for storage)."""
        return self.quantity * self.hours


@dataclass(slots=True)
class _OpenSpan:
    resource_id: str
    kind: str
    resource_type: str
    project: str
    start: float
    quantity: float
    user: str | None
    lab: str | None


def _record(span: _OpenSpan, end: float, site: str) -> UsageRecord:
    """Close ``span`` at ``end``.  Positional: one record per span close
    is the meter's hot path, and keywords cost a frozen record more."""
    return UsageRecord(
        span.resource_id, span.kind, span.resource_type, span.project, span.start, end,
        span.quantity, span.user, span.lab, site,
    )


class UsageMeter:
    """Collects usage spans for one site."""

    def __init__(self, clock: SimClock, site: str = "") -> None:
        self._clock = clock
        self.site = site
        self._open: dict[str, _OpenSpan] = {}
        self._closed: list[UsageRecord] = []

    # -- span lifecycle ----------------------------------------------------

    def open_span(
        self,
        resource_id: str,
        *,
        kind: str,
        resource_type: str,
        project: str,
        quantity: float = 1.0,
        user: str | None = None,
        lab: str | None = None,
    ) -> None:
        if resource_id in self._open:
            raise ConflictError(f"span already open for {resource_id!r}")
        if quantity < 0:
            raise ValidationError(f"negative quantity for {resource_id!r}")
        self._open[resource_id] = _OpenSpan(
            resource_id, kind, resource_type, project, self._clock.now, quantity, user, lab
        )

    def close_span(self, resource_id: str) -> UsageRecord:
        try:
            span = self._open.pop(resource_id)
        except KeyError:
            raise NotFoundError(f"no open span for {resource_id!r}") from None
        rec = _record(span, self._clock.now, self.site)
        self._closed.append(rec)
        return rec

    def adjust_quantity(self, resource_id: str, quantity: float) -> None:
        """Change a span's billable quantity (e.g. object-store growth).

        The span up to *now* is closed at the old quantity and a new span
        opened at the new one, so the billing integral stays exact.
        """
        span = self._open.get(resource_id)
        if span is None:
            raise NotFoundError(f"no open span for {resource_id!r}")
        meta = dict(
            kind=span.kind,
            resource_type=span.resource_type,
            project=span.project,
            user=span.user,
            lab=span.lab,
        )
        self.close_span(resource_id)
        # the replacement span stays open on purpose: it bills until the
        # resource's own terminal path closes it
        self.open_span(  # repro: noqa RES004 (span rotation: stays open until terminate)
            resource_id, quantity=quantity, **meta
        )

    def is_open(self, resource_id: str) -> bool:
        return resource_id in self._open

    @property
    def open_count(self) -> int:
        """Number of currently open spans (0 after a full teardown)."""
        return len(self._open)

    def open_ids(self) -> list[str]:
        """Resource ids with an open span (for leak-audit assertions)."""
        return sorted(self._open)

    # -- queries -------------------------------------------------------------

    def records(
        self,
        *,
        include_open: bool = True,
        predicate: Callable[[UsageRecord], bool] | None = None,
    ) -> list[UsageRecord]:
        """All usage records; open spans are snapshot-closed at *now*."""
        out = list(self._closed)
        if include_open:
            now = self._clock.now
            out.extend(_record(span, now, self.site) for span in self._open.values())
        if predicate is not None:
            out = [r for r in out if predicate(r)]
        return out

    def total_hours(self, *, kind: str | None = None, lab: str | None = None) -> float:
        """Sum of ``unit_hours`` over matching records."""
        total = 0.0
        for rec in self.records():
            if kind is not None and rec.kind != kind:
                continue
            if lab is not None and rec.lab != lab:
                continue
            total += rec.unit_hours
        return total

    @staticmethod
    def merge(meters: Iterable["UsageMeter"]) -> list[UsageRecord]:
        """Concatenate records across sites (the testbed-wide view)."""
        out: list[UsageRecord] = []
        for meter in meters:
            out.extend(meter.records())
        return out
