"""The sweep's verdict: phase maps, the defense frontier, and the digest.

Separated from :mod:`repro.resilience.sweep` the way
:mod:`repro.loadgen.report` is separated from the simulation: the sweep
produces :class:`PointMetrics`, this module prices and presents them.
The defense frontier reuses :func:`repro.loadgen.report.pareto_front` —
one dominance definition across the repo, whether the axes are (p99,
$/M served) or ($/M effective, time-to-recovery).
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from repro.common.errors import ValidationError
from repro.common.tables import format_table
from repro.loadgen.report import pareto_front

if TYPE_CHECKING:  # type-only: sweep imports this module at runtime
    from repro.resilience.sweep import SweepConfig

#: Cell glyphs for the rendered phase map.
_GLYPH = {"RECOVERED": ".", "DEGRADED": "d", "LOCKED": "X"}


@dataclass(frozen=True)
class PointMetrics:
    """One swept point: its grid coordinates, phase, and price.

    ``digest`` is the point's full :meth:`TrafficResult.digest` — the
    sweep's byte-identity contract is per point, not just per report.
    """

    load_rps: float
    outage_length_s: float
    dark_replicas: int
    policy: str
    budget_fill: float
    breaker_error_threshold: float | None
    phase: str
    digest: str
    offered: int
    served: int
    shed: int
    loss_rate: float
    p99_ms: float
    amplification: float
    retries_declined_deadline: int
    breaker_opens: int
    time_to_recovery_s: float | None
    locked: bool
    cost_usd: float | None
    usd_per_million_effective: float | None

    @property
    def cell(self) -> tuple[float, float, int]:
        """(load, outage length, scope) — the physical operating point."""
        return (self.load_rps, self.outage_length_s, self.dark_replicas)


@dataclass(frozen=True)
class SweepReport:
    """The full campaign: every point, classified and priced."""

    config: "SweepConfig"
    points: tuple[PointMetrics, ...]

    # -- selection -----------------------------------------------------------

    def select(
        self, *, policy: str | None = None, dark_replicas: int | None = None
    ) -> tuple[PointMetrics, ...]:
        """Points matching every given coordinate (None = any)."""
        out = []
        for p in self.points:
            if policy is not None and p.policy != policy:
                continue
            if dark_replicas is not None and p.dark_replicas != dark_replicas:
                continue
            out.append(p)
        return tuple(out)

    def locked_region(self, policy: str) -> tuple[tuple[float, float, int], ...]:
        """The cells where ``policy`` ends LOCKED (any fill/threshold).

        The acceptance criterion in one call: non-empty for the naive
        client, empty for the budgeted and adaptive ones.
        """
        cells = {p.cell for p in self.select(policy=policy) if p.phase == "LOCKED"}
        return tuple(sorted(cells))

    def phases(self, policy: str) -> tuple[str, ...]:
        """The distinct phases ``policy`` exhibits anywhere on the grid."""
        seen = {p.phase for p in self.select(policy=policy)}
        return tuple(sorted(seen))

    # -- the frontier --------------------------------------------------------

    def defense_frontier(
        self,
        *,
        load_rps: float | None = None,
        outage_length_s: float | None = None,
        dark_replicas: int | None = None,
    ) -> tuple[PointMetrics, ...]:
        """The Pareto set over ($/M effective, time-to-recovery) at one cell.

        Defaults to the hardest cell (max load, max outage, widest outage
        scope) — the place where defenses earn their keep.  At full-site
        cells an open-loop client recovers instantly and undercuts every
        defense on price; at the widest partial scope the undefended
        policies thrash-lock, so the frontier prices exactly the policies
        that *survive* the worst cell.  LOCKED and unpriced points never
        make the frontier (a defense that loses the fleet has no price
        worth quoting).
        """
        if load_rps is None:
            load_rps = max(self.config.axes.loads_rps)
        if outage_length_s is None:
            outage_length_s = max(self.config.axes.outage_lengths_s)
        if dark_replicas is None:
            dark_replicas = max(self.config.axes.dark_replicas)
        cell = tuple(
            p
            for p in self.points
            if p.cell == (load_rps, outage_length_s, dark_replicas)
        )
        if not cell:
            raise ValidationError(
                f"no points at load={load_rps!r} rps, outage={outage_length_s!r} s, "
                f"dark={dark_replicas!r}; sweep the cell first"
            )

        def objectives(p: PointMetrics):
            if p.locked or p.usd_per_million_effective is None:
                return None
            assert p.time_to_recovery_s is not None
            return (p.usd_per_million_effective, p.time_to_recovery_s)

        return tuple(cell[i] for i in pareto_front(cell, objectives))

    # -- the contract --------------------------------------------------------

    def digest(self) -> str:
        """SHA-256 over the config and every point's digest + metrics.

        Byte-identical under rerun, perturbed evaluation orders, and
        workers {1, 2, 4} — the campaign-level determinism contract CI
        pins via ``python -m repro.verify sweep``.
        """
        h = hashlib.sha256()
        h.update(repr(self.config).encode())
        for p in self.points:
            h.update(p.digest.encode())
            h.update(repr(p).encode())
        return h.hexdigest()

    # -- presentation --------------------------------------------------------

    def render_phase_map(self) -> str:
        """One grid per (policy, scope): loads down, outage lengths across.

        A cell shows the *worst* phase over that policy's fills and
        thresholds (``.`` recovered, ``d`` degraded, ``X`` locked) — the
        map answers "can this policy lock up here at all?", and the
        frontier answers what the safe variants cost.
        """
        axes = self.config.axes
        lines: list[str] = []
        severity = {"RECOVERED": 0, "DEGRADED": 1, "LOCKED": 2}
        for policy in axes.policies:
            for dark in axes.dark_replicas:
                scope = "full outage" if dark == 0 else f"{dark} of "
                if dark:
                    scope += f"{self.config.base.max_replicas} replicas dark"
                header = [f"{policy} — {scope}", "  rps \\ outage_s" + "".join(
                    f"{int(length):>8d}" for length in axes.outage_lengths_s
                )]
                rows = []
                for load in axes.loads_rps:
                    cells = []
                    for length in axes.outage_lengths_s:
                        worst = max(
                            (
                                p.phase
                                for p in self.points
                                if p.policy == policy
                                and p.cell == (load, length, dark)
                            ),
                            key=lambda ph: severity[ph],
                            default=None,
                        )
                        cells.append(_GLYPH.get(worst, " ") if worst else " ")
                    rows.append(
                        f"  {load:>10.0f}   " + "".join(f"{c:>8s}" for c in cells)
                    )
                lines.extend(header + rows + [""])
        lines.append("legend: . recovered   d degraded   X locked (metastable)")
        return "\n".join(lines)

    def render_frontier(self, frontier: tuple[PointMetrics, ...]) -> str:
        rows = [
            (
                p.policy,
                p.budget_fill,
                p.breaker_error_threshold,
                f"{p.time_to_recovery_s:.0f}",
                f"{p.amplification:.3f}",
                p.usd_per_million_effective,
            )
            for p in frontier
        ]
        return format_table(
            ["policy", "fill", "brk_thresh", "ttr_s", "amp", "usd_per_M_eff"],
            rows,
            title=(
                "defense frontier: Pareto-minimal ($/M effective, "
                "time-to-recovery) at the hardest surviving cell"
            ),
            float_fmt=",.4f",
        )

    def render(self) -> str:
        """Phase map, per-policy summary, and the default frontier."""
        severity = {"RECOVERED": 0, "DEGRADED": 1, "LOCKED": 2}
        summary_rows = []
        for policy in self.config.axes.policies:
            pts = self.select(policy=policy)
            locked = sum(1 for p in pts if p.phase == "LOCKED")
            degraded = sum(1 for p in pts if p.phase == "DEGRADED")
            recovered = sum(1 for p in pts if p.phase == "RECOVERED")
            worst = max(pts, key=lambda p: (severity[p.phase], p.time_to_recovery_s or 0.0))
            priced = [
                p.usd_per_million_effective
                for p in pts
                if p.usd_per_million_effective is not None
            ]
            summary_rows.append(
                (
                    policy,
                    len(pts),
                    recovered,
                    degraded,
                    locked,
                    "LOCKED" if worst.locked else f"{worst.time_to_recovery_s:.0f}",
                    min(priced) if priced else None,
                )
            )
        table = format_table(
            ["policy", "points", "recov", "degr", "locked", "worst_ttr_s", "min_usd_per_M_eff"],
            summary_rows,
            title=(
                f"phase-map sweep: {len(self.points)} points, "
                f"{self.config.axes.cells} cells, grace "
                f"{self.config.recovery_grace_s:.0f} s"
            ),
            float_fmt=",.4f",
        )
        frontier = self.defense_frontier()
        return "\n\n".join(
            [self.render_phase_map(), table, self.render_frontier(frontier)]
        )

    def to_dict(self) -> dict:
        return {
            "config": repr(self.config),
            "digest": self.digest(),
            "points": [asdict(p) for p in self.points],
            "frontier": [asdict(p) for p in self.defense_frontier()],
        }


__all__ = ["PointMetrics", "SweepReport"]
