"""The phase-map sweep: grid expansion, classification, digest contract.

One tiny campaign (6 points, both outage scopes, a naive rung and two
defended rungs) pins the acceptance shape from the scenario layer at
sweep scale: the naive client's LOCKED region is non-empty, the
budgeted and adaptive clients' LOCKED regions are empty, and the
partial-outage storm must NOT trip the breaker fleet-wide.  The report
digest must be byte-identical under rerun, perturbation, and worker
fan-out.
"""

import pytest

from repro.common.errors import ValidationError
from repro.resilience.report import SweepReport
from repro.resilience.scenario import DEFENDED_POLICIES, POLICIES, StormConfig
from repro.resilience.sweep import (
    PHASES,
    SweepAxes,
    SweepConfig,
    build_points,
    classify,
    quick_sweep_config,
    run_sweep,
)

#: Five minutes, 90-second outage, one load: locks the naive rung at
#: both scopes in seconds of wall clock.
TINY = SweepConfig(
    base=StormConfig(duration_s=300.0, outage_start_s=75.0, outage_end_s=165.0),
    axes=SweepAxes(
        loads_rps=(250.0,),
        outage_lengths_s=(90.0,),
        dark_replicas=(0, 1),
        policies=(
            "naive-retry",
            "budgeted-retry+breaker",
            "adaptive-retry+breaker",
        ),
        budget_fills=(0.1,),
        breaker_error_thresholds=(0.5,),
    ),
)


@pytest.fixture(scope="module")
def report():
    return run_sweep(TINY, workers=2)


class TestClassify:
    def test_locked_wins_regardless_of_ttr(self):
        assert classify(None, True, recovery_grace_s=60.0) == "LOCKED"

    def test_grace_boundary_is_inclusive(self):
        assert classify(60.0, False, recovery_grace_s=60.0) == "RECOVERED"
        assert classify(60.1, False, recovery_grace_s=60.0) == "DEGRADED"

    def test_phases_order_is_the_severity_order(self):
        assert PHASES == ("RECOVERED", "DEGRADED", "LOCKED")


class TestAxes:
    def test_empty_axis_is_refused(self):
        with pytest.raises(ValidationError):
            SweepAxes(loads_rps=())

    def test_unknown_policy_is_refused(self):
        with pytest.raises(ValidationError):
            SweepAxes(policies=("naive-retry", "yolo-retry"))

    def test_default_grid_is_336_points(self):
        axes = SweepAxes()
        assert axes.cells == 24
        assert axes.points == 336

    def test_quick_grid_is_24_points(self):
        assert quick_sweep_config().axes.points == 24

    def test_undefended_policies_skip_fill_and_threshold_axes(self):
        points = build_points(TINY)
        assert len(points) == TINY.axes.points == 6
        naive = [p for p in points if p.policy == "naive-retry"]
        assert all(p.breaker_error_threshold is None for p in naive)
        assert all(p.budget_fill == TINY.base.retry_budget_fill for p in naive)
        defended = [p for p in points if p.policy in DEFENDED_POLICIES]
        assert all(p.breaker_error_threshold == 0.5 for p in defended)

    def test_point_order_is_a_pure_function_of_the_config(self):
        a = build_points(TINY)
        b = build_points(TINY)
        assert a == b

    def test_perturb_rides_into_every_rung(self):
        assert all(p.rung.perturb for p in build_points(TINY, perturb=True))
        assert not any(p.rung.perturb for p in build_points(TINY))


class TestSweepConfig:
    def test_outage_length_must_fit_the_run(self):
        with pytest.raises(ValidationError):
            SweepConfig(
                base=TINY.base, axes=SweepAxes(outage_lengths_s=(300.0,))
            )

    def test_dark_replicas_must_leave_a_survivor(self):
        with pytest.raises(ValidationError):
            SweepConfig(base=TINY.base, axes=SweepAxes(dark_replicas=(0, 2)))

    def test_negative_grace_is_refused(self):
        with pytest.raises(ValidationError):
            SweepConfig(base=TINY.base, recovery_grace_s=-1.0)


class TestPhaseMap:
    def test_naive_locked_region_is_nonempty(self, report):
        """The metastable region exists — at both outage scopes."""
        region = report.locked_region("naive-retry")
        assert len(region) == 2
        assert {cell[2] for cell in region} == {0, 1}

    def test_defended_locked_regions_are_empty(self, report):
        assert report.locked_region("budgeted-retry+breaker") == ()
        assert report.locked_region("adaptive-retry+breaker") == ()
        assert report.phases("budgeted-retry+breaker") == ("RECOVERED",)

    def test_partial_outage_must_not_trip_the_breaker_fleet_wide(self, report):
        """One dark replica is a capacity loss, not a fleet outage: the
        survivors keep serving, so the defended policies' breakers stay
        closed while the full-site storm opens them."""
        for policy in ("budgeted-retry+breaker", "adaptive-retry+breaker"):
            partial = report.select(policy=policy, dark_replicas=1)
            full = report.select(policy=policy, dark_replicas=0)
            assert all(p.breaker_opens == 0 for p in partial)
            assert all(p.breaker_opens >= 1 for p in full)

    def test_adaptive_client_declines_doomed_retries(self, report):
        """The give-up deadline binds during the full-site storm (the
        queue pushes backoff instants past the deadline), and the counter
        reaches the point metrics."""
        (point,) = report.select(policy="adaptive-retry+breaker", dark_replicas=0)
        assert point.retries_declined_deadline > 0

    def test_amplification_cap_holds_at_every_defended_point(self, report):
        for policy in DEFENDED_POLICIES:
            for p in report.select(policy=policy):
                assert p.amplification <= 1.0 + p.budget_fill + 1e-9


class TestDigestContract:
    def test_rerun_perturb_and_workers_agree(self, report):
        baseline = report.digest()
        assert run_sweep(TINY, perturb=True).digest() == baseline
        assert run_sweep(TINY, workers=1).digest() == baseline

    def test_report_digest_is_pinned(self, report):
        """Numpy 2 scalar reprs (ROADMAP item 2): ``cost_usd`` and
        ``usd_per_million_effective`` print as ``np.float64(...)``."""
        assert report.digest() == (
            "41667ca0ccf10d8ae4c42249ccef8d3b7599d27c1038d9bb36f391cf3ac90b32"
        )

    def test_config_reaches_the_digest(self, report):
        reseeded = SweepConfig(
            base=StormConfig(
                duration_s=300.0, outage_start_s=75.0, outage_end_s=165.0, seed=12
            ),
            axes=TINY.axes,
        )
        salted = SweepReport(config=reseeded, points=report.points)
        assert salted.digest() != report.digest()


class TestFrontier:
    def test_defaults_to_the_hardest_cell_widest_scope(self, report):
        frontier = report.defense_frontier()
        assert frontier
        assert all(p.cell == (250.0, 90.0, 1) for p in frontier)

    def test_explicit_cell_override(self, report):
        frontier = report.defense_frontier(dark_replicas=0)
        assert frontier
        assert all(p.cell == (250.0, 90.0, 0) for p in frontier)

    def test_locked_points_never_make_the_frontier(self, report):
        for dark in (0, 1):
            frontier = report.defense_frontier(dark_replicas=dark)
            assert all(not p.locked for p in frontier)
            assert all(p.policy != "naive-retry" for p in frontier)

    def test_frontier_points_are_priced(self, report):
        for p in report.defense_frontier():
            assert p.usd_per_million_effective is not None
            assert p.time_to_recovery_s is not None

    def test_unswept_cell_is_refused(self, report):
        with pytest.raises(ValidationError):
            report.defense_frontier(load_rps=9999.0)


class TestReporting:
    def test_phase_map_shows_both_scopes_and_the_lock_glyph(self, report):
        text = report.render_phase_map()
        assert "full outage" in text
        assert "1 of 2 replicas dark" in text
        assert "X" in text
        assert "legend" in text

    def test_render_names_every_policy_and_the_frontier(self, report):
        text = report.render()
        for policy in TINY.axes.policies:
            assert policy in text
        assert "defense frontier" in text

    def test_to_dict_round_trips_points_and_digest(self, report):
        d = report.to_dict()
        assert d["digest"] == report.digest()
        assert len(d["points"]) == 6
        assert d["frontier"]

    def test_select_filters_compose(self, report):
        got = report.select(policy="naive-retry", dark_replicas=1)
        assert len(got) == 1
        assert got[0].phase == "LOCKED"


class TestPolicyRegistry:
    def test_sweepable_policies_cover_the_ladder_and_the_new_clients(self):
        assert POLICIES == (
            "no-retry",
            "naive-retry",
            "budgeted-retry+breaker",
            "adaptive-retry+breaker",
            "hedged-retry+breaker",
        )
        assert set(DEFENDED_POLICIES) == set(POLICIES[2:])
