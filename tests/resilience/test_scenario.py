"""The metastable retry-storm ladder: verdicts, pricing, digest contract.

One shared storm (shorter than the CLI default, same physics): the naive
client must lock into sustained overload after the fault clears, the
no-retry client must recover instantly, and the budgeted+breaker client
must drain under its amplification cap.  The ladder digest must be
byte-identical under rerun, perturbation, and worker fan-out, and equal
to its pinned value.  The ladder runs through the sweep's runner, so
each rung must also equal its point of the one-cell sweep.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.resilience.report import PointMetrics
from repro.resilience.scenario import (
    RUNGS,
    RungMetrics,
    StormConfig,
    policy_spec,
    recovery_from_samples,
    storm_ladder,
)
from repro.resilience.sweep import (
    SECONDS_PER_DAY,
    SweepAxes,
    SweepConfig,
    _measure_storm,
    _run_ladder_rung,
    run_storm,
    run_sweep,
)

#: Ten minutes with a 90-second mid-run outage: locks the naive rung in
#: a few seconds of wall clock.
STORM = StormConfig(duration_s=600.0, outage_start_s=150.0, outage_end_s=240.0)

#: ``run_storm(STORM).digest()`` (numpy 2 scalar reprs; ROADMAP item 2).
STORM_DIGEST = "e6746398e42b3c5cf849098c8f3ca536dbce6180b739e6f4220f8238e9ee1e12"


@pytest.fixture(scope="module")
def report():
    return run_storm(STORM)


class TestStormConfig:
    def test_outage_must_sit_inside_the_run(self):
        with pytest.raises(ValidationError):
            StormConfig(outage_start_s=500.0, outage_end_s=700.0, duration_s=600.0)
        with pytest.raises(ValidationError):
            StormConfig(outage_start_s=100.0, outage_end_s=100.0)

    def test_congestion_fraction_validated(self):
        with pytest.raises(ValidationError):
            StormConfig(congestion_fraction=0.0)

    def test_ladder_shares_the_server_congestion_model(self):
        specs = storm_ladder(STORM)
        assert tuple(s.name for s in specs) == RUNGS
        assert len({s.congestion for s in specs}) == 1
        assert specs[0].congestion.slowdown == STORM.thrash_slowdown


class TestVerdicts:
    def test_no_retry_recovers_instantly_at_unit_amplification(self, report):
        rung = report.rung("no-retry")
        assert rung.amplification == 1.0
        assert rung.locked is False
        assert rung.time_to_recovery_s == 0.0

    def test_naive_retry_locks_after_the_fault_clears(self, report):
        """The metastable signature: the outage is 90 s, but the naive
        client's retry load holds the thrashing server over capacity for
        the rest of the run."""
        rung = report.rung("naive-retry")
        assert rung.locked is True
        assert rung.time_to_recovery_s is None
        assert rung.amplification > 1.5

    def test_budgeted_breaker_drains_under_the_cap(self, report):
        rung = report.rung("budgeted-retry+breaker")
        assert rung.locked is False
        assert rung.amplification <= 1.0 + STORM.retry_budget_fill + 1e-9
        assert rung.breaker_opens >= 1
        assert rung.shed > 0

    def test_defended_rung_beats_naive_on_loss_and_unit_cost(self, report):
        naive = report.rung("naive-retry")
        guarded = report.rung("budgeted-retry+breaker")
        assert guarded.loss_rate < naive.loss_rate
        assert guarded.usd_per_million_effective < naive.usd_per_million_effective

    def test_every_rung_is_priced(self, report):
        for rung in report.rungs:
            assert rung.cost_usd is not None and rung.cost_usd > 0
            assert rung.usd_per_million_effective is not None


class TestDigestContract:
    def test_rerun_perturb_and_workers_agree(self, report):
        """The scenario's CI contract in miniature (``python -m
        repro.verify storm`` also checks workers 4)."""
        baseline = report.digest()
        assert run_storm(STORM, perturb=True).digest() == baseline
        assert run_storm(STORM, workers=2).digest() == baseline

    def test_config_reaches_the_digest(self, report):
        other = run_storm(
            StormConfig(
                duration_s=600.0, outage_start_s=150.0, outage_end_s=240.0, seed=12
            )
        )
        assert other.digest() != report.digest()

    def test_rung_metrics_match_the_full_result(self, report):
        spec = storm_ladder(STORM)[0]
        result, shared = _measure_storm(spec)
        metrics = report.rung(spec.name)
        assert metrics.digest == shared["digest"] == result.digest()
        assert metrics.served == result.served

    def test_storm_digest_is_pinned(self, report):
        """A refactor that moves any rung's bytes fails here, not only
        one that breaks rerun/perturb/workers agreement."""
        assert report.digest() == STORM_DIGEST

    def test_ladder_runs_the_callers_rate_unrebuilt(self):
        """1.24e7 req/day does not survive ``/ 86400 * 86400``: a ladder
        rebuilt from sweep coordinates would run a different storm."""
        storm = StormConfig(
            duration_s=300.0, outage_start_s=75.0, outage_end_s=165.0,
            requests_per_day=1.24e7,
        )
        rate = storm.requests_per_day / SECONDS_PER_DAY
        assert rate * SECONDS_PER_DAY != storm.requests_per_day
        assert run_storm(storm).digest() == (
            "27ad25b36469a19deef620388e2b941bd5f0be0338f82deac7d85305c7e854ed"
        )


class TestOneRunner:
    def test_every_rung_equals_its_one_cell_sweep_point(self, report):
        """The ladder is the one-cell sweep over its own policies: at
        250 rps, where the rate round-trips, every rung matches its
        point on all twelve fields the two records share, repr for repr."""
        cell = SweepConfig(
            base=STORM,
            axes=SweepAxes(
                loads_rps=(250.0,),
                outage_lengths_s=(90.0,),
                dark_replicas=(0,),
                policies=RUNGS,
                budget_fills=(0.1,),
                breaker_error_thresholds=(0.5,),
            ),
        )
        points = run_sweep(cell).points
        point_fields = {f.name for f in fields(PointMetrics)}
        shared = [f.name for f in fields(RungMetrics) if f.name in point_fields]
        assert len(shared) == 12
        assert [p.policy for p in points] == [r.name for r in report.rungs]
        for rung, point in zip(report.rungs, points):
            assert [repr(getattr(rung, f)) for f in shared] == [
                repr(getattr(point, f)) for f in shared
            ]


class TestReporting:
    def test_render_names_the_metastable_verdict(self, report):
        text = report.render()
        assert "metastable" in text
        assert "LOCKED" in text
        for name in RUNGS:
            assert name in text

    def test_to_dict_round_trips_the_rungs(self, report):
        d = report.to_dict()
        assert d["digest"] == report.digest()
        assert [r["name"] for r in d["rungs"]] == list(RUNGS)
        assert d["rungs"][1]["locked"] is True

    def test_unknown_rung_is_refused(self, report):
        with pytest.raises(ValidationError):
            report.rung("nonexistent")


class TestPolicySpecs:
    def test_unknown_policy_is_refused(self):
        with pytest.raises(ValidationError):
            policy_spec("yolo-retry", STORM)

    def test_adaptive_and_hedged_specs_mount_the_full_defense(self):
        for name in ("adaptive-retry+breaker", "hedged-retry+breaker"):
            spec = policy_spec(name, STORM, breaker_error_threshold=0.25)
            assert spec.breaker is not None
            assert spec.breaker.error_threshold == 0.25
            assert spec.shedding is not None
            assert spec.client.give_up_deadline_s == pytest.approx(10.0)

    def test_hedged_rung_recovers_under_the_cap(self):
        metrics = _run_ladder_rung(policy_spec("hedged-retry+breaker", STORM))
        assert metrics.locked is False
        assert metrics.amplification <= 1.0 + STORM.retry_budget_fill + 1e-9


class TestPartialOutage:
    def test_dark_replicas_validated(self):
        with pytest.raises(ValidationError):
            StormConfig(outage_dark_replicas=2)  # max_replicas is 2
        with pytest.raises(ValidationError):
            StormConfig(outage_dark_replicas=-1)

    def test_partial_storm_keeps_the_breaker_closed(self):
        """One dark replica is a capacity loss, not a fleet outage: the
        surviving replica keeps answering, so the error window never
        crosses the trip threshold and the breaker must ride the whole
        storm out closed."""
        storm = replace(STORM, outage_dark_replicas=1)
        metrics = _run_ladder_rung(policy_spec("budgeted-retry+breaker", storm))
        assert metrics.breaker_opens == 0
        assert metrics.locked is False
        assert metrics.served > 0

    def test_partial_scope_is_not_a_smaller_full_outage(self):
        """The blackout drops its backlog fast and recovers instantly;
        the partial outage leaves an *undefended* survivor thrash-pinned
        at the queue cap — congestion collapse locks the fleet without a
        single retry.  (The defended policies escape exactly this via
        depth shedding; see the breaker test above.)"""
        full = _run_ladder_rung(policy_spec("no-retry", STORM))
        partial = _run_ladder_rung(
            policy_spec("no-retry", replace(STORM, outage_dark_replicas=1))
        )
        assert full.digest != partial.digest
        assert full.locked is False and full.time_to_recovery_s == 0.0
        assert partial.locked is True


class TestRecoveryCriterion:
    def samples(self, *depths, start=240.0, step=10.0):
        return np.asarray(
            [(start + i * step, d, 2.0) for i, d in enumerate(depths)], dtype=np.float64
        )

    def test_no_ticks_after_outage_means_recovered(self):
        ttr, locked = recovery_from_samples(
            np.zeros((0, 3)), outage_end_s=240.0, congestion_depth=128.0
        )
        assert (ttr, locked) == (0.0, False)

    def test_never_congested_is_instant_recovery(self):
        ttr, locked = recovery_from_samples(
            self.samples(10.0, 5.0, 0.0), outage_end_s=240.0, congestion_depth=128.0
        )
        assert (ttr, locked) == (0.0, False)

    def test_ttr_measures_to_the_last_congested_tick(self):
        """A transient dip below threshold does not count as recovered."""
        ttr, locked = recovery_from_samples(
            self.samples(200.0, 50.0, 180.0, 3.0, 1.0),
            outage_end_s=240.0, congestion_depth=128.0,
        )
        assert locked is False
        assert ttr == 20.0  # the 180-deep tick at t=260, not the dip at 250

    def test_final_tick_congested_is_locked(self):
        ttr, locked = recovery_from_samples(
            self.samples(200.0, 190.0, 180.0), outage_end_s=240.0, congestion_depth=128.0
        )
        assert (ttr, locked) == (None, True)

    def test_pre_outage_congestion_is_ignored(self):
        samples = np.asarray(
            [(100.0, 250.0, 0.0), (250.0, 1.0, 2.0)], dtype=np.float64
        )
        ttr, locked = recovery_from_samples(
            samples, outage_end_s=240.0, congestion_depth=128.0
        )
        assert (ttr, locked) == (0.0, False)
