"""The spot PR's acceptance criteria, end to end on the cohort simulation.

(a) the spot what-if lab total undercuts the on-demand Table 1 total at
    the baseline preemption rate,
(b) expected completion time of preemptible training falls then flattens
    as the checkpoint interval shrinks,
(c) budget guardrails compress the Fig-2 max/mean tail ratio, and
(d) with the spot subsystem disabled the pipeline's outputs are
    bit-identical to the seed's.
"""

import numpy as np
import pytest

from repro.core import (
    CohortSimulation,
    CostModel,
    SpotScenario,
    spot_whatif,
    summarize_usage,
    table1,
)
from repro.core.costmodel import distribution_stats
from repro.core.report import spot_headline_summary
from repro.spot import (
    BudgetGuard,
    BudgetPolicy,
    SpotMarket,
    commercial_rate_fn,
    expected_completion_hours,
    simulate_preemptible_training,
)
from repro.training.trainer import TrainingSimulator


@pytest.fixture(scope="module")
def lab_records():
    return CohortSimulation().run(include_project=False)


class TestSpotWhatIfSavings:
    def test_spot_total_strictly_below_on_demand(self, lab_records):
        t1 = table1(lab_records)
        what_if = spot_whatif(lab_records)
        for provider in ("aws", "gcp"):
            spot = what_if.totals[f"{provider}_cost"]
            on_demand = t1.totals[f"{provider}_cost"]
            assert 0 < spot < on_demand
            # deep discount minus modest re-work: expect a 30-80 % saving
            assert 0.3 < what_if.savings(provider) / on_demand < 0.8

    def test_headline_summary_consistent(self, lab_records):
        h = spot_headline_summary(lab_records)
        assert h["aws_lab_savings"] > 0
        assert h["gcp_lab_savings"] > 0
        assert h["time_inflation"] > 1.0
        assert h["aws_lab_per_student"] * 191 == pytest.approx(
            spot_whatif(lab_records).totals["aws_cost"], rel=1e-9
        )

    def test_edge_rows_stay_na(self, lab_records):
        for row in spot_whatif(lab_records).rows:
            if row.resource_type in ("raspberrypi5", "jetson-nano"):
                assert row.aws_cost is None
                assert row.gcp_cost is None

    def test_savings_shrink_with_hazard(self, lab_records):
        model = CostModel()
        usage = summarize_usage(lab_records)
        on_demand = model.lab_totals(model.lab_rows(usage))["aws_cost"]
        savings = []
        for lam in (0.01, 0.05, 0.2, 1.0, 5.0):
            rows = model.lab_rows(usage, SpotScenario(preempt_rate_per_hour=lam))
            savings.append(on_demand - model.lab_totals(rows)["aws_cost"])
        assert savings == sorted(savings, reverse=True)

    def test_render_mentions_savings(self, lab_records):
        text = spot_whatif(lab_records).render()
        assert "Spot what-if" in text
        assert "saves $" in text


class TestCheckpointCurve:
    """(b): completion time falls then flattens as the interval shrinks."""

    def test_analytic_curve_decreases_then_flattens(self):
        lam = 0.05
        intervals = [16.0, 8.0, 4.0, 2.0, 1.0, 0.5]
        times = [
            expected_completion_hours(
                200.0, preempt_rate_per_hour=lam, checkpoint_interval_hours=tau
            )
            for tau in intervals
        ]
        # strictly decreasing while intervals are far above the optimum
        assert times[0] > times[1] > times[2] > times[3]
        # flattening: the last refinement changes the total by < 2 %
        assert abs(times[-1] - times[-2]) / times[-2] < 0.02

    def test_simulated_curve_decreases_then_flattens(self):
        lam = 30.0  # hazard per hour; 1-second steps -> mean draw ≈ 120 steps
        walls = []
        for every in (100, 50, 20):
            trainer = TrainingSimulator(seed=9, checkpoint_every=every)
            r = simulate_preemptible_training(
                trainer, steps=10_000, preempt_rate_per_hour=lam,
                restart_overhead_s=20.0, seed=13,
            )
            assert r.completed
            walls.append(r.wall_time_s)
        assert walls[0] > walls[1]  # coarse -> medium: big win
        assert abs(walls[2] - walls[1]) / walls[1] < 0.35  # medium -> fine: flat-ish


class TestGuardrailTail:
    """(c): a per-student budget guard compresses the Fig-2 tail."""

    def test_guardrails_reduce_max_over_mean(self, lab_records):
        model = CostModel()
        base_costs = model.per_student_costs(summarize_usage(lab_records), "aws")
        base_stats = distribution_stats(base_costs, model.expected_cost_per_student("aws"))

        sim = CohortSimulation()
        kvm = sim.testbed.site("kvm@tacc")
        chi = sim.testbed.site("chi@tacc")
        guard = BudgetGuard(
            sim.testbed.loop, kvm.compute, kvm.meter,
            BudgetPolicy(budget_usd=250.0, check_every_hours=2.0, scope="user",
                         max_vm_age_hours=7 * 24.0),
            rate_fn=commercial_rate_fn(model, "aws"),
        ).watch(chi.compute, chi.meter)  # the tail lives in GPU bare-metal labs
        guard.start(until=sim.course.semester_hours)
        guarded = sim.run(include_project=False)
        guard_costs = model.per_student_costs(summarize_usage(guarded), "aws")
        guard_stats = distribution_stats(guard_costs, model.expected_cost_per_student("aws"))

        assert guard.events  # the guard actually acted
        base_ratio = base_stats["max"] / base_stats["mean"]
        guard_ratio = guard_stats["max"] / guard_stats["mean"]
        assert guard_ratio < base_ratio * 0.8  # tail compressed by > 20 %
        assert guard_stats["max"] < base_stats["max"]


class TestBitIdenticalWhenDisabled:
    """(d): an attached-but-unused market changes nothing."""

    def test_records_identical_with_idle_market(self):
        plain = CohortSimulation().run(include_project=False)

        sim = CohortSimulation()
        market = SpotMarket(sim.testbed.loop, seed=0)
        market.attach(sim.testbed.site("kvm@tacc").compute)
        with_market = sim.run(include_project=False)

        assert len(plain) == len(with_market)
        assert plain == with_market  # frozen dataclasses: field-exact equality
        assert market.tracked_count == 0
        assert market.notices == []

    def test_table1_identical_with_idle_market(self):
        plain = CohortSimulation().run(include_project=False)
        sim = CohortSimulation()
        SpotMarket(sim.testbed.loop, seed=123).attach(sim.testbed.site("kvm@tacc").compute)
        with_market = sim.run(include_project=False)
        assert table1(plain).render() == table1(with_market).render()

    def test_fig2_identical_with_idle_market(self):
        model = CostModel()
        plain = CohortSimulation().run(include_project=False)
        sim = CohortSimulation()
        SpotMarket(sim.testbed.loop, seed=7).attach(sim.testbed.site("kvm@tacc").compute)
        with_market = sim.run(include_project=False)
        a = model.per_student_costs(summarize_usage(plain), "aws")
        b = model.per_student_costs(summarize_usage(with_market), "aws")
        assert a == b
        assert np.array_equal(
            np.array(sorted(a.values())), np.array(sorted(b.values()))
        )
