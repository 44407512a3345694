"""Ablation: what would preemptible capacity and budget guardrails change?

Three what-ifs against the paper's §5 lab-cost analysis:

1. Re-price the labs at spot rates across a preemption-hazard sweep —
   savings must shrink monotonically as re-work inflation grows.
2. The Young/Daly completion-time curve: expected wall-clock falls then
   flattens as the checkpoint interval shrinks toward the optimum.
3. Attach a per-student :class:`BudgetGuard` to the cohort simulation
   and measure how far it compresses the Fig-2 max/mean cost tail.
"""

from repro.common.tables import format_table
from repro.core import CohortSimulation, CostModel, SpotScenario, summarize_usage
from repro.core.costmodel import distribution_stats
from repro.spot import (
    BudgetGuard,
    BudgetPolicy,
    commercial_rate_fn,
    expected_completion_hours,
    young_daly_interval,
)

HAZARDS = (0.01, 0.05, 0.2, 1.0, 5.0)


def test_spot_savings_vs_hazard(benchmark, semester_records):
    model = CostModel()
    usage = summarize_usage(semester_records)
    base = model.lab_totals(model.lab_rows(usage))["aws_cost"]

    def sweep():
        return [
            model.lab_totals(
                model.lab_rows(usage, SpotScenario(preempt_rate_per_hour=lam))
            )["aws_cost"]
            for lam in HAZARDS
        ]

    totals = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for lam, spot in zip(HAZARDS, totals):
        scenario = SpotScenario(preempt_rate_per_hour=lam)
        rows.append([
            f"{lam:g}",
            f"{scenario.time_inflation:.3f}x",
            f"${spot:,.0f}",
            f"${base - spot:,.0f}",
            f"{(base - spot) / base:.0%}",
        ])
    print()
    print(format_table(
        ["Preempt /h", "Time inflation", "Spot AWS", "Saved", "Saved %"],
        rows,
        title=f"Ablation: spot lab repricing vs hazard (on-demand ${base:,.0f})",
    ))

    savings = [base - spot for spot in totals]
    assert savings == sorted(savings, reverse=True)  # hazard only hurts
    assert savings[1] > 0.3 * base  # the baseline 0.05/h rate still saves >30 %


def test_checkpoint_interval_curve(benchmark):
    lam, work = 0.05, 200.0
    intervals = (16.0, 8.0, 4.0, 2.0, 1.0, 0.5)

    def curve():
        return [
            expected_completion_hours(
                work, preempt_rate_per_hour=lam, checkpoint_interval_hours=tau
            )
            for tau in intervals
        ]

    times = benchmark.pedantic(curve, rounds=1, iterations=1)
    tau_star = young_daly_interval(30 / 3600, lam)

    print()
    print(format_table(
        ["Interval (h)", "E[T] (h)", "Inflation"],
        [[f"{tau:g}", f"{t:.1f}", f"{t / work:.3f}x"]
         for tau, t in zip(intervals, times)],
        title=f"Ablation: checkpoint interval at hazard {lam}/h (Young/Daly "
              f"optimum {tau_star:.2f} h)",
    ))

    # falls while far above the optimum, then flattens near it
    assert times[0] > times[1] > times[2] > times[3]
    assert abs(times[-1] - times[-2]) / times[-2] < 0.02


def test_guardrail_tail_ablation(benchmark):
    model = CostModel()
    expected = model.expected_cost_per_student("aws")
    base = CohortSimulation().run(include_project=False)
    base_stats = distribution_stats(model.per_student_costs(summarize_usage(base), "aws"), expected)

    def guarded_run():
        sim = CohortSimulation()
        kvm = sim.testbed.site("kvm@tacc")
        chi = sim.testbed.site("chi@tacc")
        guard = BudgetGuard(
            sim.testbed.loop, kvm.compute, kvm.meter,
            BudgetPolicy(budget_usd=250.0, check_every_hours=2.0, scope="user",
                         max_vm_age_hours=7 * 24.0),
            rate_fn=commercial_rate_fn(model, "aws"),
        ).watch(chi.compute, chi.meter)
        guard.start(until=sim.course.semester_hours)
        return sim.run(include_project=False), guard

    guarded, guard = benchmark.pedantic(guarded_run, rounds=1, iterations=1)
    guard_stats = distribution_stats(
        model.per_student_costs(summarize_usage(guarded), "aws"), expected
    )

    rows = [
        [label,
         f"${s['mean']:.2f}", f"${s['median']:.2f}",
         f"${s['p95']:.2f}", f"${s['max']:.2f}",
         f"{s['max'] / s['mean']:.2f}"]
        for label, s in (("no guard (paper)", base_stats), ("$250/user guard", guard_stats))
    ]
    print()
    print(format_table(
        ["Policy", "Mean", "Median", "p95", "Max", "Max/mean"],
        rows,
        title=f"Ablation: budget guardrails vs the Fig-2 tail "
              f"({len(guard.events)} guard actions)",
    ))

    assert guard.events
    base_ratio = base_stats["max"] / base_stats["mean"]
    guard_ratio = guard_stats["max"] / guard_stats["mean"]
    assert guard_ratio < base_ratio * 0.8
    assert guard_stats["max"] < base_stats["max"]
    # the guard clips the tail, not the typical student
    assert guard_stats["median"] > 0.9 * base_stats["median"]
