"""Spot what-if: re-price the course labs on preemptible capacity.

Simulates the lab phase of the semester, then asks the §5 counterfactual
the paper stops short of: what if the commercial-cloud comparison used
spot/preemptible instances — with their deep discount, their preemptions,
and the Young/Daly checkpointing cost of surviving them?  Also shows the
advisor's per-job recommendation and a budget guard compressing the
Fig-2 cost tail.

Run:  python examples/spot_market_whatif.py [seed]
"""

import sys

from repro.core import CohortConfig, CohortSimulation, CostModel, SpotScenario, summarize_usage
from repro.core.costmodel import distribution_stats
from repro.core.report import spot_headline_summary, spot_whatif
from repro.spot import (
    BudgetGuard,
    BudgetPolicy,
    SpotAdvisor,
    SpotTypeSpec,
    commercial_rate_fn,
    simulated_price_path,
    young_daly_interval,
)


def main(seed: int = 42) -> None:
    print(f"simulating the lab phase (191 students, seed={seed})...")
    records = CohortSimulation(config=CohortConfig(seed=seed)).run(include_project=False)
    print(f"  {len(records)} usage records\n")

    # -- the what-if table -------------------------------------------------
    scenario = SpotScenario()
    print(spot_whatif(records, scenario=scenario).render(), "\n")

    h = spot_headline_summary(records)
    print("Headlines (labs on spot, time inflation "
          f"{h['time_inflation']:.3f}x):")
    for key in ("aws_lab_per_student", "aws_lab_savings",
                "gcp_lab_per_student", "gcp_lab_savings"):
        print(f"  {key:24s} ${h[key]:>10,.2f}")
    print()

    # -- what a semester of spot prices looks like -------------------------
    spec = SpotTypeSpec()
    path = simulated_price_path(spec, 14 * 7 * 24, seed=seed)
    print(f"simulated spot price (fraction of on-demand, {len(path)} hourly ticks):")
    print(f"  mean {path.mean():.3f}   min {path.min():.3f}   max {path.max():.3f}"
          f"   (long-run discount target {spec.mean_discount})\n")

    # -- the advisor's per-job call ----------------------------------------
    tau = young_daly_interval(30 / 3600, spec.preempt_rate_per_hour)
    print(f"Young/Daly optimal checkpoint interval at {spec.preempt_rate_per_hour}/h: "
          f"{tau:.2f} h")
    for lam in (0.05, 1.0, 60.0):
        advice = SpotAdvisor().advise(
            work_hours=20.0, on_demand_hourly_usd=3.06,  # ~g5.2xlarge
            preempt_rate_per_hour=lam,
        )
        verdict = "use spot" if advice.use_spot else "stay on-demand"
        print(f"  20 h of training at hazard {lam:>5}/h: {verdict:14s} "
              f"(${advice.spot_cost_usd:,.2f} vs ${advice.on_demand_cost_usd:,.2f}, "
              f"inflation {advice.time_inflation:.2f}x)")
    print()

    # -- budget guardrails vs the Fig-2 tail -------------------------------
    model = CostModel()
    base = distribution_stats(model.per_student_costs(summarize_usage(records), "aws"),
                              model.expected_cost_per_student("aws"))
    sim = CohortSimulation(config=CohortConfig(seed=seed))
    kvm = sim.testbed.site("kvm@tacc")
    chi = sim.testbed.site("chi@tacc")
    guard = BudgetGuard(
        sim.testbed.loop, kvm.compute, kvm.meter,
        BudgetPolicy(budget_usd=250.0, check_every_hours=2.0, scope="user",
                     max_vm_age_hours=7 * 24.0),
        rate_fn=commercial_rate_fn(model, "aws"),
    ).watch(chi.compute, chi.meter)
    guard.start(until=sim.course.semester_hours)
    guarded = sim.run(include_project=False)
    after = distribution_stats(model.per_student_costs(summarize_usage(guarded), "aws"),
                               model.expected_cost_per_student("aws"))
    print("Budget guard ($250/student, 2 h checks, 7-day reaper) vs the cost tail:")
    print(f"  {'':12s} {'mean':>8s} {'p95':>8s} {'max':>8s} {'max/mean':>9s}")
    for label, s in (("no guard", base), ("guarded", after)):
        print(f"  {label:12s} {s['mean']:>8.2f} {s['p95']:>8.2f} {s['max']:>8.2f} "
              f"{s['max'] / s['mean']:>9.2f}")
    print(f"  ({len(guard.events)} guard actions: "
          f"{len([e for e in guard.events if e.action == 'warn'])} warnings, "
          f"{len([e for e in guard.events if e.action == 'stop'])} stops, "
          f"{len([e for e in guard.events if e.action == 'reap'])} reaps)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 42)
