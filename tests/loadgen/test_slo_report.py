"""SLO evaluation, cost reporting, the Pareto frontier, and the CLI."""

import json

import pytest

from repro.common.errors import ValidationError
from repro.loadgen import (
    AdmissionConfig,
    AutoscalerConfig,
    SloPolicy,
    TrafficConfig,
    build_report,
    evaluate_slo,
    generate_trace,
    simulate_traffic,
    slo_cost_frontier,
)
from repro.loadgen.__main__ import main as loadgen_main
from repro.serving import DEVICE_CATALOG, BatchingConfig, InferenceEngine, food11_classifier


@pytest.fixture(scope="module")
def engine():
    return InferenceEngine(food11_classifier(), DEVICE_CATALOG["server-cpu-16c"])


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        TrafficConfig(seed=3, pattern="diurnal", requests_per_day=4e6, duration_hours=0.25)
    )


@pytest.fixture(scope="module")
def result(trace, engine):
    return simulate_traffic(
        trace,
        engine,
        autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=4,
                                    control_interval_s=10.0, provisioning_lag_s=20.0),
    )


class TestSlo:
    def test_policy_validation(self):
        with pytest.raises(ValidationError):
            SloPolicy(p99_budget_ms=0.0)
        with pytest.raises(ValidationError):
            SloPolicy(max_loss_rate=1.0)

    def test_attainment_and_margins(self, result):
        generous = evaluate_slo(result, SloPolicy(p99_budget_ms=1e4, max_loss_rate=0.5))
        assert generous.attained
        assert generous.latency_margin_ms > 0 and generous.loss_margin > 0

        strict = evaluate_slo(result, SloPolicy(p99_budget_ms=0.001, max_loss_rate=0.5))
        assert not strict.latency_ok and strict.loss_ok
        assert not strict.attained


class TestReport:
    def test_cost_rows_price_both_providers(self, result, engine):
        report = build_report(result, engine)
        assert [r.provider for r in report.cost_rows] == ["aws", "gcp"]
        assert all(r.replica_hours == result.replica_hours for r in report.cost_rows)
        # the 16-core CPU tier has a catalog equivalent on both clouds
        assert all(r.cost_usd is not None and r.cost_usd > 0 for r in report.cost_rows)

    def test_cost_per_million_uses_cheapest_catalog_row(self, result, engine):
        report = build_report(result, engine)
        cheapest = min(r.cost_usd for r in report.cost_rows)
        assert report.cost_per_million_usd == pytest.approx(
            cheapest / result.served * 1e6
        )

    def test_edge_device_falls_back_to_device_rate(self, engine):
        pi_engine = InferenceEngine(
            food11_classifier().quantized(), DEVICE_CATALOG["raspberrypi5"]
        )
        tiny = generate_trace(
            TrafficConfig(seed=0, pattern="poisson", requests_per_day=2e4,
                          duration_hours=0.05)
        )
        r = simulate_traffic(tiny, pi_engine)
        report = build_report(r, pi_engine)
        assert all(row.cost_usd is None for row in report.cost_rows)  # paper's "NA"
        assert report.cost_per_million_usd == 0.0  # the Pi has no hourly rate

    def test_render_mentions_every_section(self, result, engine):
        text = build_report(result, engine, SloPolicy()).render()
        for needle in ("request outcomes", "served latency", "fleet",
                       "usd_per_million", "SLO"):
            assert needle in text


class TestFrontier:
    @pytest.fixture(scope="class")
    def frontier(self, trace, engine):
        return slo_cost_frontier(
            trace,
            engine,
            policy=SloPolicy(p99_budget_ms=250.0, max_loss_rate=0.02),
            replica_ceilings=(1, 4),
            max_batches=(1, 8),
            queue_capacities=(256,),
            autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=4,
                                        control_interval_s=10.0,
                                        provisioning_lag_s=20.0),
        )

    def test_sweep_covers_the_grid(self, frontier):
        assert len(frontier.points) == 4
        assert {(p.max_replicas, p.max_batch) for p in frontier.points} == {
            (1, 1), (1, 8), (4, 1), (4, 8),
        }

    def test_pareto_set_is_nonempty_and_undominated(self, frontier):
        pareto = frontier.pareto_points
        assert pareto
        feasible = [
            p for p in frontier.points
            if p.loss_rate <= frontier.policy.max_loss_rate
            and p.cost_per_million_usd is not None
        ]
        for p in pareto:
            assert not any(q.dominates(p) for q in feasible)

    def test_dominated_points_are_unflagged(self, frontier):
        for p in frontier.points:
            if not p.pareto and p.cost_per_million_usd is not None:
                covered = any(
                    q.dominates(p) or p.loss_rate > frontier.policy.max_loss_rate
                    for q in frontier.pareto_points
                )
                assert covered

    def test_render_marks_pareto_rows(self, frontier):
        text = frontier.render()
        assert "SLO-vs-cost frontier" in text
        assert "*" in text


class TestCli:
    ARGS = ["--pattern", "flash", "--rpd", "4e6", "--hours", "0.2", "--seed", "5"]

    def test_cli_json_summary_has_no_verify_keys(self, capsys):
        """Domain output only: the digest contract is ``repro.verify``'s."""
        assert loadgen_main(self.ARGS + ["--json", "-"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert len(summary["digest"]) == 64
        assert not {"digest_match", "rerun_digest", "perturbed_digest"} & set(summary)

    def test_cli_whatif_prints_frontier(self, capsys):
        assert loadgen_main(self.ARGS + ["--whatif"]) == 0
        out = capsys.readouterr().out
        assert "SLO-vs-cost frontier" in out
        assert "serving load report" in out

    def test_cli_json_file_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "summary.json"
        assert loadgen_main(self.ARGS + ["--json", str(path)]) == 0
        capsys.readouterr()
        summary = json.loads(path.read_text())
        assert summary["offered"] > 0
        assert summary["served"] + summary["rejected"] + summary["dropped"] + (
            summary["errored"] + summary["failed"]
        ) == summary["offered"]

    def test_cli_faulted_run_reports_losses(self, capsys):
        assert (
            loadgen_main(
                self.ARGS
                + ["--outage-rate", "800", "--burst-rate", "800", "--json", "-"]
            )
            == 0
        )
        summary = json.loads(capsys.readouterr().out)
        assert summary["faulted"] is True
