"""Unit tests for usage aggregation and the cost model (synthetic records)."""

import pytest

from repro.cloud.metering import UsageRecord
from repro.common import ValidationError
from repro.core import CostModel
from repro.core.costmodel import distribution_stats
from repro.core.usage import aggregate_by_assignment, per_user_instance_hours


def rec(kind, rtype, lab, hours, *, user=None, quantity=1.0, start=0.0):
    return UsageRecord(
        resource_id=f"{kind}-{rtype}-{lab}-{user}-{start}",
        kind=kind,
        resource_type=rtype,
        project="course",
        start=start,
        end=start + hours,
        quantity=quantity,
        user=user,
        lab=lab,
    )


class TestAggregation:
    def test_rows_grouped_by_lab_and_type(self):
        records = [
            rec("server", "m1.medium", "lab2", 10, user="s1"),
            rec("server", "m1.medium", "lab2", 20, user="s2"),
            rec("server", "m1.large", "lab8", 5, user="s1"),
        ]
        rows = aggregate_by_assignment(records)
        assert rows[("lab2", "m1.medium")].instance_hours == 30
        assert rows[("lab8", "m1.large")].instance_hours == 5

    def test_fip_apportioned_by_instance_share(self):
        records = [
            rec("baremetal", "gpu_a100_pcie", "lab4_multi", 30, user="s1"),
            rec("baremetal", "gpu_v100", "lab4_multi", 70, user="s2"),
            rec("floating_ip", "floating_ip", "lab4_multi", 100),
        ]
        rows = aggregate_by_assignment(records)
        assert rows[("lab4_multi", "gpu_a100_pcie")].floating_ip_hours == pytest.approx(30)
        assert rows[("lab4_multi", "gpu_v100")].floating_ip_hours == pytest.approx(70)

    def test_unattributed_records_ignored(self):
        rows = aggregate_by_assignment([rec("server", "m1.small", None, 10)])
        assert rows == {}

    def test_per_user_hours_tracked(self):
        records = [
            rec("server", "m1.medium", "lab2", 10, user="s1"),
            rec("server", "m1.medium", "lab2", 5, user="s1", start=100.0),
        ]
        rows = aggregate_by_assignment(records)
        assert rows[("lab2", "m1.medium")].per_user_hours == {"s1": 15}

    def test_per_user_instance_hours_filters_labs(self):
        records = [
            rec("server", "m1.medium", "lab2", 10, user="s1"),
            rec("server", "m1.medium", "project", 99, user="s1"),
        ]
        out = per_user_instance_hours(records, labs={"lab2"})
        assert out["s1"] == {("lab2", "m1.medium"): 10}


class TestCostModel:
    def setup_method(self):
        self.model = CostModel()

    def test_row_cost_formula(self):
        records = [
            rec("server", "m1.medium", "lab7", 100, user="s1"),
            rec("floating_ip", "floating_ip", "lab7", 100, user="s1"),
        ]
        rows = self.model.lab_rows(records)
        lab7 = next(r for r in rows if r.lab_id == "lab7")
        assert lab7.aws_cost == pytest.approx(100 * 0.0416 + 100 * 0.005)
        assert lab7.gcp_cost == pytest.approx(100 * 0.03351 + 100 * 0.004)

    def test_expected_cost_positive_and_aws_above_gcp(self):
        aws = self.model.expected_cost_per_student("aws")
        gcp = self.model.expected_cost_per_student("gcp")
        assert aws > 0 and gcp > 0
        # paper: $79.80 AWS vs $58.85 GCP
        assert aws > gcp

    def test_per_student_costs_exclude_edge(self):
        records = [
            rec("edge", "raspberrypi5", "lab6_edge", 2, user="s1"),
            rec("server", "m1.small", "lab1", 10, user="s1"),
        ]
        costs = self.model.per_student_costs(records, "aws")
        assert costs["s1"] == pytest.approx(10 * 0.0104)

    def test_per_student_includes_fip(self):
        records = [
            rec("server", "m1.small", "lab1", 10, user="s1"),
            rec("floating_ip", "floating_ip", "lab1", 10, user="s1"),
        ]
        costs = self.model.per_student_costs(records, "aws")
        assert costs["s1"] == pytest.approx(10 * 0.0104 + 10 * 0.005)

    def test_project_cost_components(self):
        records = [
            rec("server", "m1.medium", "project", 100, user="g1"),
            rec("baremetal", "compute_cascadelake", "project", 10, user="g1"),
            rec("floating_ip", "floating_ip", "project", 100, user="g1"),
            rec("volume", "block_storage", "project", 730, quantity=100.0),
            rec("object_storage", "object_storage", "project", 730, quantity=50.0),
        ]
        pc = self.model.project_cost(records, "aws")
        assert pc.instance_usd == pytest.approx(100 * 0.0416 + 10 * 2.04)
        assert pc.floating_ip_usd == pytest.approx(0.5)
        assert pc.block_storage_usd == pytest.approx(100 * 0.08)  # 100 GB-months
        assert pc.object_storage_usd == pytest.approx(50 * 0.023)
        assert pc.total_usd == pytest.approx(
            pc.instance_usd + pc.floating_ip_usd + pc.block_storage_usd + pc.object_storage_usd
        )

    def test_edge_project_usage_costs_nothing(self):
        records = [rec("edge", "raspberrypi5", "project", 100, user="g1")]
        assert self.model.project_cost(records, "aws").total_usd == 0.0

    def test_unknown_provider_rejected(self):
        with pytest.raises(ValidationError):
            self.model.per_student_costs([], "azure")

    def test_lab_totals(self):
        records = [
            rec("server", "m1.small", "lab1", 10, user="s1"),
            rec("floating_ip", "floating_ip", "lab1", 10, user="s1"),
        ]
        rows = self.model.lab_rows(records)
        totals = self.model.lab_totals(rows)
        assert totals["instance_hours"] == 10
        assert totals["floating_ip_hours"] == 10
        assert totals["aws_cost"] > 0


class TestDistributionStats:
    def test_stats_computed(self):
        costs = {f"s{i}": float(i) for i in range(1, 101)}
        stats = distribution_stats(costs, expected=25.0)
        assert stats["mean"] == pytest.approx(50.5)
        assert stats["max"] == 100.0
        assert stats["pct_exceeding_expected"] == pytest.approx(75.0)

    def test_empty_cohort_zero_stats(self):
        stats = distribution_stats({}, expected=1.0)
        assert stats["n"] == 0.0
        assert stats["mean"] == 0.0
        assert stats["max"] == 0.0
        assert stats["pct_exceeding_expected"] == 0.0
        assert stats["expected"] == 1.0

    def test_bad_expected_rejected(self):
        with pytest.raises(ValidationError):
            distribution_stats({"s1": 5.0}, expected=0.0)
        with pytest.raises(ValidationError):
            distribution_stats({}, expected=-1.0)
