"""Unit tests for the usage summary and the cost model (synthetic records)."""

import dataclasses

import pytest

from repro.cloud.metering import UsageRecord
from repro.common import ValidationError
from repro.core import COURSE, CostModel, UsageSummary, summarize_usage
from repro.core.usage import UserUsage
from repro.core.costmodel import distribution_stats
from repro.core.report import (
    fig1_duration_data,
    fig2_cost_distribution,
    fig3_project_usage,
    headline_summary,
    outage_whatif,
    spot_headline_summary,
    spot_whatif,
    table1,
)


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
        usage = summarize_usage(records)
        assert usage.rows == {("lab2", "m1.medium"): [10, 20], ("lab8", "m1.large"): [5]}
        rows = usage.row_hours()
        assert rows[("lab2", "m1.medium")] == (30, 0.0)
        assert rows[("lab8", "m1.large")] == (5, 0.0)

    def test_fip_apportioned_by_instance_share(self):
        records = [
            rec("baremetal", "gpu_a100_pcie", "lab4_multi", 30, user="s1"),
            rec("baremetal", "gpu_v100", "lab4_multi", 70, user="s2"),
            rec("floating_ip", "floating_ip", "lab4_multi", 100),
        ]
        rows = summarize_usage(records).row_hours()
        assert rows[("lab4_multi", "gpu_a100_pcie")][1] == pytest.approx(30)
        assert rows[("lab4_multi", "gpu_v100")][1] == pytest.approx(70)

    def test_unattributed_records_ignored(self):
        usage = summarize_usage([rec("server", "m1.small", None, 10, user="s1")])
        assert usage == UsageSummary({}, {}, {}, [])
        assert usage.row_hours() == {}

    def test_per_user_hours_tracked(self):
        records = [
            rec("server", "m1.medium", "lab2", 10, user="s1"),
            rec("floating_ip", "floating_ip", "lab2", 4, user="s1"),
            rec("server", "m1.medium", "lab2", 5, user="s1", start=100.0),
        ]
        s1 = summarize_usage(records).users["s1"]
        assert s1 == UserUsage(["lab2", "lab2"], ["m1.medium", "m1.medium"], [10, 5], ["lab2"], [4])
        assert s1.by_row() == {("lab2", "m1.medium"): [10, 5]}

    def test_per_user_instance_hours_filters_labs(self):
        """A user's Fig 2 rows count the course's labs only; the rows of
        Table 1 count every lab, and the project is no lab."""
        course = dataclasses.replace(COURSE, labs=(COURSE.lab("lab2"),))
        records = [
            rec("server", "m1.medium", "lab2", 10, user="s1"),
            rec("server", "m1.medium", "lab3", 7, user="s1"),
            rec("floating_ip", "floating_ip", "lab3", 7, user="s1"),
            rec("server", "m1.medium", "project", 99, user="s1"),
        ]
        usage = summarize_usage(records, course=course)
        assert usage.users == {"s1": UserUsage(["lab2"], ["m1.medium"], [10])}
        assert list(usage.rows) == [("lab2", "m1.medium"), ("lab3", "m1.medium")]
        assert usage.project == records[3:]

    def test_project_records_kept_in_record_order(self):
        records = [
            rec("volume", "block_storage", "project", 730, quantity=100.0),
            rec("server", "m1.medium", "lab2", 10, user="s1"),
            rec("server", "m1.medium", "project", 100, user="g1"),
        ]
        usage = summarize_usage(records)
        assert usage.project == [records[0], records[2]]


class TestCostModel:
    def setup_method(self):
        self.model = CostModel()

    def test_row_cost_formula(self):
        records = [
            rec("server", "m1.medium", "lab7", 100, user="s1"),
            rec("floating_ip", "floating_ip", "lab7", 100, user="s1"),
        ]
        rows = self.model.lab_rows(summarize_usage(records))
        lab7 = next(r for r in rows if r.lab_id == "lab7")
        assert lab7.aws_cost == pytest.approx(100 * 0.0416 + 100 * 0.005)
        assert lab7.gcp_cost == pytest.approx(100 * 0.03351 + 100 * 0.004)
        assert lab7.billed_instance_hours == lab7.instance_hours == 100

    def test_expected_cost_positive_and_aws_above_gcp(self):
        aws = self.model.expected_cost_per_student("aws")
        gcp = self.model.expected_cost_per_student("gcp")
        assert aws > 0 and gcp > 0
        # paper: $79.80 AWS vs $58.85 GCP
        assert aws > gcp

    def test_per_student_costs_exclude_edge(self):
        """The edge lab's floating IP too: Table 1 prices the lab NA."""
        records = [
            rec("edge", "raspberrypi5", "lab6_edge", 2, user="s1"),
            rec("floating_ip", "floating_ip", "lab6_edge", 2, user="s1"),
            rec("server", "m1.small", "lab1", 10, user="s1"),
        ]
        costs = self.model.per_student_costs(summarize_usage(records), "aws")
        assert costs["s1"] == pytest.approx(10 * 0.0104)

    def test_per_student_includes_fip(self):
        records = [
            rec("server", "m1.small", "lab1", 10, user="s1"),
            rec("floating_ip", "floating_ip", "lab1", 10, user="s1"),
            rec("floating_ip", "floating_ip", "lab1", 10, user="s2"),  # no instance: no row
        ]
        costs = self.model.per_student_costs(summarize_usage(records), "aws")
        assert costs == {"s1": pytest.approx(10 * 0.0104 + 10 * 0.005)}

    def test_project_cost_components(self):
        records = [
            rec("server", "m1.medium", "project", 100, user="g1"),
            rec("baremetal", "compute_cascadelake", "project", 10, user="g1"),
            rec("floating_ip", "floating_ip", "project", 100, user="g1"),
            rec("volume", "block_storage", "project", 730, quantity=100.0),
            rec("object_storage", "object_storage", "project", 730, quantity=50.0),
            rec("server", "m1.medium", "lab2", 1000, user="s1"),  # not project usage
        ]
        pc = self.model.project_cost(summarize_usage(records), "aws")
        assert pc.instance_usd == pytest.approx(100 * 0.0416 + 10 * 2.04)
        assert pc.floating_ip_usd == pytest.approx(0.5)
        assert pc.block_storage_usd == pytest.approx(100 * 0.08)  # 100 GB-months
        assert pc.object_storage_usd == pytest.approx(50 * 0.023)
        assert pc.total_usd == pytest.approx(
            pc.instance_usd + pc.floating_ip_usd + pc.block_storage_usd + pc.object_storage_usd
        )

    def test_edge_project_usage_costs_nothing(self):
        records = [rec("edge", "raspberrypi5", "project", 100, user="g1")]
        assert self.model.project_cost(summarize_usage(records), "aws").total_usd == 0.0

    def test_unknown_provider_rejected(self):
        with pytest.raises(ValidationError):
            self.model.per_student_costs(summarize_usage([]), "azure")

    def test_lab_totals(self):
        records = [
            rec("server", "m1.small", "lab1", 10, user="s1"),
            rec("floating_ip", "floating_ip", "lab1", 10, user="s1"),
        ]
        rows = self.model.lab_rows(summarize_usage(records))
        totals = self.model.lab_totals(rows)
        assert totals["instance_hours"] == 10
        assert totals["billed_instance_hours"] == 10
        assert totals["floating_ip_hours"] == 10
        assert totals["aws_cost"] > 0


class CountingList(list):
    """A record list that counts how often it is walked."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


@pytest.mark.parametrize(
    "artifact",
    (
        table1,
        fig1_duration_data,
        fig2_cost_distribution,
        fig3_project_usage,
        headline_summary,
        spot_whatif,
        outage_whatif,
        spot_headline_summary,
    ),
    ids=lambda f: f.__name__,
)
def test_each_artifact_walks_the_records_once(artifact):
    records = CountingList([
        rec("server", "m1.small", "lab1", 10, user="s1"),
        rec("floating_ip", "floating_ip", "lab1", 10, user="s1"),
        rec("baremetal", "gpu_a100_pcie", "lab4_multi", 3, user="s2"),
        rec("edge", "raspberrypi5", "lab6_edge", 2, user="s2"),
        rec("server", "m1.medium", "project", 100, user="g1"),
        rec("baremetal", "compute_liqid", "project", 8, user="g1"),
        rec("volume", "block_storage", "project", 730, quantity=100.0),
    ])
    artifact(records)
    assert records.walks == 1


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
