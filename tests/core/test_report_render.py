"""Tests for report rendering and edge paths of the report generators."""

import pytest

from repro.cloud.metering import UsageRecord
from repro.common.errors import ValidationError
from repro.core import fig1_duration_data, fig2_cost_distribution, fig3_project_usage, table1
from repro.core.report import FaultReport, headline_summary


def rec(kind, rtype, lab, hours, *, user="s1", quantity=1.0):
    return UsageRecord(
        resource_id=f"{kind}-{rtype}-{lab}-{user}-{hours}",
        kind=kind, resource_type=rtype, project="course",
        start=0.0, end=hours, quantity=quantity, user=user, lab=lab,
    )


MINIMAL = [
    rec("server", "m1.small", "lab1", 10),
    rec("floating_ip", "floating_ip", "lab1", 10),
    rec("edge", "raspberrypi5", "lab6_edge", 2),
    rec("server", "m1.medium", "project", 100),
    rec("baremetal", "compute_gigaio", "project", 8),
    rec("baremetal", "compute_cascadelake", "project", 4),
    rec("edge", "raspberrypi5", "project", 2),
    rec("volume", "block_storage", "project", 100, quantity=50.0),
    rec("object_storage", "object_storage", "project", 100, quantity=10.0),
]


class TestRendering:
    def test_table1_renders_minimal_records(self):
        text = table1(MINIMAL).render()
        assert "1. Hello, Chameleon" in text
        assert "NA" in text  # the edge row

    def test_fig1_handles_missing_labs(self):
        """Labs with zero usage still appear with actual=0."""
        f1 = fig1_duration_data(MINIMAL)
        lab2 = next(r for r in f1.vm_rows if r.lab_id == "lab2")
        assert lab2.actual_hours_per_student == 0.0
        assert "Fig 1(a)" in f1.render()

    def test_fig2_single_user(self):
        f2 = fig2_cost_distribution(MINIMAL)
        assert f2.aws_stats["n"] == 1
        assert "% exceeding expected" in f2.render()

    def test_fig3_categorises_project_kinds(self):
        f3 = fig3_project_usage(MINIMAL)
        assert f3.vm_hours_by_flavor == {"m1.medium": 100.0}
        assert f3.gpu_hours_by_type == {"compute_gigaio": 8.0}
        assert f3.baremetal_cpu_hours == 4.0
        assert f3.edge_hours == 2.0
        assert f3.block_storage_gb_peak == 50.0
        assert "Project usage" in f3.render()

    def test_headline_summary_keys(self):
        hs = headline_summary(MINIMAL)
        assert hs["total_instance_hours"] == pytest.approx(
            hs["lab_instance_hours"] + hs["project_instance_hours"]
        )
        assert hs["aws_total_per_student"] >= 0

    def test_fig3_excludes_lab_records(self):
        f3 = fig3_project_usage(MINIMAL)
        # lab1's m1.small must not leak into project VM hours
        assert "m1.small" not in f3.vm_hours_by_flavor


class TestUnknownProvider:
    """A provider other than "aws" or "gcp" is an error, never GCP's figures."""

    @pytest.mark.parametrize("provider", ["AWS", "azure"])
    def test_fig2_histogram(self, provider):
        f2 = fig2_cost_distribution(MINIMAL)
        assert f2.histogram("gcp")[0].sum() == 1
        with pytest.raises(ValidationError, match="unknown provider"):
            f2.histogram(provider)

    @pytest.mark.parametrize("provider", ["AWS", "azure"])
    def test_fault_report_worst_user_redo(self, provider):
        report = FaultReport(
            enrollment=1, events=1, hardware_kills=1, outage_kills=0,
            delayed_starts=0, abandoned=0, lost_instance_hours=0.0,
            redo_instance_hours=2.0, delay_hours=0.0,
            aws_redo_usd=1.0, gcp_redo_usd=3.0,
            aws_redo_by_user={"s1": 1.0}, gcp_redo_by_user={"s1": 3.0},
        )
        assert report.worst_user_redo("gcp") == 3.0
        with pytest.raises(ValidationError, match="unknown provider"):
            report.worst_user_redo(provider)
