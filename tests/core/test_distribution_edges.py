"""Degenerate-cohort regressions for the Fig-2 statistics.

Two edges the parallel sweep made reachable in practice: a 1-student
cohort (scaled_course can shrink enrollment to 1), and a cohort where
every student lands exactly on the expected cost (the "% exceeding"
column uses a strict >, so exactly-expected must count as NOT exceeding).
A course with no priced lab has no expected cost, and reports it NA.
"""

import dataclasses
import math

import pytest

from repro.common.errors import ValidationError
from repro.core import CohortSimulation, fig2_cost_distribution, scaled_course
from repro.core.cohort import CohortConfig
from repro.core.costmodel import distribution_stats


def test_single_student_stats_collapse_to_that_student():
    stats = distribution_stats({"student000": 123.45}, expected=100.0)
    assert stats["n"] == 1.0
    for key in ("mean", "median", "p75", "p95", "max"):
        assert stats[key] == pytest.approx(123.45)
    assert stats["pct_exceeding_expected"] == pytest.approx(100.0)


def test_single_student_below_expected_exceeds_nothing():
    stats = distribution_stats({"student000": 80.0}, expected=100.0)
    assert stats["pct_exceeding_expected"] == 0.0
    assert stats["max"] == pytest.approx(80.0)


def test_everyone_exactly_at_expected_exceeds_nothing():
    """Strict >: hitting the expected cost to the cent is not an overrun."""
    costs = {f"student{i:03d}": 42.0 for i in range(25)}
    stats = distribution_stats(costs, expected=42.0)
    assert stats["n"] == 25.0
    assert stats["mean"] == pytest.approx(42.0)
    assert stats["median"] == pytest.approx(42.0)
    assert stats["p95"] == pytest.approx(42.0)
    assert stats["max"] == pytest.approx(42.0)
    assert stats["pct_exceeding_expected"] == 0.0


def test_one_cent_over_expected_counts_everyone():
    costs = {f"student{i:03d}": 42.01 for i in range(25)}
    stats = distribution_stats(costs, expected=42.0)
    assert stats["pct_exceeding_expected"] == pytest.approx(100.0)


def test_empty_cohort_is_all_zero_not_an_error():
    stats = distribution_stats({}, expected=50.0)
    assert stats["n"] == 0.0
    assert stats["pct_exceeding_expected"] == 0.0
    assert stats["expected"] == 50.0


def test_no_expected_cost_is_na():
    stats = distribution_stats({"s": 3.0}, expected=None)
    assert stats["expected"] is None
    assert stats["pct_exceeding_expected"] is None
    assert stats["mean"] == 3.0
    assert distribution_stats({}, expected=None)["expected"] is None


@pytest.mark.parametrize("lab_ids", ((), ("lab6_edge",)), ids=("no-labs", "edge-only"))
def test_course_with_no_priced_lab_prices_fig2_na(lab_ids):
    """No lab has a commercial equivalent: Fig 2's expected-cost columns
    read NA instead of the pipeline raising."""
    base = scaled_course(0.25)
    course = dataclasses.replace(base, labs=tuple(base.lab(i) for i in lab_ids))
    records = CohortSimulation(course, CohortConfig(seed=0)).run()
    fig2 = fig2_cost_distribution(records, course=course)
    for stats in (fig2.aws_stats, fig2.gcp_stats):
        assert stats["expected"] is None
        assert stats["pct_exceeding_expected"] is None
        assert stats["max"] == 0.0  # an edge lab costs nothing, its floating IP included
    assert fig2.render().count("NA") == 4


def test_nonpositive_expected_rejected():
    with pytest.raises(ValidationError):
        distribution_stats({"s": 1.0}, expected=0.0)
    with pytest.raises(ValidationError):
        distribution_stats({"s": 1.0}, expected=-5.0)


def test_one_student_cohort_end_to_end():
    """A cohort scaled down to a single student flows through the whole
    Fig-2 pipeline: stats are finite, n <= 1 per provider, and percentile
    collapse (p95 == max == median when one student bears all cost)."""
    solo = scaled_course(1.0 / 191.0)
    assert solo.enrollment == 1
    records = CohortSimulation(solo, CohortConfig(seed=42)).run()
    fig2 = fig2_cost_distribution(records, course=solo)
    for stats in (fig2.aws_stats, fig2.gcp_stats):
        assert stats["n"] <= 1.0
        if stats["n"] == 1.0:
            assert stats["median"] == pytest.approx(stats["max"])
            assert stats["p95"] == pytest.approx(stats["max"])
            assert math.isfinite(stats["mean"])
        assert stats["pct_exceeding_expected"] in (0.0, 100.0)
    assert fig2.render()
