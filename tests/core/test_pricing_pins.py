"""Byte pins on every artifact the §5 pricing path produces.

Table 1, Figs 1-3, the headline numbers, the spot and outage what-ifs,
the fault-accounting table, the budget guard's per-record rates and the
faults CLI are each pinned by the sha256 of their rendered text, so a
refactor of the pricing code that moves a single character fails here.
The literals were captured before the spot and outage re-pricing shared
one routine, and must not be regenerated to make a pricing change pass.
"""

import contextlib
import hashlib
import io

import pytest

from repro.core import COURSE, CohortConfig, CostModel, OutageScenario, SpotScenario
from repro.core.report import (
    fault_accounting,
    fig1_duration_data,
    fig2_cost_distribution,
    fig3_project_usage,
    headline_summary,
    outage_whatif,
    spot_headline_summary,
    spot_whatif,
    table1,
)
from repro.faults import FaultPlanConfig, FaultSweep, build_fault_calendar
from repro.faults.__main__ import main as faults_main
from repro.parallel.engine import run_parallel
from repro.spot import commercial_rate_fn

#: The "rough semester" of examples/outage_whatif.py.
ROUGH = FaultPlanConfig(
    seed=11, outage_rate_per_week=0.5, hazard_rate_per_khour=3.0, burst_rate_per_week=2.0
)

#: A quarter-scale faulted semester through the CLI, with the what-if.
CLI_ARGS = [
    "--outage-rate", "0.3", "--hazard-rate", "2.0", "--burst-rate", "1.0",
    "--scale", "0.25", "--whatif",
]

PINS = {
    "table1":
        "e3cfa87b11158c1359631784b685c47285399d44da95e35120d03f44666c66ae",
    "fig1":
        "b6f6053572caa0d2282ed7bafdfebf5df2744d81301e1b5704029a6b4946911f",
    # re-pinned when Fig 2 stopped charging the floating-IP hours of the
    # edge lab, which Table 1 prices NA (Fig 2 now sums to Table 1)
    "fig2":
        "6177d9d5747329bad937a096cafc155f8e7cd97e822147ce2e0caf8cd3a546f5",
    "fig3":
        "d56e7d85533b5fb419af06c6e67f1cf7667b3eb5e39aaefcd10647b646ef7cc2",
    "headline_summary":
        "2d07daef74ebef449ff9cceb6bde733c4c46a0ee9c9c380cdd5c84293d38266a",
    "spot_whatif@0.01":
        "b58b9128e49034dda297ba779f94f428891328125ab843a7ac9258f2995f8f92",
    "spot_whatif@0.05":
        "4692433f5e77ca9c156893a5e529ce07db5f249c8aee1298590f7dffbdaa2694",
    "spot_whatif@1.0":
        "5123ebf09f2e75d62fba004cf62fb2ff34d262a750d4e19fcd3d76c11742fad6",
    "spot_headline_summary":
        "dd3eba749ab047087e108ed9f26f8d0e32c75d9a63070ba5be757233e3a320be",
    "outage_whatif@default":
        "8b74a9d5a29d1301a72753404b03f7ea783f52524d6552bf56a2ce03a76b9785",
    "outage_whatif@rough":
        "db0c26f007d8d850356839dbcaf9946636524d0f773b534c013da2d3833da61c",
    "fault_accounting@rough":
        "4b2858fbc4faeda14337ff1481158d9f4e23f099c556e7bc2a8421478c976e05",
    "commercial_rate_fn@aws":
        "00fc8645ce966bee64c1acbe1014d2e0b23f03c6a85dec8d0258967dbb44454d",
    "commercial_rate_fn@gcp":
        "ff512e9b264c5cece8a24f99d5dc8dfe0388d879181c226bb3ed87b34a801c24",
    "faults_cli":
        "a85499ba15a9f4241473f5dfb8d78c91d5d88cb7e1966f0aade045d076a71280",
}


def artifacts(semester_records, lab_records, rough_records, rough_ledger) -> dict[str, str]:
    """Every pinned artifact's text, keyed like :data:`PINS`."""
    model = CostModel()
    out = {
        "table1": table1(semester_records).render(),
        "fig1": fig1_duration_data(semester_records).render(),
        "fig2": fig2_cost_distribution(semester_records).render(),
        "fig3": fig3_project_usage(semester_records).render(),
        "headline_summary": repr(headline_summary(semester_records)),
        "spot_headline_summary": repr(spot_headline_summary(lab_records)),
        "outage_whatif@default": outage_whatif(semester_records).render(),
        "outage_whatif@rough": outage_whatif(
            rough_records,
            scenario=OutageScenario.from_fault_plan(
                outage_rate_per_week=ROUGH.outage_rate_per_week,
                hazard_rate_per_khour=ROUGH.hazard_rate_per_khour,
            ),
        ).render(),
        "fault_accounting@rough": fault_accounting(rough_ledger).render(),
    }
    for rate in (0.01, 0.05, 1.0):
        scenario = SpotScenario(preempt_rate_per_hour=rate)
        out[f"spot_whatif@{rate}"] = spot_whatif(lab_records, scenario=scenario).render()
    for provider in ("aws", "gcp"):
        rate_fn = commercial_rate_fn(model, provider)
        out[f"commercial_rate_fn@{provider}"] = repr([rate_fn(r) for r in semester_records])
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert faults_main(CLI_ARGS) == 0
    out["faults_cli"] = stdout.getvalue()
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def rough_run():
    sweep = FaultSweep(build_fault_calendar(ROUGH, horizon_hours=COURSE.semester_hours))
    records = run_parallel(COURSE, CohortConfig(seed=42), workers=1, faults=sweep)
    return records, sweep.ledger


@pytest.fixture(scope="module")
def texts(semester_records, lab_records, rough_run):
    return artifacts(semester_records, lab_records, *rough_run)


def test_every_artifact_is_pinned(texts):
    assert sorted(texts) == sorted(PINS)


@pytest.mark.parametrize("name", list(PINS))
def test_artifact_bytes_hold(texts, name):
    assert sha256(texts[name]) == PINS[name], name
