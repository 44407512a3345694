"""The paper's contribution: course usage analysis and cloud cost model.

This package regenerates §5 of the paper — Table 1 (usage and estimated
cost per lab assignment), Fig 1 (expected vs actual duration), Fig 2
(per-student cost distribution), Fig 3 (project usage by instance type)
— from a mechanistic simulation:

* :mod:`repro.core.course` — the course definition: every lab's
  infrastructure requirements and expected durations (paper §3).
* :mod:`repro.core.catalog` — an offline AWS/GCP pricing snapshot
  (July-2025-style on-demand rates).
* :mod:`repro.core.matching` — the paper's "most cost-effective cloud
  instance that met the specific needs of each assignment" algorithm.
* :mod:`repro.core.cohort` — the 191-student behaviour simulation that
  drives the :mod:`repro.cloud` testbed and produces usage records.
* :mod:`repro.core.usage` — the one usage summary, built in one pass
  over the records, that every artifact prices.
* :mod:`repro.core.costmodel` — usage -> commercial-cloud dollars:
  :class:`CostModel` matches each requirement once per provider and
  prices Table 1, the per-student and project costs, and the spot and
  outage what-ifs (Table 1 re-priced under a time inflation).
* :mod:`repro.core.report` — the table/figure generators, including
  the :class:`WhatIf` report both what-ifs render through.

The cohort and report names bind on first use (PEP 562), so the cost
model loads without the cohort or the testbed (DESIGN §15).
"""

import importlib
from typing import TYPE_CHECKING

from repro.core.catalog import AWS_CATALOG, GCP_CATALOG, CloudInstance, PricingCatalog
from repro.core.costmodel import (
    CostModel,
    LabCostRow,
    OutageScenario,
    ServingCostRow,
    SpotScenario,
    serving_cost_row,
    serving_equivalent,
)
from repro.core.course import (
    COURSE,
    CourseDefinition,
    LabAssignment,
    LabKind,
    RequirementSpec,
    scaled_course,
)
from repro.core.matching import cheapest_match
from repro.core.usage import (
    UsageSummary,
    canonical_sort_key,
    canonicalize_records,
    summarize_usage,
)

if TYPE_CHECKING:  # bound on first use by __getattr__ below
    from repro.core.cohort import (
        CohortConfig,
        CohortPlan,
        CohortSimulation,
        ShardPlan,
        execute_shard,
        plan_cohort,
    )
    from repro.core.report import (
        FaultReport,
        WhatIf,
        fault_accounting,
        fig1_duration_data,
        fig2_cost_distribution,
        fig3_project_usage,
        outage_whatif,
        records_digest,
        spot_headline_summary,
        spot_whatif,
        table1,
    )

__all__ = [
    "CloudInstance",
    "PricingCatalog",
    "AWS_CATALOG",
    "GCP_CATALOG",
    "RequirementSpec",
    "cheapest_match",
    "LabKind",
    "LabAssignment",
    "CourseDefinition",
    "COURSE",
    "scaled_course",
    "CohortConfig",
    "CohortSimulation",
    "CohortPlan",
    "ShardPlan",
    "plan_cohort",
    "execute_shard",
    "UsageSummary",
    "summarize_usage",
    "canonical_sort_key",
    "canonicalize_records",
    "records_digest",
    "CostModel",
    "LabCostRow",
    "SpotScenario",
    "OutageScenario",
    "WhatIf",
    "ServingCostRow",
    "serving_cost_row",
    "serving_equivalent",
    "FaultReport",
    "table1",
    "fig1_duration_data",
    "fig2_cost_distribution",
    "fig3_project_usage",
    "spot_whatif",
    "spot_headline_summary",
    "outage_whatif",
    "fault_accounting",
]


def __getattr__(name: str) -> object:
    if name in __all__:
        for module in ("repro.core.cohort", "repro.core.report"):
            namespace = vars(importlib.import_module(module))
            if name in namespace:
                globals()[name] = namespace[name]
                return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
