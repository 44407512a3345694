"""Vectorized columnar cohort engine.

Simulates the same semester as :class:`repro.core.cohort.CohortSimulation`
— identical seed tree, identical admission outcomes, identical usage
records — but holds the cohort as numpy column arrays instead of Python
objects and replaces the per-event loop with closed-form array
transforms.  The proof obligation is byte equality: the engine's
canonical record stream hashes to the same
:func:`repro.core.report.records_digest` as the serial object path
(``python -m repro.verify columnar``; ``tests/columnar`` sweeps seeds ×
cohort sizes × workers), which is what licenses running it at the
10⁵–10⁶-student scales the object path cannot reach.

Layering (DESIGN §11): ``planner`` replays the plan-time RNG contract
into activity tables, ``admission`` fixes quota/lease outcomes with a
vectorized fast path over an exact replay, ``kernels`` emits record
columns from closed forms, ``merge`` streams shards through a bucketed
canonical merge, and ``engine`` is the front end.
"""

from repro.columnar.engine import ColumnarRun, run_columnar
from repro.columnar.planner import columns_from_plan, plan_columns
from repro.columnar.schema import ColumnSchema, RecordColumns

__all__ = [
    "ColumnSchema",
    "ColumnarRun",
    "RecordColumns",
    "columns_from_plan",
    "plan_columns",
    "run_columnar",
]
