"""Vectorized columnar cohort engine.

Simulates the same semester as :class:`repro.core.cohort.CohortSimulation`
— both plan through :mod:`repro.columnar.planner`, so they execute the
same admitted activities — but holds the cohort as numpy column arrays
instead of Python objects and replaces the testbed's per-event loop with
closed-form array transforms.  The proof obligation is byte equality:
the engine's canonical record stream hashes to the same
:func:`repro.core.report.records_digest` as the serial testbed path
(``python -m repro.verify columnar``; ``tests/columnar`` sweeps seeds ×
cohort sizes × workers), which is what licenses running it at the
10⁵–10⁶-student scales the testbed path cannot reach.

Layering (DESIGN §11): ``planner`` is the one cohort planner — it
resolves the seed tree into activity tables, applies a fault model, and
regroups admitted tables into the shards the testbed paths execute;
``admission`` fixes quota/lease outcomes with a vectorized fast path
over an exact replay; ``kernels`` emits record columns from closed
forms; ``merge`` streams shards through a bucketed canonical merge; and
``engine`` is the front end.
"""

from repro.columnar.engine import ColumnarRun, run_columnar
from repro.columnar.planner import plan_columns, shards_from_columns
from repro.columnar.schema import ColumnSchema, RecordColumns

__all__ = [
    "ColumnSchema",
    "ColumnarRun",
    "RecordColumns",
    "plan_columns",
    "run_columnar",
    "shards_from_columns",
]
