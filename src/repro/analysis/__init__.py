"""repro.analysis — AST-based determinism & resource-hygiene linter.

DESIGN §5 promises "deterministic under a seed; no wall-clock, no
network", and the cost pipeline promises every metering span and quota
reservation is paired with a terminal path.  This package machine-checks
those contracts over the Python ``ast``:

* **DET001** wall-clock / entropy calls outside :mod:`repro.common.clock`
* **DET002** unseeded or legacy global-state NumPy randomness
* **DET003** iteration over sets without an enclosing ``sorted(...)``
* **ERR001** broad ``except`` handlers that silently discard the error
* **ERR002** unbounded retry loops
* **RES001** ``UsageMeter.open_span`` without a terminal path in scope
* **RES002** quota ``reserve`` without a matching ``release`` in scope
* **RES003** non-atomic writes of recovery-state files
* **PAR001** process-pool primitives outside :mod:`repro.parallel`

and, under ``--whole-program``, the flow pack built on the module index
/ call graph / CFG / taint layer in :mod:`repro.analysis.flow`
(DESIGN §10):

* **PUR001** impure operation reachable from shard execution
* **SEED001** Generator seeded from a literal/module constant
* **RES004** ``open_span`` not closed on every control-flow path
* **DET004** unordered iteration flowing into journaled/digested output

Run it with ``python -m repro.analysis src benchmarks examples
--whole-program``.  Every finding gates unless an inline
``# repro: noqa RULE (reason)`` comment waives it — the reason is
mandatory, and the comment is the only waiver.  ``--graph`` dumps
reachability for debugging.
"""

from __future__ import annotations

from repro.analysis.engine import (
    AnalysisResult,
    analyze_paths,
    analyze_program,
    analyze_source,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import (
    RULES,
    WHOLE_PROGRAM_RULES,
    Rule,
    WholeProgramRule,
    rule,
    whole_program_rule,
)

__all__ = [
    "AnalysisResult",
    "Finding",
    "RULES",
    "Rule",
    "Severity",
    "WHOLE_PROGRAM_RULES",
    "WholeProgramRule",
    "analyze_paths",
    "analyze_program",
    "analyze_source",
    "rule",
    "whole_program_rule",
]
