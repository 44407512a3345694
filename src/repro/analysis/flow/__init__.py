"""repro.analysis.flow — the whole-program analysis layer.

Where the per-file engine sees one :class:`ModuleContext` at a time,
this package assembles all of them into a :class:`ProgramContext`:

* :mod:`~repro.analysis.flow.modindex` — project-wide namespace
  (functions, classes, attribute types, re-export resolution),
* :mod:`~repro.analysis.flow.callgraph` — call + reference edges with
  small local type inference,
* :mod:`~repro.analysis.flow.cfg` — statement-level CFGs with exception
  edges, and a may-reach-exit dataflow,
* :mod:`~repro.analysis.flow.taint` — purity effects, seed provenance,
  and unordered-iteration taint.

``whole_program`` rules (see :mod:`repro.analysis.rules.flow_rules`)
consume the :class:`ProgramContext` instead of a single module; the
engine builds it once per run and applies the same inline suppressions
to the findings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.engine import ModuleContext
from repro.analysis.flow.callgraph import CallGraph, build_callgraph
from repro.analysis.flow.cfg import CFG, build_cfg, may_reach_exit_open
from repro.analysis.flow.modindex import (
    ClassInfo,
    FunctionInfo,
    ProgramIndex,
    build_index,
)


@dataclass(frozen=True)
class ProgramContext:
    """Everything a whole-program rule may want to know about the run."""

    index: ProgramIndex
    graph: CallGraph

    def modules(self) -> list[ModuleContext]:
        return [self.index.modules[m] for m in sorted(self.index.modules)]


def build_program(modules: list[ModuleContext]) -> ProgramContext:
    """Index the modules and build the call graph over them."""
    index = build_index(modules)
    return ProgramContext(index=index, graph=build_callgraph(index))


__all__ = [
    "CFG",
    "CallGraph",
    "ClassInfo",
    "FunctionInfo",
    "ProgramContext",
    "ProgramIndex",
    "build_callgraph",
    "build_cfg",
    "build_index",
    "build_program",
    "may_reach_exit_open",
]
