"""Whole-program flow rules: the statically-checked determinism contract.

These rules consume the :class:`~repro.analysis.flow.ProgramContext`
(module index + call graph) instead of a single module, so they can
prove properties the per-file pack can only spot-check:

* **PUR001** — purity of shard execution: no function *reachable* from a
  shard-execution entry point may construct RNG state, read the wall
  clock or entropy pool, or mutate a module global.  This is the static
  form of the ``records_digest`` serial/parallel equality tests.
* **SEED001** — seed provenance: every ``numpy`` ``Generator``, the
  planners' included, must be seeded from a parameter, attribute, or
  spawned ``SeedSequence`` — never a literal or module constant, which
  would silently correlate streams across call sites.
* **RES004** — CFG-path-complete span pairing: when a function both
  opens and closes metering spans, *every* path from the open to the
  function exit — including exception edges — must pass a close.
* **DET004** — unordered dict/set iteration whose values flow into
  journaled, digested, or reported output (the flow-sensitive upgrade
  of DET003's syntactic warning).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.flow import ProgramContext, may_reach_exit_open
from repro.analysis.flow.cfg import build_cfg
from repro.analysis.flow.modindex import FunctionInfo
from repro.analysis.flow.taint import (
    direct_effects,
    seed_provenance_findings,
    unordered_flow,
)
from repro.analysis.registry import whole_program_rule

#: Functions whose transitive callees must be pure: the columnar record
#: kernel, the parallel engine's per-worker shard executor, the serial
#: shard executor it wraps, the loadgen simulation loop, and the
#: resilience sweep's per-point execute half (the digest-equality
#: contracts in CI).  The sweep's plan half (`_plan_point`) draws all
#: randomness before this boundary — registering `_simulate_point`
#: proves the split statically.
SHARD_ENTRY_POINTS = (
    "repro.columnar.kernels.emit_records",
    "repro.core.cohort.execute_shard",
    "repro.loadgen.sim.simulate_traffic",
    "repro.parallel.engine._execute_batch",
    "repro.resilience.sweep._simulate_point",
)

#: RES004 runs where the metering/span contract lives (same as RES001).
_SPAN_SCOPES = ("repro.cloud", "repro.spot")
_SPAN_OPENS = frozenset({"open_span"})
_SPAN_CLOSES = frozenset({"close_span", "_terminate"})


@whole_program_rule("PUR001", "impure operation reachable from shard execution")
def pur001_shard_purity(program: ProgramContext) -> Iterator[Finding]:
    entries = [e for e in SHARD_ENTRY_POINTS if e in program.index.functions]
    if not entries:
        return
    parents = program.graph.reachable_from(entries)
    for qname in sorted(parents):
        fi = program.index.functions.get(qname)
        if fi is None:
            continue
        for effect in direct_effects(fi):
            chain = " -> ".join(program.graph.witness_chain(parents, qname))
            yield fi.ctx.finding(
                effect.node,
                "PUR001",
                Severity.ERROR,
                f"{effect.detail} inside {qname}(), which shard execution reaches "
                f"via {chain}; shard execution must be RNG-free and side-effect-free "
                f"(all randomness is resolved at plan time)",
            )


@whole_program_rule("SEED001", "Generator seeded from a literal/module constant")
def seed001_provenance(program: ProgramContext) -> Iterator[Finding]:
    for module in sorted(program.index.modules):
        if not module.startswith("repro."):
            continue
        ctx = program.index.modules[module]
        for hit in seed_provenance_findings(ctx):
            origin = "/".join(sorted(hit.tags))
            yield ctx.finding(
                hit.node,
                "SEED001",
                Severity.ERROR,
                f"Generator seeded from a {origin} value; every Generator must "
                f"derive from a seed or spawned SeedSequence that flows in as a "
                f"parameter or attribute (literal seeds silently correlate "
                f"streams across call sites)",
            )


def _in_span_scope(module: str) -> bool:
    return any(module == s or module.startswith(s + ".") for s in _SPAN_SCOPES)


def _span_call(call: ast.Call, names: frozenset[str]) -> bool:
    return isinstance(call.func, ast.Attribute) and call.func.attr in names


@whole_program_rule("RES004", "open_span not closed on every control-flow path")
def res004_path_complete_spans(program: ProgramContext) -> Iterator[Finding]:
    for qname in sorted(program.index.functions):
        fi: FunctionInfo = program.index.functions[qname]
        if not _in_span_scope(fi.module):
            continue
        has_open = False
        has_close = False
        for node in ast.walk(fi.node):
            if isinstance(node, ast.Call):
                if _span_call(node, _SPAN_OPENS):
                    has_open = True
                elif _span_call(node, _SPAN_CLOSES):
                    has_close = True
        if not (has_open and has_close):
            # open-without-any-close is RES001's scope-level finding; a
            # function that only closes (or neither) has no pairing to prove
            continue
        cfg = build_cfg(fi.node)
        leaked = may_reach_exit_open(
            cfg,
            lambda c: _span_call(c, _SPAN_OPENS),
            lambda c: _span_call(c, _SPAN_CLOSES),
        )
        for call in leaked:
            yield fi.ctx.finding(
                call,
                "RES004",
                Severity.ERROR,
                f"a path through {qname}() reaches the function exit (or an "
                f"uncaught-exception edge) without closing this span; close it "
                f"on every path — a try/finally or the class's _terminate path",
            )


@whole_program_rule("DET004", "unordered iteration flowing into stable output")
def det004_unordered_into_output(program: ProgramContext) -> Iterator[Finding]:
    for qname in sorted(program.index.functions):
        fi = program.index.functions[qname]
        for flow in unordered_flow(fi.node, fi.ctx):
            yield fi.ctx.finding(
                flow.site,
                "DET004",
                Severity.ERROR,
                f"{flow.kind} iteration order is hash-dependent and flows into "
                f"{flow.sink_desc} at line {flow.sink.lineno}; journaled/digested/"
                f"reported outputs must come from a total order — sort at the "
                f"iteration source",
            )
