"""Command-line interface: ``python -m repro.analysis [paths...]``.

Exit codes: 0 clean (or every finding waived inline), 1 new findings,
2 usage error.  A ``# repro: noqa RULE (reason)`` comment is the only
waiver: every other finding gates.

The whole-program flow pass (``--whole-program``) runs the PUR001 /
SEED001 / RES004 / DET004 pack over the full module set, and
``--graph`` dumps the call graph + shard reachability as JSON for
debugging why PUR001 does or does not reach a function.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.engine import (
    analyze_paths,
    build_program_context,
    iter_python_files,
    module_name_for,
)
from repro.analysis.registry import RULES, WHOLE_PROGRAM_RULES, load_builtin_rules
from repro.analysis.reporters import render_github, render_json, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based determinism & resource-hygiene linter for the repro tree.",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or directories")
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="report format (github = GitHub Actions ::error annotations)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule new/suppressed counts",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--whole-program",
        action="store_true",
        help="also run the flow rules (PUR001/SEED001/RES004/DET004) over "
        "the full module set",
    )
    parser.add_argument(
        "--graph",
        action="store_true",
        help="dump the call graph and shard-execution reachability as JSON "
        "and exit (no findings are reported)",
    )
    return parser


def _graph_dump(paths: list[Path]) -> str:
    """JSON call-graph dump for ``--graph``."""
    from repro.analysis.rules.flow_rules import SHARD_ENTRY_POINTS

    program = build_program_context(
        [(str(f), module_name_for(f), f.read_text()) for f in iter_python_files(paths)]
    )
    entries = [e for e in SHARD_ENTRY_POINTS if e in program.index.functions]
    parents = program.graph.reachable_from(entries)
    payload = {
        "modules": sorted(program.index.modules),
        "functions": len(program.index.functions),
        "entry_points": entries,
        "edges": {q: list(callees) for q, callees in sorted(program.graph.edges.items())},
        "reachable_from_shard_execution": {
            q: program.graph.witness_chain(parents, q) for q in sorted(parents)
        },
    }
    return json.dumps(payload, indent=2)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    load_builtin_rules()

    rules: list[str] | None = None
    if args.select is not None:
        rules = [r.strip() for r in args.select.split(",") if r.strip()]
        unknown = [r for r in rules if r not in RULES and r not in WHOLE_PROGRAM_RULES]
        if unknown:
            print(f"unknown rule id(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        if any(r in WHOLE_PROGRAM_RULES for r in rules):
            args.whole_program = True  # selecting a flow rule implies the pass

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"no such path(s): {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    if args.graph:
        print(_graph_dump(paths))
        return 0

    result = analyze_paths(paths, rules=rules, whole_program=args.whole_program)
    if args.format == "json":
        print(render_json(result, stats=args.stats))
    elif args.format == "github":
        print(render_github(result))
    else:
        print(render_text(result, stats=args.stats))
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
