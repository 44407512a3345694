"""The analysis engine: walk files, parse, run rules, apply waivers.

The engine is deliberately dumb about *what* to check — rules own that —
and smart about the plumbing every rule needs: import-alias resolution
(so ``np.random.rand`` is recognised under any ``import numpy as ...``
spelling), dotted module names (so rules can scope themselves to e.g.
``repro.cloud``), and inline suppressions — the only waiver.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import RULES, WHOLE_PROGRAM_RULES, load_builtin_rules
from repro.analysis.suppressions import parse_suppressions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (flow imports the engine)
    from repro.analysis.flow import ProgramContext


@dataclass
class ModuleContext:
    """Everything a rule may want to know about one source module."""

    path: str  # display path (as given / relative)
    module: str  # dotted module name, e.g. "repro.cloud.compute"
    source: str
    tree: ast.Module
    imports: dict[str, str] = field(default_factory=dict)  # alias -> dotted name

    def __post_init__(self) -> None:
        if not self.imports:
            self.imports = _collect_imports(self.tree)

    def qualified_name(self, node: ast.expr) -> str | None:
        """Resolve a Name/Attribute chain to its imported dotted name.

        Returns ``None`` when the chain is rooted in something that is not
        an import (a local variable, ``self``, a call result, ...), so
        rules never fire on look-alike local names.
        """
        parts: list[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        base = self.imports.get(cur.id)
        if base is None:
            return None
        return ".".join([base, *reversed(parts)])

    def finding(self, node: ast.AST, rule_id: str, severity: Severity, message: str) -> Finding:
        return Finding(
            file=self.path,
            line=getattr(node, "lineno", 1),
            rule_id=rule_id,
            severity=severity,
            message=message,
        )


def _collect_imports(tree: ast.Module) -> dict[str, str]:
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    # `import numpy.random` binds the root name `numpy`
                    root = alias.name.split(".", 1)[0]
                    imports[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return imports


@dataclass(frozen=True)
class SuppressedFinding:
    """A finding waived by an inline ``# repro: noqa`` comment."""

    finding: Finding
    reason: str


@dataclass
class AnalysisResult:
    """The outcome of one analysis run over a set of paths."""

    findings: list[Finding] = field(default_factory=list)  # new (gate-failing)
    suppressed: list[SuppressedFinding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-rule counts: new / inline-suppressed."""
        out: dict[str, dict[str, int]] = {}

        def bucket(rule_id: str) -> dict[str, int]:
            return out.setdefault(rule_id, {"new": 0, "suppressed": 0})

        for f in self.findings:
            bucket(f.rule_id)["new"] += 1
        for s in self.suppressed:
            bucket(s.finding.rule_id)["suppressed"] += 1
        return out


def module_name_for(path: Path) -> str:
    """Dotted module name: ``src/repro/cloud/compute.py`` -> ``repro.cloud.compute``."""
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        parts = parts[parts.index("repro") :]
    elif parts:
        parts = [parts[-1]]
    return ".".join(parts)


def iter_python_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: set[Path] = set()
    for p in paths:
        if p.is_dir():
            for f in p.rglob("*.py"):
                if "__pycache__" not in f.parts and not f.name.startswith("."):
                    found.add(f)
        elif p.suffix == ".py":
            found.add(p)
    return sorted(found)


def analyze_source(
    source: str,
    *,
    path: str = "<string>",
    module: str | None = None,
    rules: list[str] | None = None,
) -> tuple[list[Finding], list[SuppressedFinding]]:
    """Analyze one module's source; returns (active, inline-suppressed)."""
    load_builtin_rules()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        bad = Finding(
            file=path,
            line=exc.lineno or 1,
            rule_id="SYNTAX",
            severity=Severity.ERROR,
            message=f"could not parse: {exc.msg}",
        )
        return [bad], []
    ctx = ModuleContext(
        path=path, module=module if module is not None else module_name_for(Path(path)),
        source=source, tree=tree,
    )
    findings: list[Finding] = []
    selected = rules if rules is not None else list(RULES)
    for rule_id in selected:
        module_rule = RULES.get(rule_id)  # whole-program ids run elsewhere
        if module_rule is not None:
            findings.extend(module_rule.check(ctx))
    findings.sort()
    return _apply_suppressions(findings, {path: source})


def _apply_suppressions(
    findings: list[Finding], sources: dict[str, str]
) -> tuple[list[Finding], list[SuppressedFinding]]:
    """Split ``findings`` into (active, waived) by the comments in ``sources``."""
    suppressions = {path: parse_suppressions(src) for path, src in sources.items()}
    active: list[Finding] = []
    waived: list[SuppressedFinding] = []
    for f in findings:
        sup = suppressions.get(f.file, {}).get(f.line)
        if sup is not None and sup.covers(f.rule_id):
            waived.append(SuppressedFinding(finding=f, reason=sup.reason))
        else:
            active.append(f)
    return active, waived


def build_program_context(files: list[tuple[str, str, str]]) -> ProgramContext:
    """Index ``(display path, module, source)`` triples and build the call graph.

    Files that do not parse are left out; the per-file pass reports them.
    """
    from repro.analysis.flow import build_program

    contexts: list[ModuleContext] = []
    for display, module, source in files:
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue
        contexts.append(ModuleContext(path=display, module=module, source=source, tree=tree))
    return build_program(contexts)


def _run_whole_program(
    files: list[tuple[str, str, str]],  # (display path, module, source)
    rules: list[str] | None,
) -> tuple[list[Finding], list[SuppressedFinding]]:
    """Build the ProgramContext and run the whole-program rule pack."""
    program = build_program_context(files)
    selected = rules if rules is not None else list(WHOLE_PROGRAM_RULES)
    findings: list[Finding] = []
    for rule_id in selected:
        wp = WHOLE_PROGRAM_RULES.get(rule_id)
        if wp is not None:
            findings.extend(wp.check(program))
    findings.sort()
    return _apply_suppressions(findings, {d: src for d, _m, src in files})


def analyze_program(
    sources: dict[str, str], *, rules: list[str] | None = None
) -> tuple[list[Finding], list[SuppressedFinding]]:
    """Run *only* the whole-program rules over in-memory sources.

    ``sources`` maps display paths to module source; module names are
    derived from the paths.  This is the hook tests use to plant a
    violation into a real module's source and prove the analyzer sees it.
    """
    load_builtin_rules()
    files = [(d, module_name_for(Path(d)), s) for d, s in sorted(sources.items())]
    return _run_whole_program(files, rules)


def analyze_paths(
    paths: list[Path],
    *,
    rules: list[str] | None = None,
    whole_program: bool = False,
) -> AnalysisResult:
    """Analyze every ``.py`` file under ``paths``.

    With ``whole_program=True`` the flow rule pack runs over the full
    module set after the per-file pass.  Every finding that no reasoned
    inline comment waives is gate-failing.
    """
    load_builtin_rules()
    files = [(str(f), module_name_for(f), f.read_text()) for f in iter_python_files(paths)]
    result = AnalysisResult(files_checked=len(files))
    for display, module, source in files:
        active, waived = analyze_source(source, path=display, module=module, rules=rules)
        result.findings.extend(active)
        result.suppressed.extend(waived)
    if whole_program:
        active, waived = _run_whole_program(files, rules)
        result.findings.extend(active)
        result.suppressed.extend(waived)
    result.findings.sort()
    return result
