"""Resource-pairing rules for the cloud substrate.

Every billable span (:meth:`UsageMeter.open_span`) and every quota charge
(:meth:`QuotaManager.reserve`) must have a terminal path in the same class
(or module, for free functions): ``close_span``/``release``, or the
class's unified ``_terminate`` path — the invariant PR 1 introduced after
a real double-close bug.  The check is intra-procedural and scope-paired:
it does not prove every control-flow path closes the span, but it catches
the class that opens spans and has *no* way to close them, which is how
the leak class actually shows up.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.engine import ModuleContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import rule

#: These rules are scoped to the cloud substrate (and its spot extension),
#: where the metering/quota contracts live.
_SCOPES = ("repro.cloud", "repro.spot")


def _in_scope(module: str) -> bool:
    return any(module == s or module.startswith(s + ".") for s in _SCOPES)


def _method_calls(root: ast.AST, attr_names: frozenset[str]) -> list[ast.Call]:
    out = []
    for node in ast.walk(root):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in attr_names
        ):
            out.append(node)
    return out


def _pairing_scopes(tree: ast.Module) -> Iterator[tuple[str, ast.AST]]:
    """Each class is a pairing scope; top-level code (minus classes) is one more."""
    rest = ast.Module(body=[], type_ignores=[])
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            yield stmt.name, stmt
        else:
            rest.body.append(stmt)
    yield "<module>", rest


def _check_pairing(
    ctx: ModuleContext,
    rule_id: str,
    opens: frozenset[str],
    closes: frozenset[str],
    contract: str,
) -> Iterator[Finding]:
    if not _in_scope(ctx.module):
        return
    for scope_name, scope in _pairing_scopes(ctx.tree):
        open_calls = _method_calls(scope, opens)
        if not open_calls:
            continue
        # a definition of a terminal method counts: the scope owns the
        # terminal path even if this rule can't see every caller
        has_terminal = bool(_method_calls(scope, closes)) or any(
            isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name in closes
            for n in ast.walk(scope)
        )
        if has_terminal:
            continue
        for call in open_calls:
            yield ctx.finding(
                call,
                rule_id,
                Severity.ERROR,
                f"{scope_name} calls {'/'.join(sorted(opens))} but has no "
                f"terminal path ({'/'.join(sorted(closes))}); {contract}",
            )


@rule("RES001", "UsageMeter.open_span without a terminal path in scope")
def res001_span_pairing(ctx: ModuleContext) -> Iterator[Finding]:
    yield from _check_pairing(
        ctx,
        "RES001",
        opens=frozenset({"open_span"}),
        closes=frozenset({"close_span", "_terminate"}),
        contract="every span must close exactly once or it meters forever",
    )


@rule("RES002", "quota reserve without a matching release in scope")
def res002_quota_pairing(ctx: ModuleContext) -> Iterator[Finding]:
    yield from _check_pairing(
        ctx,
        "RES002",
        opens=frozenset({"reserve"}),
        closes=frozenset({"release", "_terminate"}),
        contract="quota charged at create must be returned on the delete path",
    )


# -- RES003: non-atomic persistence writes -----------------------------------------

#: The one package whose whole purpose is crash-safe persistence; it owns
#: the temp-file + ``os.replace`` discipline the rule enforces elsewhere.
_RES003_EXEMPT = "repro.checkpoint"

#: An argument whose subtree mentions one of these is taken to name
#: durable recovery state.  ``wal`` matches only as a whole identifier
#: token so that e.g. ``os.walk``/``crawler`` stay quiet.
_PERSISTENCE_HINTS = ("journal", "manifest", "checkpoint", "segment", "snapshot")
_PERSISTENCE_TOKEN_HINTS = frozenset({"wal"})

#: Calls that, found anywhere in the same function scope, certify the
#: scope publishes atomically (temp file then rename into place).
_ATOMIC_ATTRS = frozenset({"replace", "rename"})
_ATOMIC_QUALIFIED = frozenset({"os.replace", "os.rename"})

_WRITE_MODES = frozenset("wxa")

_RES003_MESSAGE = (
    "non-atomic persistence write ({what}) on a recovery-state path: a crash "
    "mid-write leaves a torn file under the real name; write to a temp file "
    "and os.replace() it (see repro.checkpoint.journal.atomic_write_bytes)"
)


def _res003_exempt(module: str) -> bool:
    return module == _RES003_EXEMPT or module.startswith(_RES003_EXEMPT + ".")


def _mentions_persistence(node: ast.AST) -> bool:
    texts: list[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            texts.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            texts.append(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            texts.append(sub.value)
    for text in texts:
        low = text.lower()
        if any(hint in low for hint in _PERSISTENCE_HINTS):
            return True
        if _PERSISTENCE_TOKEN_HINTS & set(re.split(r"[^a-z0-9]+", low)):
            return True
    return False


def _open_write_mode(call: ast.Call) -> bool:
    mode: ast.expr | None = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return False
    return bool(_WRITE_MODES & set(mode.value))


def _classify_res003(ctx: ModuleContext, call: ast.Call) -> tuple[str, ast.expr] | None:
    """(description, path expression) when ``call`` is a bare persistence write."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open" and call.args:
        if _open_write_mode(call):
            return "builtin open() in write mode", call.args[0]
        return None
    qualified = ctx.qualified_name(func)
    if qualified in ("os.remove", "os.unlink") and call.args:
        return f"{qualified}()", call.args[0]
    if isinstance(func, ast.Attribute) and func.attr == "unlink" and qualified is None:
        return ".unlink()", func.value
    return None


def _res003_scan(
    ctx: ModuleContext,
    node: ast.AST,
    writes: list[tuple[ast.Call, str]],
    atomic: list[bool],
    flagged: list[tuple[ast.Call, str]],
) -> None:
    """Collect hinted writes per innermost function scope.

    ``writes``/``atomic`` accumulate for the *current* scope; a nested
    function is settled on the spot — if its scope never renames into
    place, its writes land in ``flagged`` (a parent's discipline cannot
    save a helper that publishes torn files on its own).
    """
    if isinstance(node, ast.Call):
        func = node.func
        qualified = ctx.qualified_name(func)
        if qualified in _ATOMIC_QUALIFIED or (
            isinstance(func, ast.Attribute) and func.attr in _ATOMIC_ATTRS
        ):
            atomic[0] = True
        else:
            hit = _classify_res003(ctx, node)
            if hit is not None and _mentions_persistence(hit[1]):
                writes.append((node, hit[0]))
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner_writes: list[tuple[ast.Call, str]] = []
            inner_atomic = [False]
            for grand in ast.iter_child_nodes(child):
                _res003_scan(ctx, grand, inner_writes, inner_atomic, flagged)
            if not inner_atomic[0]:
                flagged.extend(inner_writes)
        else:
            _res003_scan(ctx, child, writes, atomic, flagged)


@rule("RES003", "non-atomic write/delete of recovery-state files")
def res003_atomic_persistence(ctx: ModuleContext) -> Iterator[Finding]:
    if _res003_exempt(ctx.module):
        return
    module_writes: list[tuple[ast.Call, str]] = []
    module_atomic = [False]
    flagged: list[tuple[ast.Call, str]] = []
    _res003_scan(ctx, ctx.tree, module_writes, module_atomic, flagged)
    if not module_atomic[0]:
        flagged.extend(module_writes)
    flagged.sort(key=lambda item: (item[0].lineno, item[0].col_offset))
    for call, what in flagged:
        yield ctx.finding(
            call, "RES003", Severity.ERROR, _RES003_MESSAGE.format(what=what)
        )
