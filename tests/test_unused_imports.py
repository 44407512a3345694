"""No module imports a name it never uses (pyflakes' F401), checked with ``ast``.

CI's ``ruff check`` applies the same rule; this test keeps it in tier-1,
which runs where ruff is not installed.  An imported name counts as used
when the module reads it (as a name, or as the root of an attribute
chain), lists it in ``__all__``, or names it in a string annotation: a
string in an annotation or in a subscript, as in
``Callable[["ModuleContext"], None]``.  A docstring or comment that
mentions the name does not count.  An import whose line carries
``# noqa: F401`` (or a bare ``# noqa``) is exempt, and
``tests/analysis/fixtures`` is skipped, as in the ruff config: its files
break lint rules on purpose.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks", "examples")
SKIPPED = ROOT / "tests" / "analysis" / "fixtures"
_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[\w, ]+))?", re.IGNORECASE)


def _string_annotation_names(annotation: ast.expr) -> set[str]:
    """Names inside the string parts of an annotation (``"Plan | None"``)."""
    names: set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value.strip(), mode="eval")
            except (SyntaxError, ValueError):  # prose, or a null byte
                continue
            names |= {sub.id for sub in ast.walk(parsed) if isinstance(sub, ast.Name)}
            names |= _string_annotation_names(parsed.body)
    return names


def _exempt(line: str) -> bool:
    match = _NOQA.search(line)
    return match is not None and (
        match["codes"] is None or "F401" in match["codes"].upper()
    )


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name ``source`` imports and never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[tuple[int, int, str]] = []  # (statement line, alias line, name)
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [
                (node.lineno, alias.lineno, alias.asname or alias.name.partition(".")[0])
                for alias in node.names
            ]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [
                (node.lineno, alias.lineno, alias.asname or alias.name)
                for alias in node.names
                if alias.name != "*"
            ]
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _string_annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _string_annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _string_annotation_names(node.annotation)
        elif isinstance(node, ast.Subscript):
            used |= _string_annotation_names(node.slice)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                used |= {
                    sub.value
                    for sub in ast.walk(node.value)
                    if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                }
    return [
        (alias_line, name)
        for statement_line, alias_line, name in imported
        if name not in used
        and not _exempt(lines[alias_line - 1])
        and not _exempt(lines[statement_line - 1])
    ]


def _modules() -> list[Path]:
    return [
        path
        for tree in TREES
        for path in sorted((ROOT / tree).rglob("*.py"))
        if SKIPPED not in path.parents
    ]


def test_no_module_imports_a_name_it_never_uses():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in _modules()
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []


def test_a_name_only_a_docstring_mentions_is_unused():
    planted = '"""Reads a :class:`Path` and a Path."""\n\nfrom pathlib import Path\n'
    assert unused_imports(planted) == [(3, "Path")]


def test_all_string_annotations_and_noqa_count_as_uses():
    source = "\n".join(
        [
            "from typing import TYPE_CHECKING",
            "import os.path",
            "from json import dumps",
            "from json import loads  # noqa: F401",
            "from math import (",
            "    inf,  # noqa",
            "    pi,",
            ")",
            "if TYPE_CHECKING:",
            "    from pathlib import Path, PurePath",
            "    from collections import OrderedDict",
            "__all__ = ['dumps']",
            "Hook = list['OrderedDict']",
            "def f(p: 'Path | None') -> 'list[PurePath]':",
            "    return os.path.join(p)",
        ]
    )
    assert unused_imports(source) == [(7, "pi")]
