#!/usr/bin/env python3
"""The style floor, with the standard library only.

CI lints with ``ruff`` and typechecks with ``mypy``; neither is
installed in the build container, where a change would otherwise ship
"hand-checked".  This is the part of that floor the standard library
can hold, over ``src/repro`` and ``tools`` (or the paths given):

* every file compiles with warnings promoted to errors (what
  ``python -W error -m compileall`` reports: syntax errors, invalid
  escape sequences, ``is`` against a literal, ...) — in process, so no
  ``__pycache__`` is written;
* no unused import (a name listed in ``__all__`` is used; a
  ``# noqa`` on the line is honoured) and no local variable that is
  assigned and never read;
* no line over 79 columns (``pyproject.toml``: ``line-length = 79``).

Exit status 1 and one ``path:line: message`` per finding; tier-1 runs
it from ``tests/test_lint_fallback.py``.

Usage::

    python tools/lint_fallback.py [path ...]
"""

from __future__ import annotations

import argparse
import ast
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATHS = (ROOT / "src" / "repro", ROOT / "tools")
MAX_COLUMNS = 79

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def compile_findings(source: str, path: Path) -> list[tuple[int, str]]:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            compile(source, str(path), "exec", dont_inherit=True)
        except (SyntaxError, Warning) as exc:
            return [(getattr(exc, "lineno", None) or 1,
                     f"does not compile cleanly: {exc}")]
    return []


def _loaded_names(tree: ast.AST) -> set[str]:
    """Every name the code reads (a dotted use reads its head)."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and isinstance(node.ctx, (ast.Load, ast.Del))}


def _exported(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name)
                        and target.id == "__all__"
                        for target in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            names.update(element.value for element in node.value.elts
                         if isinstance(element, ast.Constant)
                         and isinstance(element.value, str))
    return names


def _string_annotations(tree: ast.AST) -> set[str]:
    """Names inside quoted annotations (``"Batch | None"``)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(_loaded_names(quoted))
    return names


def import_findings(tree: ast.Module, lines: list[str]
                    ) -> list[tuple[int, str]]:
    used = (_loaded_names(tree) | _exported(tree)
            | _string_annotations(tree))
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = (alias.asname or alias.name).split(".")[0]
            line = alias.lineno
            if (bound != "*" and bound not in used
                    and "noqa" not in lines[line - 1]
                    and "noqa" not in lines[node.lineno - 1]):
                findings.append((line, f"unused import {bound!r}"))
    return findings


def _own_nodes(scope: ast.AST) -> list[ast.AST]:
    """The nodes of a function, nested scopes excluded."""
    found = []
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        found.append(node)
        if not isinstance(node, _SCOPES + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))
    return found


def local_findings(tree: ast.Module) -> list[tuple[int, str]]:
    """Plain ``name = value`` locals nothing reads (tuple unpacking,
    loop targets and ``_``-prefixed names are left alone)."""
    findings = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared = {name for node in _own_nodes(scope)
                    if isinstance(node, (ast.Global, ast.Nonlocal))
                    for name in node.names}
        # reads anywhere below the function, nested scopes included
        read = _loaded_names(scope) | _string_annotations(scope)
        for node in _own_nodes(scope):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target]
                       if isinstance(node, ast.AnnAssign) and node.value
                       else [])
            for target in targets:
                if (isinstance(target, ast.Name)
                        and not target.id.startswith("_")
                        and target.id not in read
                        and target.id not in declared):
                    findings.append(
                        (target.lineno,
                         f"local variable {target.id!r} is assigned "
                         f"but never used"))
    return findings


def lint_file(path: Path) -> list[tuple[int, str]]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    findings = [(number, f"line too long ({len(line)} > {MAX_COLUMNS})")
                for number, line in enumerate(lines, 1)
                if len(line) > MAX_COLUMNS]
    compiled = compile_findings(source, path)
    if compiled:
        return sorted(findings + compiled)
    tree = ast.parse(source, filename=str(path))
    findings += import_findings(tree, lines)
    findings += local_findings(tree)
    return sorted(findings)


def lint(paths: list[Path]) -> list[str]:
    """``path:line: message`` for every finding under ``paths``."""
    reports = []
    for root in paths:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            try:
                shown = path.relative_to(ROOT)
            except ValueError:
                shown = path
            reports.extend(f"{shown}:{line}: {message}"
                           for line, message in lint_file(path))
    return reports


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("paths", nargs="*", type=Path,
                        default=list(DEFAULT_PATHS),
                        help="files or directories (default: src/repro "
                             "and tools)")
    reports = lint(parser.parse_args().paths)
    for report in reports:
        print(report)
    if reports:
        print(f"{len(reports)} finding(s)", file=sys.stderr)
    return 1 if reports else 0


if __name__ == "__main__":
    sys.exit(main())
