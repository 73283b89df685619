#!/usr/bin/env python3
"""Count the code a simplification PR is judged by.

Two numbers, per package under a source root (default ``src/repro``):

* **code lines** — physical lines that carry at least one token which
  is neither a comment nor part of a docstring (so blank lines,
  comments, and module/class/function docstrings are free, and
  reformatting a comment block moves nothing);
* **options** — keyword parameters with defaults on the constructors of
  public classes (each is an independently settable value that tests
  and benchmarks must cover).

Usage::

    python tools/count_code.py                  # this checkout
    python tools/count_code.py --files          # ... with a per-file table
    python tools/count_code.py /other/checkout/src/repro

Run it on the parent commit's checkout and on the change to quote
before → after in CHANGES.md.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

_FREE_TOKENS = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
                tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef,
                                 ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str, tree: ast.AST) -> int:
    """Lines of ``source`` holding code (not blank/comment/docstring)."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _FREE_TOKENS:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(tree))


def constructor_options(tree: ast.AST) -> int:
    """Defaulted parameters on the ``__init__`` of public classes."""
    found = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        for item in node.body:
            if (isinstance(item, ast.FunctionDef)
                    and item.name == "__init__"):
                found += len(item.args.defaults) + sum(
                    default is not None
                    for default in item.args.kw_defaults)
    return found


def count(root: Path) -> tuple[Counter, Counter, dict[str, int]]:
    """``(lines per package, options per package, lines per file)``."""
    lines: Counter = Counter()
    options: Counter = Counter()
    per_file: dict[str, int] = {}
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        package = relative.parts[0] if len(relative.parts) > 1 else "."
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        per_file[str(relative)] = code_lines(source, tree)
        lines[package] += per_file[str(relative)]
        options[package] += constructor_options(tree)
    return lines, options, per_file


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "root", nargs="?", type=Path,
        default=Path(__file__).resolve().parent.parent / "src" / "repro",
        help="source root to count (default: this checkout's src/repro)")
    parser.add_argument("--files", action="store_true",
                        help="also print the per-file line table")
    args = parser.parse_args()
    lines, options, per_file = count(args.root)
    print(f"{'package':<14}{'code lines':>12}{'options':>10}")
    for package in sorted(lines):
        print(f"{package:<14}{lines[package]:>12}{options[package]:>10}")
    print(f"{'total':<14}{sum(lines.values()):>12}"
          f"{sum(options.values()):>10}")
    if args.files:
        print()
        for name, counted in per_file.items():
            print(f"{counted:>6}  {name}")


if __name__ == "__main__":
    main()
