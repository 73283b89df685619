"""The stdlib style floor (``tools/lint_fallback.py``) holds on
``src/repro`` and ``tools`` — and actually catches what it claims to."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "lint_fallback", ROOT / "tools" / "lint_fallback.py")
lint_fallback = importlib.util.module_from_spec(spec)
spec.loader.exec_module(lint_fallback)


def test_source_tree_is_clean():
    assert lint_fallback.lint(list(lint_fallback.DEFAULT_PATHS)) == []


def test_each_check_fires(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import os\n"
        "import sys  # noqa\n"
        "from typing import Any\n"
        "\n"
        "__all__ = ['Any']\n"
        "\n"
        "\n"
        "def f(values):\n"
        "    unused = len(values)\n"
        "    kept, _ignored = values\n"
        "    total = 0\n"
        "    for total in values:\n"
        "        pass\n"
        "    return kept\n"
        "\n"
        "\n"
        "x = " + "1" * 80 + "\n")
    found = lint_fallback.lint([bad])
    assert [report.split(": ", 1)[1] for report in found] == [
        "unused import 'os'",
        "local variable 'unused' is assigned but never used",
        "local variable 'total' is assigned but never used",
        "line too long (84 > 79)",
    ]
    broken = tmp_path / "broken.py"
    broken.write_text("pattern = '\\d'\n")
    assert "does not compile cleanly" in lint_fallback.lint([broken])[0]
