"""Every script in ``examples/`` runs to completion on the default
store configuration and prints the line that shows its point."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: script → one line its output must contain (whole line, stripped).
ANCHORS = {
    "quickstart.py": "{t | ∃PATH_p(<my_article PATH_p .title (t)>)}",
    "database_grep.py": ".text         78 hits",
    "hypertext_navigation.py": "['appendix', 'details', 'entry', 'overview']",
    "letters_order.py": "237 of 500 letters are sender-first",
    "structural_diff.py": "46 common paths (new version has 22 extra)",
    "update_and_export.py": "updated content present in the exported "
                            "document ✓",
}


def test_every_example_has_an_anchor():
    scripts = {path.name for path in (ROOT / "examples").glob("*.py")}
    assert scripts == set(ANCHORS)


@pytest.mark.parametrize("script", sorted(ANCHORS))
def test_example_runs(script):
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run(
        [sys.executable, script], cwd=ROOT / "examples", env=env,
        capture_output=True, text=True, encoding="utf-8", timeout=120)
    assert done.returncode == 0, done.stderr
    lines = [line.strip() for line in done.stdout.splitlines()]
    assert ANCHORS[script] in lines
