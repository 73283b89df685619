"""``tools/class_profile.py`` runs end to end on a tiny corpus: after
edits it prints each query class's warm p50 before and after them, and
``--cold`` prints the compile split of every cold template."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_class_profile_after_edits_smoke():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "class_profile.py"),
         "--articles", "4", "--repeats", "1", "--edits", "2"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("2 title edits in ")
    classes = json.loads((ROOT / "benchmarks" / "e2e" / "spec.json")
                         .read_text())["query_classes"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert list(rows) == [*classes, "one"]
    for name in classes:
        fresh, edited, ratio = map(float, rows[name])
        assert fresh > 0 and edited > 0 and ratio > 0


def test_class_profile_cold_prints_the_remaining_stages():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "class_profile.py"),
         "--cold", "--articles", "2", "--repeats", "1"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    # the compile split: the two optimizer stages, nothing else
    assert header.split() == ["cold", "template", "p50", "p95",
                              "inference", "compile", "pushdown",
                              "factor", "execute", "inf", "p95", "cmp",
                              "p95"]
    templates = json.loads((ROOT / "benchmarks" / "e2e" / "spec.json")
                           .read_text())["cold_templates"]
    assert [row.split()[0] for row in rows[:len(templates)]] == \
        list(templates)
    assert all(row.endswith("verifications=1")
               for row in rows[:len(templates)])
