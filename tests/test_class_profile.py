"""``tools/class_profile.py --edits N`` runs end to end on a tiny corpus
and prints each query class's warm p50 before and after the edits."""

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
