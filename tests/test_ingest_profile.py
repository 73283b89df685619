"""``tools/ingest_profile.py`` runs end to end on a tiny corpus and its
exact rows say what the write path promises."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ingest_profile_smoke():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ingest_profile.py"),
         "--articles", "4", "--repeats", "1"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = {line[:26].strip(): line[26:].split()
            for line in done.stdout.splitlines()[1:]}
    for label in ("sgml parse", "sgml validate", "load_tree (no index)",
                  "live text index", "one load_text"):
        assert rows[label][1] == "ms/doc"
    assert float(rows["late over early"][0]) > 0
    assert float(rows["next update_text"][0]) > 0
    # a load constructs its objects' oids; an edit constructs none
    assert int(rows["Oid() / 4 loads"][0]) > 0
    assert int(rows["Oid() / update_text"][0]) == 0
    # backtracking and re-indexing find their entries without comparing
    # oids across the corpus
    assert int(rows["Oid == / 4 loads"][0]) == 0
    assert int(rows["Oid == / update_text"][0]) < 10
