"""``tools/ingest_profile.py`` runs end to end on a tiny corpus and its
exact rows say what the write path and the text index promise."""

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
    # the loader's abandoned attempts: a union branch that does not fit
    # raises, and undoes what it allocated; a list of elements ends
    # without raising (16.25 raised per load here when it raised)
    raised = float(rows["MappingError raised / load"][0])
    rolled_back = float(rows["objects rolled back / load"][0])
    assert 0 < raised < 10 and rolled_back > 0
    # the text index's shape: every article object is a span of its
    # document's one stream, so a document's tokens are stored once
    shape = {label: float(rows[label][0]) for label in (
        "keys / doc", "streams / doc", "own-stream keys / doc",
        "stored occurrences / doc", "posting entries / doc")}
    assert shape["keys / doc"] > 1
    assert shape["own-stream keys / doc"] == 0
    # one row per reason a key can leave its stream: none does here
    assert float(rows["glued_boundary / doc"][0]) == 0
    assert 0 < shape["posting entries / doc"] \
        <= shape["stored occurrences / doc"]


def test_an_older_index_prints_only_the_rows_it_can_tell():
    """``--src`` may load a checkout whose index posted ``token -> {key
    -> positions}`` and had no streams: no stream rows for it."""
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "ingest_profile", ROOT / "tools" / "ingest_profile.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    class KeyGroupedIndex:
        document_count = 2
        _groups = {"word": {"a": (0, 2), "b": (0,)}, "other": {"a": (1,)}}

    rows = dict(tool.index_shape(KeyGroupedIndex(), {}, documents=2))
    assert list(rows) == ["keys / doc", "stored occurrences / doc",
                          "posting entries / doc"]
    assert rows["stored occurrences / doc"].split() == [
        "2.00", "(4", "in", "all)"]
