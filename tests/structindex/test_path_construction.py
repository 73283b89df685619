"""A block stores each node's last step, not its path: a
:class:`~repro.paths.steps.Path` is built only for a row whose path
column is read (:meth:`repro.structindex.Block.path`).

Counted, not timed: every ``Path`` goes through ``Path.__init__`` or
``Path._unsafe``, and both are wrapped to count.
"""

import pytest

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.corpus.generator import generate_corpus
from repro.paths.steps import Path


@pytest.fixture
def built_paths(monkeypatch):
    """A one-element list: the number of ``Path`` objects constructed
    since the fixture was set up (reset it by assignment)."""
    count = [0]
    init = Path.__init__
    unsafe = Path._unsafe.__func__

    def counting_init(self, steps=()):
        count[0] += 1
        init(self, steps)

    def counting_unsafe(cls, steps):
        count[0] += 1
        return unsafe(cls, steps)

    monkeypatch.setattr(Path, "__init__", counting_init)
    monkeypatch.setattr(Path, "_unsafe", classmethod(counting_unsafe))
    return count


def corpus_store(backend: str = "algebra", articles: int = 20):
    store = DocumentStore(ARTICLE_DTD, backend=backend)
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    for tree in generate_corpus(articles, seed=7):
        store.load_tree(tree, validate=False)
    return store


def test_refresh_builds_no_path(built_paths):
    store = corpus_store()
    built_paths[0] = 0
    assert store.struct_index.refresh() == 2
    assert store.struct_index.stats()["nodes"] > 2_000
    assert built_paths[0] == 0


@pytest.mark.parametrize("text", [
    "select t from a in Articles, a PATH_p.title(t)",
    "select x from my_article PATH_p(x)",
    "select name(ATT_a) from my_article PATH_p.ATT_a(v)",
])
def test_a_scan_whose_path_is_not_read_builds_none(built_paths, text):
    store = corpus_store()
    built_paths[0] = 0
    first = store.query(text)
    assert len(first) > 0
    report = store.explain_analyze(text)
    assert report.counter("structindex.range_scans") > 0
    assert store.query(text) == first
    assert built_paths[0] == 0


@pytest.mark.parametrize("backend", ["algebra", "sql"])
def test_a_read_path_column_builds_one_per_row(built_paths, backend):
    store = corpus_store(backend, articles=2)
    text = "select PATH_p from my_article PATH_p"
    store.query(text)  # compile, refresh, and a first execution
    built_paths[0] = 0
    rows = store.query(text)
    assert 0 < built_paths[0] <= len(rows)
