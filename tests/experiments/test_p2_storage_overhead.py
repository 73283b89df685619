"""P2 — the Section-3 storage overhead: what the object representation
costs over the raw SGML, and the direct access it buys."""

import pytest

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD
from repro.corpus.article_dtd import article_dtd
from repro.corpus.generator import generate_corpus
from repro.sgml.instance_parser import parse_document
from repro.sgml.writer import write_document
from tests.experiments.conftest import CORPUS_SIZES


def build(size: int):
    store = DocumentStore(ARTICLE_DTD)
    texts = []
    for tree in generate_corpus(size, seed=42):
        store.load_tree(tree, validate=False)
        texts.append(write_document(tree, store.dtd, minimize=True))
    return store, texts


def direct_titles(store):
    """Section titles reached through object references alone."""
    titles = []
    for article_oid in store.instance.root("Articles"):
        article = store.instance.deref(article_oid)
        for section_oid in article.get("sections"):
            section = store.instance.deref(section_oid)
            titles.append(section.marked_value.get("title"))
    return titles


@pytest.mark.parametrize("size", CORPUS_SIZES)
def test_p2_overhead(size):
    # some extra cost, bounded
    store, texts = build(size)
    raw_bytes = sum(len(text.encode()) for text in texts)
    assert store.store.total_bytes() > 0
    assert len(store.store.snapshot_bytes()) < raw_bytes * 5


def test_p2_flexibility_direct_access():
    store, _ = build(20)
    titles = direct_titles(store)
    assert len(titles) > 20
    assert all(title.class_name == "Title" for title in titles)


def test_p2_flat_text_equivalent():
    # the flat file must be re-parsed to reach the same titles
    store, texts = build(20)
    dtd = article_dtd()
    reparsed = [section.first("title")
                for text in texts
                for section in parse_document(text, dtd).find_all("section")]
    assert [store.text(t) for t in direct_titles(store)] == \
        [title.text_content() for title in reparsed]
