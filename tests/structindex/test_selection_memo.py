"""Freshness of the fused attribute scan's selection memo.

:meth:`repro.structindex.Block.selections` is filled once per block and
attribute name and then only read, so it is exactly as fresh as the
block that holds it.  Each test runs the same queries on a structural
store and on a ``structural=False`` store (the union-of-plans, which
reads no index) and requires equal answers after every kind of write
the index must follow; it also checks that every write replaced the
blocks it touched and that no scan read the memo of a replaced block
again.  Deterministic: no sleeps, no stopwatch.
"""

import pytest

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.corpus.generator import generate_corpus
from repro.mapping.naming import TEXT_FIELD
from repro.oodb.values import Oid
from repro.structindex.index import Block

from tests.structindex.test_index import BOOK_DTD, NESTED_BOOK

PATH_TITLES = "select t from a in Articles, a PATH_p.title(t)"
Q5_ATTVAR = ('select name(ATT_a) from my_article PATH_p.ATT_a(val) '
             'where val contains ("final")')


@pytest.fixture
def reads(monkeypatch):
    """The blocks whose memo a scan reads, in order."""
    seen: list[Block] = []
    original = Block.selections

    def recording(self, name, trial):
        seen.append(self)
        return original(self, name, trial)

    monkeypatch.setattr(Block, "selections", recording)
    return seen


def store_pair(dtd, load):
    """A structural store and its union-of-plans reference, both
    loaded by ``load``."""
    pair = []
    for structural in (True, False):
        store = DocumentStore(dtd, backend="algebra",
                              structural=structural)
        load(store)
        pair.append(store)
    return pair


def assert_same_answers(pair, queries):
    structural, reference = pair
    answers = []
    for query in queries:
        answer = structural.query(query)
        assert answer == reference.query(query), query
        answers.append(answer)
    return answers


def containing(index, oid):
    """The published blocks whose arrays hold ``oid``."""
    return {name: block for name, block in index.blocks.items()
            if oid in block.occurrences}


def assert_replaced(index, old, reads):
    """Every block in ``old`` (name → block) was replaced, and none of
    them was read after the write."""
    assert old
    current = index.blocks
    for name, block in old.items():
        assert current[name] is not block, name
        assert all(read is not block for read in reads), name


def load_articles(store):
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    for tree in generate_corpus(4, seed=11):
        store.load_tree(tree, validate=False)


def section_title(store):
    """A section title of ``my_article``: its text is both an ``oid``
    value (``.title``) and a string value (``.text``) of the scans."""
    article = store.instance.deref(store.instance.root("my_article"))
    section = store.instance.deref(article.get("sections")[0])
    if section.is_marked:
        section = section.marked_value
    return section.get("title")


class TestMemoFreshness:
    def test_every_write_publishes_a_new_block(self, reads, tmp_path):
        pair = store_pair(ARTICLE_DTD, load_articles)
        queries = (PATH_TITLES, Q5_ATTVAR)
        assert "title" not in assert_same_answers(pair, queries)[1]
        index = pair[0].struct_index
        assert reads and all(read._selections for read in reads)

        # a section title inside one article now says "final": its
        # Title holder's ``text`` selection must be the new string
        title = section_title(pair[0])
        touched = containing(index, title)
        for store in pair:
            store.update_text(title, "A final section title")
        reads.clear()
        answers = assert_same_answers(pair, queries)
        assert {"title", TEXT_FIELD} <= set(answers[1])
        assert_replaced(index, touched, reads)

        # a new article: every block is rebuilt
        touched = index.blocks
        for store in pair:
            store.load_text(SAMPLE_ARTICLE, name="my_second_article")
        reads.clear()
        assert_same_answers(pair, queries)
        assert_replaced(index, touched, reads)

        # save / load: the reloaded store reads its own blocks only
        touched = index.blocks
        reloaded = []
        for store, structural in zip(pair, (True, False)):
            path = tmp_path / f"store_{structural}.db"
            store.save(path)
            reloaded.append(DocumentStore.load(
                path, backend="algebra", structural=structural))
        pair = reloaded
        index = pair[0].struct_index
        reads.clear()
        assert_same_answers(pair, queries)
        fresh = list(index.blocks.values())
        assert reads and all(any(read is block for block in fresh)
                             for read in reads)
        assert all(read is not block for read in reads
                   for block in touched.values())

        # a mutation behind the facade, announced only by an epoch
        # bump: the index trusts nothing and rebuilds every block
        title = section_title(pair[0])
        touched = index.blocks
        for store in pair:
            value = store.instance.deref(title)
            store.instance.set_value(
                title, value.replace(TEXT_FIELD, "A draft title"))
            store.plan_cache.bump_epoch()
        reads.clear()
        answers = assert_same_answers(pair, queries)
        assert TEXT_FIELD not in answers[1]
        assert_replaced(index, touched, reads)

    def test_edit_behind_a_blocked_oid(self, reads):
        def load_book(store):
            store.load_text(NESTED_BOOK, name="my_book")

        pair = store_pair(BOOK_DTD, load_book)
        queries = ("select t from my_book PATH_p.title(t)",
                   'select name(ATT_a) from my_book PATH_p.ATT_a(val) '
                   'where val contains ("final")')
        assert not assert_same_answers(pair, queries)[1]
        structural = pair[0]
        index = structural.struct_index
        block = reads[-1]  # the block the scans were served from
        assert block.blocked_oids and block._selections
        blocked = [block.values[pre] for pre in block.blocked_oids]
        # what the memo depends on behind a blocked oid is that one
        # object: its value is a tuple, never another oid, and an edit
        # of the oid dirties every block the oid occurs in
        assert not any(isinstance(structural.instance.deref(oid), Oid)
                       for oid in blocked)
        title = structural.instance.deref(blocked[0]).get("title")
        # inside the suppressed subtree
        assert title not in block.occurrences
        for store in pair:
            store.update_text(title, "The final chapter")
        reads.clear()
        answers = assert_same_answers(pair, queries)
        assert "title" in set(answers[1])
        assert_replaced(index, {block.root_name: block}, reads)
