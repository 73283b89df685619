"""One structural-index lookup per batch.

:meth:`StructuralIndex.locate_all` answers a structural operator's
whole batch of sources after one ``refresh()`` and under one lock
acquisition.  Per source the answer must be what the definition says —
the first *complete* occurrence of the source by identity (an oid is
its own identity) in publication order, ``None`` when there is none —
whatever else is in the batch, and whether or not a non-oid source
has been looked up since the last publish.  The structural
operators' work counters on the seven e2e query classes, and on a
recursive document whose inner occurrences are truncated, are pinned
as the per-source lookups counted them.
"""

import pytest

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.errors import EvaluationError
from repro.algebra.operators import _Scan
from repro.oodb.values import ListValue, Oid, TupleValue
from tests.algebra.test_batch_executor import QUERY_CLASSES, build_store
from tests.structindex.test_index import BOOK_DTD, NESTED_BOOK

WORK = ("structindex.range_scans", "structindex.nodes_scanned",
        "structindex.fallback_walks")


def complete_occurrences(index, source) -> list:
    """Every complete ``(block, pre)`` holding ``source``, by brute
    force over the published blocks, in publication order."""
    found = []
    for block in index.blocks.values():
        for pre, value in enumerate(block.values):
            if value is source and block.complete[pre]:
                found.append((block, pre))
    return found


def check_batch(index, sources) -> list:
    """``locate_all`` over ``sources`` equals one lookup per source
    and the brute-force definition (the first complete occurrence);
    returns its answer."""
    located = index.locate_all(sources)
    assert len(located) == len(sources)
    for source, answer in zip(sources, located):
        (alone,) = index.locate_all([source])
        assert alone == answer
        occurrences = complete_occurrences(index, source)
        if answer is None:
            assert occurrences == []
        else:
            block, pre = occurrences[0]
            assert answer[0] is block and answer[1] == pre
    return located


@pytest.fixture
def book():
    store = DocumentStore(BOOK_DTD, backend="algebra")
    store.load_text(NESTED_BOOK, name="my_book")
    return store


@pytest.fixture
def article():
    store = DocumentStore(ARTICLE_DTD, backend="algebra")
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    return store


class TestLocateAll:
    def test_every_node_of_a_document(self, article):
        index = article.struct_index
        index.refresh()
        sources = [value for block in index.blocks.values()
                   for value in block.values]
        located = check_batch(index, sources)
        assert all(answer is not None for answer in located)

    def test_truncated_occurrences(self, book):
        """Under the restricted semantics the inner sections are
        recorded below a Section crossing: their occurrences are
        incomplete and the lookup says ``None``, in a batch mixed with
        complete ones."""
        index = book.struct_index
        oids = list(book.instance.all_oids())
        located = check_batch(index, oids + oids[::-1])
        missing = [oid for oid, answer in zip(oids, located)
                   if answer is None]
        assert missing and len(missing) < len(oids)
        assert all(oid.class_name in ("Section", "Title", "Para")
                   for oid in missing)

    def test_non_oid_sources_match_by_identity(self, article):
        index = article.struct_index
        index.refresh()
        block = index.blocks["my_article"]
        held = next(value for pre, value in enumerate(block.values)
                    if isinstance(value, TupleValue)
                    and block.complete[pre])
        copy = TupleValue(held.fields)
        assert copy == held and copy is not held
        located = check_batch(index, [copy, held, "no node", copy])
        assert located[0] is None and located[2] is None
        assert located[1] is not None and located[3] is None
        found, at = located[1]
        assert found.values[at] is held

    def test_an_empty_batch(self, article):
        assert article.struct_index.locate_all([]) == []

    def test_a_dirty_index_is_refreshed_once(self, article):
        index = article.struct_index
        index.refresh()
        oid = article.load_text(SAMPLE_ARTICLE, name="late_arrival")
        assert index.stats()["dirty"]
        calls = []
        refresh = index.refresh
        index.refresh = lambda: calls.append(1) or refresh()
        others = list(article.instance.all_oids())
        located = index.locate_all([oid] + others)
        assert len(calls) == 1
        assert not index.stats()["dirty"]
        block, pre = located[0]
        assert block.values[pre] is oid
        assert located == [index.locate_all([source])[0]
                           for source in [oid] + others]

    def test_after_a_partial_rebuild(self):
        """An edit rebuilds the blocks holding the edited object; the
        rebuilt blocks are published last, and the lookup answers from
        the new blocks — for oids first, then for every node."""
        store = DocumentStore(ARTICLE_DTD, backend="algebra")
        store.load_text(SAMPLE_ARTICLE, name="my_article")
        store.load_text(SAMPLE_ARTICLE, name="my_copy")
        index = store.struct_index
        oids = list(store.instance.all_oids())
        before = check_batch(index, oids)
        title = next(oid for oid in oids if oid.class_name == "Title"
                     and TestLocateAll.holders(index, oid) == 2)
        old = index.blocks
        store.update_text(title, "A partially rebuilt title")
        assert index.refresh() == 2
        new = index.blocks
        assert [name for name in new if new[name] is old[name]] \
            == ["my_copy"]
        located = check_batch(index, oids)
        assert located != before
        # the rebuilt blocks hold no stale answer
        assert all(answer[0] is new[answer[0].root_name]
                   for answer in located if answer is not None)
        nodes = [value for block in new.values()
                 for value in block.values]
        check_batch(index, oids + nodes)

    @staticmethod
    def holders(index, oid) -> int:
        return sum(any(value is oid for value in block.values)
                   for block in index.blocks.values())


class TestStructuralOperators:
    def test_max_paths_fallback(self):
        """A fused scan whose subtree exceeds ``max_paths`` serves the
        source with the live walk, which raises the enumeration-limit
        error where the union of plans does; a source under the limit
        is still one range scan."""
        stores = {}
        for backend in ("algebra", "calculus"):
            store = DocumentStore(ARTICLE_DTD, backend=backend)
            store.load_text(SAMPLE_ARTICLE, name="my_article")
            store._engine.ctx.max_paths = 20
            stores[backend] = store
        failing = "select t from my_article PATH_p.title(t)"
        served = ("select t from s in my_article.sections, "
                  "s PATH_p.title(t)")
        for store in stores.values():
            with pytest.raises(EvaluationError,
                               match="exceeded 20 paths"):
                store.query(failing)
        assert (stores["algebra"].query(served)
                == stores["calculus"].query(served))
        counters = stores["algebra"].explain_analyze(served).metrics[
            "counters"]
        assert [counters.get(name, 0) for name in WORK] == [2, 6, 0]

    def test_stretches_alternate_between_blocks(self):
        """A scan serves each stretch of consecutive sources located in
        one block at once.  Sources that alternate between the ``Books``
        block, the ``Mixed`` block and no block (inner sections, whose
        occurrences are truncated; ``Big`` itself exceeds the block
        budget) give the interpreter's and the union of plans' rows,
        with one live walk per unlocated source."""
        scanned = self.mixed_store("algebra")
        interpreter = self.mixed_store("calculus")
        plans = self.mixed_store("algebra", structural=False)
        big = list(scanned.instance.root("Big"))
        located = scanned.struct_index.locate_all(big)
        blocks = [None if found is None else found[0].root_name
                  for found in located]
        sources = blocks[:blocks.index(None, 12)]  # the padding after
        assert set(sources) == {"Books", "Mixed", None}
        assert all(a != b for a, b in zip(sources, sources[1:]))
        for text in ("select t from x in Big, x PATH_p.title(t)",
                     "select x2 from x in Big, x PATH_p(x2)",
                     "select t from x in Big, x PATH_p.ATT_a(t)"):
            answer = scanned.query(text)
            assert answer and answer == interpreter.query(text), text
            assert answer == plans.query(text), text
        counters = scanned.explain_analyze(
            "select t from x in Big, x PATH_p.title(t)").metrics[
            "counters"]
        assert counters["structindex.fallback_walks"] == blocks.count(None)
        assert counters["structindex.range_scans"] == (
            len(blocks) - blocks.count(None))

    @staticmethod
    def mixed_store(backend, structural=True):
        store = DocumentStore(BOOK_DTD, backend=backend,
                              structural=structural)
        store.load_text(NESTED_BOOK, name="my_book")
        store.load_text(NESTED_BOOK)
        sections = [oid for oid in store.instance.all_oids()
                    if oid.class_name == "Section"]
        loose = [TupleValue([("title", f"Loose {oid.number}")])
                 for oid in sections]
        store.define_name("Mixed", ListValue(loose))
        # outer section (Books), loose tuple (Mixed), inner section
        # (truncated in Books) — and ``Big`` is no block of its own
        big = []
        for section, tuple_value in zip(sections, loose):
            big += [section, tuple_value]
        # padded past the block budget with atoms nothing else holds
        store.define_name("Big", ListValue(big + list(range(40))))
        if store.struct_index is not None:
            store.struct_index.max_block_nodes = 40
            store.struct_index.note_data_change()
        return store

    def test_an_unread_index_vector_is_never_built(self, monkeypatch):
        """A scan's index vector (which input row each output row
        continues) is built only when a column of its input is read
        through it: never for ``path_titles``, ``q2_path_contains`` or a
        query reading ``PATH_p``, once for a query reading ``a``."""
        store = build_store()
        built = []
        index = _Scan._index
        monkeypatch.setattr(_Scan, "_index",
                            lambda scan: built.append(1) or index(scan))
        for text, builds in (
                (QUERY_CLASSES["path_titles"], 0),
                (QUERY_CLASSES["q2_path_contains"], 0),
                ("select PATH_p from a in Articles, a PATH_p.title(t)", 0),
                ("select a from a in Articles, a PATH_p.title(t)", 1)):
            built.clear()
            assert store.query(text)
            assert len(built) == builds, text


#: ``WORK`` counters of one warm execution of each e2e query class on
#: the 40-article store of ``test_batch_executor``.
CLASS_WORK = {
    "q1_contains": [0, 0, 0],
    "nav_join": [0, 0, 0],
    "titles": [0, 0, 0],
    "path_titles": [41, 604, 0],
    "q2_path_contains": [41, 568, 0],
    "q3_root_path": [1, 8, 0],
    "q5_attvar": [1, 36, 0],
}

#: Queries from the inner sections of the recursive book, whose
#: occurrences are truncated: live walks, and interval probes that
#: fall back — ``WORK`` counters and result size.
BOOK_WORK = {
    "select t from b in Books, s in b.sections, s PATH_p.title(t)":
        ([1, 3, 0], 2),
    "select v from b in Books, s in b.sections, ss in s.sections, "
    "ss PATH_p(v)": ([0, 0, 1], 11),
    "select t from b in Books, s in b.sections, ss in s.sections, "
    "ss PATH_p.title(t)": ([0, 0, 1], 2),
    "select x from b in Books, s in b.sections, ss in s.sections, "
    "ss PATH_p(x), b PATH_q(x)": ([0, 0, 6], 1),
}


class TestPinnedWork:
    @pytest.fixture(scope="class")
    def store(self):
        return build_store()

    @pytest.mark.parametrize("name", sorted(CLASS_WORK))
    def test_query_classes(self, store, name):
        text = QUERY_CLASSES[name]
        store.query(text)
        counters = store.explain_analyze(text).metrics["counters"]
        assert [counters.get(work, 0) for work in WORK] == \
            CLASS_WORK[name]

    @pytest.mark.parametrize("text", sorted(BOOK_WORK))
    def test_truncated_sources(self, book, text):
        plain = DocumentStore(BOOK_DTD, backend="algebra",
                              structural=False)
        plain.load_text(NESTED_BOOK, name="my_book")
        work, size = BOOK_WORK[text]
        assert book.query(text) == plain.query(text)
        report = book.explain_analyze(text)
        assert [report.metrics["counters"].get(name, 0)
                for name in WORK] == work
        assert len(report.result) == size
