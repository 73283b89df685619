"""One structural-index lookup per batch.

:meth:`StructuralIndex.locate_all` answers a structural operator's
whole batch of sources after one ``refresh()`` and under one lock
acquisition; ``locate`` is its one-source case.  Per source the answer
must be what the definition says — a *complete* occurrence of the
source (an oid by value, anything else by identity), ``None`` when
there is none — whatever else is in the batch.  The structural
operators' work counters on the seven e2e query classes, and on a
recursive document whose inner occurrences are truncated, are pinned
as the per-source lookups counted them.
"""

import pytest

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.errors import EvaluationError
from repro.oodb.values import Oid, TupleValue
from tests.algebra.test_batch_executor import QUERY_CLASSES, build_store
from tests.structindex.test_index import BOOK_DTD, NESTED_BOOK

WORK = ("structindex.range_scans", "structindex.nodes_scanned",
        "structindex.fallback_walks")


def complete_occurrences(index, source) -> list:
    """Every complete ``(block, pre)`` holding ``source``, by brute
    force over the published blocks."""
    found = []
    for block in index.blocks.values():
        for pre, value in enumerate(block.values):
            same = (value == source if isinstance(source, Oid)
                    else value is source)
            if same and block.complete[pre]:
                found.append((block, pre))
    return found


def check_batch(index, sources) -> list:
    """``locate_all`` over ``sources`` equals one ``locate`` per
    source and the brute-force definition; returns its answer."""
    located = index.locate_all(sources)
    assert len(located) == len(sources)
    for source, answer in zip(sources, located):
        alone = index.locate(source)
        assert (answer is None) == (alone is None)
        if answer is not None:
            assert answer[0] is alone[0] and answer[1] == alone[1]
        occurrences = complete_occurrences(index, source)
        if answer is None:
            assert occurrences == []
        else:
            assert any(block is answer[0] and pre == answer[1]
                       for block, pre in occurrences)
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
        assert block.values[pre] == oid
        assert located == [index.locate(source)
                           for source in [oid] + others]


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
