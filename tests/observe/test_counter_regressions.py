"""Counter-based performance-regression tests.

The benchmark harness (benchmarks/bench_p1, bench_p5) measures
wall-clock time; these tests pin the *work* instead — deterministic
operation counts that would silently regress if an optimization broke:

* P1 — an indexed ``contains`` reads its answer off the index probe
  (no text is rebuilt or tokenised), while the unindexed plan
  tokenises the whole corpus;
* P5 — a path variable compiles into a Union whose fan-out equals the
  schema-derived number of alternatives, no more;
* P22 — a warm fused attribute scan reads its block's selection memo
  and tries no selection itself.

No timing assertions anywhere.
"""

import pytest

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD
from repro.corpus.generator import generate_corpus
from repro.o2sql import QueryEngine
from repro.observe import MetricsRegistry
from repro.oodb import INTEGER, STRING, schema_from_classes, tuple_of
from repro.oodb.instance import Instance
from repro.oodb.values import TupleValue

from tests.algebra.test_batch_executor import QUERY_CLASSES, build_store

CORPUS_SIZE = 20
NEEDLE = '"SGML" and "OODBMS"'
#: Articles whose text holds both words.  (5 while ``text()`` fused the
#: last word of one element with the first of the next on freshly
#: loaded stores; 13 is also what a reloaded store always answered.)
MATCHES = 13
CONTAINS_QUERY = (f"select a from a in Articles "
                  f"where a contains ({NEEDLE})")


def build_corpus_store(size=CORPUS_SIZE, seed=42,
                       backend="algebra") -> DocumentStore:
    store = DocumentStore(ARTICLE_DTD, backend=backend)
    for tree in generate_corpus(size, seed=seed):
        store.load_tree(tree, validate=False)
    return store


class TestP1IndexVsScanWork:
    """bench_p1's claim, made falsifiable without a stopwatch."""

    @pytest.fixture(scope="class")
    def indexed(self):
        store = build_corpus_store()
        store.build_text_index()
        store.enable_metrics()
        matches = store.query(CONTAINS_QUERY)
        return store, matches, store.metrics()["counters"]

    def test_indexed_contains_is_answered_by_the_probe(self, indexed):
        store, matches, counters = indexed
        assert len(matches) == MATCHES
        # PR 19: the probe of a not-free pattern is exact, so every
        # article is decided by it and none is re-tokenised (was:
        # rechecks == matches)
        assert counters["algebra.contains_index_answered"] == CORPUS_SIZE
        assert "algebra.contains_rechecks" not in counters

    def test_index_prunes_the_rest_of_the_corpus(self, indexed):
        store, matches, counters = indexed
        # PR 19: the kept rows are index-answered, not rechecked (was:
        # pruned + rechecked == corpus)
        assert (counters["algebra.index_pruned"]
                == CORPUS_SIZE - len(matches))

    def test_one_index_probe_per_literal_word(self, indexed):
        _, _, counters = indexed
        # '"SGML" and "OODBMS"' — two literal words, two postings probes
        assert counters["text.word_probes"] == 2

    def test_unindexed_contains_scans_whole_corpus(self):
        store = build_corpus_store()
        store.enable_metrics()
        matches = store.query(CONTAINS_QUERY)
        counters = store.metrics()["counters"]
        assert len(matches) == MATCHES
        assert counters["algebra.contains_rechecks"] == CORPUS_SIZE
        assert "text.word_probes" not in counters

    def test_index_and_scan_agree(self):
        scan = build_corpus_store()
        indexed = build_corpus_store()
        indexed.build_text_index()
        assert indexed.query(CONTAINS_QUERY) == scan.query(CONTAINS_QUERY)


def wide_database(width: int) -> Instance:
    """bench_p5's wide schema, populated: a root tuple with ``width``
    nested parts, each carrying a ``v`` attribute — every part is one
    alternative for ``PATH_p.v``."""
    fields = [(f"part{i}", tuple_of((f"pad{i}", INTEGER), ("v", STRING)))
              for i in range(width)]
    schema = schema_from_classes({}, roots={"Root": tuple_of(*fields)})
    instance = Instance(schema)
    instance.set_root("Root", TupleValue(
        [(f"part{i}", TupleValue([(f"pad{i}", i), ("v", f"value-{i}")]))
         for i in range(width)]))
    return instance


class TestP5UnionFanout:
    """bench_p5's explosion, pinned to its schema-derived expectation
    (the ``structural=False`` union-of-plans)."""

    @pytest.mark.parametrize("width", [4, 9, 17])
    def test_fanout_equals_schema_width(self, width):
        engine = QueryEngine(wide_database(width), backend="algebra",
                             structural=False)
        registry = MetricsRegistry()
        engine.ctx.metrics = registry
        result = engine.run("select x from Root PATH_p.v(x)")
        # exactly one navigation chain per part — no spurious branches
        assert registry.get("algebra.union_fanout") == width
        assert len(result) == width

    def test_report_fanout_matches_counter(self):
        engine = QueryEngine(wide_database(9), backend="algebra",
                             structural=False)
        report = engine.explain_analyze("select x from Root PATH_p.v(x)")
        assert report.union_fanouts() == [9]
        assert report.counter("algebra.union_fanout") == 9


class TestWarmAttributeScan:
    """A warm ``PATH_p.title(t)`` reads each block's selection memo:
    no selection trial (so no dereference) and no live walk per
    source — on the store the batch-executor goldens are taken from."""

    def test_second_path_titles_makes_no_trial(self):
        store = build_store()
        query = QUERY_CLASSES["path_titles"]
        first = store.query(query)
        registry = store.enable_metrics()
        assert store.query(query) == first
        assert registry.get("structindex.range_scans") > 0
        assert registry.get("oodb.derefs") == 0
        assert registry.get("structindex.fallback_walks") == 0
