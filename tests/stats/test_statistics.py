"""The statistics snapshot: what it counts, and when it recollects."""

import importlib
import threading
from types import SimpleNamespace

import pytest

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.corpus.generator import generate_corpus
from repro.stats import Statistics, StatisticsManager


@pytest.fixture(scope="module")
def store():
    s = DocumentStore(ARTICLE_DTD, backend="algebra")
    s.load_text(SAMPLE_ARTICLE, name="my_article")
    s.load_text(SAMPLE_ARTICLE, name="my_old_article")
    s.build_text_index()
    s.build_structural_index()
    return s


class TestCollection:
    def test_snapshot_measures_the_store(self, store):
        snap = store.statistics()
        assert snap.class_cardinalities["Article"] == 2
        assert snap.root_cardinalities["Articles"] == 2
        assert snap.root_cardinalities["my_article"] == 1
        assert snap.object_count == store.instance.object_count()
        assert snap.document_count > 0
        assert snap.vocabulary_size > 0
        # the structural index was built over every root
        assert snap.index_nodes > 0
        assert snap.index_roots > 0
        assert snap.attr_occurrences["title"] >= snap.index_roots

    def test_snapshot_is_memoized_per_epoch(self, store):
        assert store.statistics() is store.statistics()

    def test_mutation_triggers_lazy_recollection(self):
        s = DocumentStore(ARTICLE_DTD, backend="algebra")
        s.load_text(SAMPLE_ARTICLE, name="my_article")
        before = s.statistics()
        s.load_text(SAMPLE_ARTICLE, name="another")
        after = s.statistics()
        assert after is not before
        assert after.epoch > before.epoch
        assert (after.class_cardinalities["Article"]
                == before.class_cardinalities["Article"] + 1)

    def test_index_built_after_queries_refreshes_snapshot(self):
        """Building an index moves no store epoch, so the facade must
        refresh the memoized snapshot explicitly — otherwise the
        counts stay index-blind until the next data mutation."""
        s = DocumentStore(ARTICLE_DTD, backend="algebra")
        s.load_text(SAMPLE_ARTICLE, name="my_article")
        before = s.statistics()
        assert before.vocabulary_size == 0
        s.build_text_index()
        after = s.statistics()
        assert after.vocabulary_size > 0
        assert after.document_count > 0
        s.build_structural_index()
        assert s.statistics().index_nodes > 0

    def test_report_block_in_store_stats(self, store):
        block = store.stats()["statistics"]
        assert block["classes"] > 0

    def test_report_block_on_a_corpus(self):
        """Every count of the sample article and 40 generated ones,
        with both indexes built."""
        s = DocumentStore(ARTICLE_DTD)
        s.load_text(SAMPLE_ARTICLE, name="my_article")
        for tree in generate_corpus(40, seed=42):
            s.load_tree(tree, validate=False)
        s.build_text_index()
        s.build_structural_index()
        assert s.stats()["statistics"] == {
            "epoch": 41, "classes": 15, "objects": 1429,
            "documents": 1391, "vocabulary": 122, "index_nodes": 4661,
            "index_roots": 2, "attrs_tracked": 22,
            "recorded_queries": 0}

    def test_statistics_count_the_current_structural_index(self):
        """A collection reads the index as of the store's epoch, not
        the blocks the last scan happened to leave behind."""
        s = DocumentStore(ARTICLE_DTD)
        s.load_text(SAMPLE_ARTICLE, name="my_article")

        def index_nodes():
            stats = s.stats()
            counted = stats["statistics"]["index_nodes"]
            assert counted == stats["struct_index"]["nodes"]
            return counted

        s.query("select t from my_article PATH_p.title(t)")
        one = index_nodes()
        # a load, and no query since
        s.load_text(SAMPLE_ARTICLE, name="my_old_article")
        assert index_nodes() > one


class TestStatisticsRecord:
    """The snapshot is a plain count record."""

    def test_an_empty_record_counts_nothing(self):
        assert Statistics().to_dict() == {
            "epoch": 0, "classes": 0, "objects": 0, "documents": 0,
            "vocabulary": 0, "index_nodes": 0, "index_roots": 0,
            "attrs_tracked": 0}

    def test_mappings_are_reported_by_size(self):
        snap = Statistics(epoch=3,
                          class_cardinalities={"Article": 2, "Title": 0},
                          root_cardinalities={"Articles": 2},
                          attr_occurrences={"title": 6})
        block = snap.to_dict()
        assert block["epoch"] == 3
        assert block["classes"] == 2
        assert block["attrs_tracked"] == 1

    def test_mappings_are_copied(self):
        cards = {"Article": 2}
        snap = Statistics(class_cardinalities=cards)
        cards["Title"] = 3
        assert snap.class_cardinalities == {"Article": 2}

    def test_generation_is_always_zero(self):
        assert Statistics.generation == 0
        assert Statistics(epoch=9).generation == 0

    def test_the_row_model_is_gone(self):
        """Nothing estimates rows: the model's entry points are
        deleted, not left unused."""
        import repro.stats
        for name in ("candidate_upper_bound", "avg_fanout",
                     "avg_subtree_size", "attr_density",
                     "class_cardinality", "root_cardinality",
                     "DEFAULT_SELECTIVITY", "DEFAULT_FANOUT"):
            assert not hasattr(Statistics, name), name
        assert not hasattr(repro.stats, "estimate")
        assert not hasattr(StatisticsManager, "q_error")
        with pytest.raises(ImportError):
            importlib.import_module("repro.stats.cost")


class TestManager:
    """One collection per store epoch, on demand."""

    def test_one_collection_per_epoch(self):
        s = DocumentStore(ARTICLE_DTD, backend="algebra")
        s.load_text(SAMPLE_ARTICLE, name="my_article")
        registry = s.enable_metrics()
        s.statistics()
        s.statistics()
        s.stats()
        assert registry.get("stats.collections") == 1
        s.load_text(SAMPLE_ARTICLE, name="another")
        s.statistics()
        assert registry.get("stats.collections") == 2

    def test_invalidate_recollects_at_the_same_epoch(self, store):
        manager = store.stats_manager
        before = manager.snapshot()
        manager.invalidate()
        after = manager.snapshot()
        assert after is not before
        assert after.epoch == before.epoch
        assert after.to_dict() == before.to_dict()

    def test_without_a_context_no_index_is_counted(self, store):
        manager = StatisticsManager(store.instance,
                                    epoch_source=store.plan_cache)
        snap = manager.snapshot()
        assert snap.class_cardinalities == \
            store.statistics().class_cardinalities
        assert snap.document_count == snap.vocabulary_size == 0
        assert snap.index_nodes == snap.index_roots == 0
        assert snap.attr_occurrences == {}

    def test_the_epoch_is_read_off_its_source(self, store):
        source = SimpleNamespace(epoch=5)
        manager = StatisticsManager(store.instance, epoch_source=source)
        assert manager.snapshot().epoch == 5
        source.epoch = 6
        assert manager.snapshot().epoch == 6
        # a source without an epoch reads as epoch 0
        blind = StatisticsManager(store.instance, epoch_source=object())
        assert blind.epoch == 0

    def test_class_cardinalities_partition_the_objects(self):
        """Extents are disjoint: every object is counted under exactly
        one class."""
        s = DocumentStore(ARTICLE_DTD)
        s.load_text(SAMPLE_ARTICLE, name="my_article")
        for tree in generate_corpus(5, seed=3):
            s.load_tree(tree, validate=False)
        snap = s.statistics()
        assert sum(snap.class_cardinalities.values()) == snap.object_count
        assert snap.class_cardinalities["Article"] == 6

    def test_a_new_name_is_a_new_root(self):
        s = DocumentStore(ARTICLE_DTD)
        s.load_text(SAMPLE_ARTICLE, name="my_article")
        before = s.statistics()
        s.define_name("extra", s.instance.root("my_article"))
        after = s.statistics()
        assert after.epoch > before.epoch
        assert after.root_cardinalities["extra"] == 1
        assert after.object_count == before.object_count

    def test_concurrent_readers_share_one_collection(self):
        s = DocumentStore(ARTICLE_DTD)
        s.load_text(SAMPLE_ARTICLE, name="my_article")
        registry = s.enable_metrics()
        barrier = threading.Barrier(4)
        seen = []

        def read():
            barrier.wait()
            seen.append(s.statistics())

        threads = [threading.Thread(target=read) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(seen) == 4
        assert all(snap is seen[0] for snap in seen)
        assert registry.get("stats.collections") == 1

    def test_a_profiled_run_counts_as_one_execution(self):
        s = DocumentStore(ARTICLE_DTD)
        s.load_text(SAMPLE_ARTICLE, name="my_article")
        before = s.stats()["statistics"]
        s.explain_analyze("select t from my_article PATH_p.title(t)")
        after = s.stats()["statistics"]
        assert after.pop("recorded_queries") == \
            before.pop("recorded_queries") + 1
        assert after == before
