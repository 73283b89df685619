"""What executed plans feed back into the statistics: an execution is
counted, and nothing a profiled run measures changes a later plan."""

from repro import DocumentStore, PlanCache
from repro.cache.plancache import CachedArtifacts
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.corpus.generator import generate_corpus

QUERY = ('select t from a in Articles, a PATH_p.title(t) '
         'where a contains ("SGML")')


def build_store(articles=8):
    # the union-of-plans: the plans with unions to profile
    store = DocumentStore(ARTICLE_DTD, backend="algebra", structural=False)
    for tree in generate_corpus(articles, seed=7):
        store.load_tree(tree, validate=False)
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    store.build_text_index()
    return store


def _entry(key, generation):
    return CachedArtifacts(query=None, plan=None, epoch=0, key=key,
                           stats_generation=generation)


class TestCacheStatsInvalidation:
    """The statistics no longer invalidate a cached plan: the
    ``stats_generation`` the e2e harness still passes is accepted and
    ignored (ROADMAP item 11 deletes it)."""

    def test_uncosted_entry_survives_generation_moves(self):
        cache = PlanCache()
        key = ("q",)
        cache.store(key, _entry(key, generation=None))
        assert cache.lookup(key, stats_generation=7) is not None

    def test_lookup_without_generation_is_a_hit(self):
        cache = PlanCache()
        key = ("q",)
        cache.store(key, _entry(key, generation=3))
        assert cache.lookup(key, stats_generation=None) is not None

    def test_compile_takes_no_snapshot(self, monkeypatch):
        """Neither a compile nor ``explain_analyze`` reads the
        statistics."""
        store = build_store()
        manager = store.stats_manager
        taken = []
        collect = manager.snapshot

        def counted():
            taken.append(1)
            return collect()

        monkeypatch.setattr(manager, "snapshot", counted)
        first = store.query(QUERY)          # miss: compiles
        assert store.query(QUERY) == first  # warm: plan-cache hit
        store.explain_analyze(QUERY)
        assert taken == []


class TestGeneration:
    def test_feedback_records_but_never_moves_the_generation(self):
        store = build_store()
        manager = store.stats_manager
        assert manager.snapshot().generation == 0
        store.query(QUERY)
        store.explain_analyze(QUERY)
        before = manager.report()["recorded_queries"]
        manager.record_execution("k", 1000.0, 1)
        manager.invalidate()
        assert manager.snapshot().generation == 0
        assert manager.report()["recorded_queries"] == before + 1


class TestExecutions:
    def test_executions_are_counted_not_kept(self):
        store = build_store()
        for _ in range(3):
            store.query(QUERY)
        assert store.stats()["statistics"]["recorded_queries"] == 3

    def test_record_execution_counts_one_query(self):
        manager = build_store().stats_manager
        manager.record_execution("k", 1000.0, 1)
        assert manager.report()["recorded_queries"] == 1


class TestNoHistory:
    def test_plan_does_not_depend_on_what_was_profiled(self):
        """Two identical stores serve the same plan for the same text,
        however often one of them ran it under EXPLAIN ANALYZE."""
        profiled, fresh = build_store(20), build_store(20)
        for store in (profiled, fresh):
            store.build_structural_index()
            store.query(QUERY)
        for _ in range(5):
            profiled.explain_analyze(QUERY)
        for store in (profiled, fresh):
            # a new epoch: the next query recompiles
            store.define_name("extra", store.instance.root("my_article"))
            store.query(QUERY)

        def served(store):
            return store._engine.artifacts(QUERY).plan.describe()

        assert served(profiled) == served(fresh)
