"""The feedback loop around the cost model: stats-generation plan-cache
invalidation (``recost()`` is the one way to advance it), profiled
unit-cost/branch-cardinality ingestion, and the estimation-error
surface of EXPLAIN ANALYZE."""

import pytest

from repro import DocumentStore, PlanCache
from repro.cache.plancache import CachedArtifacts
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.corpus.generator import generate_corpus
from repro.observe import MetricsRegistry

QUERY = ('select t from a in Articles, a PATH_p.title(t) '
         'where a contains ("SGML")')


def build_store():
    # the union-of-plans: its branches are what the feedback records
    store = DocumentStore(ARTICLE_DTD, backend="algebra", structural=False)
    for tree in generate_corpus(8, seed=7):
        store.load_tree(tree, validate=False)
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    store.build_text_index()
    return store


def _entry(key, generation):
    return CachedArtifacts(query=None, plan=None, epoch=0, key=key,
                           stats_generation=generation)


class TestCacheStatsInvalidation:
    def test_lookup_drops_stale_generation(self):
        cache = PlanCache()
        metrics = MetricsRegistry()
        key = ("q",)
        cache.store(key, _entry(key, generation=0))
        assert cache.lookup(key, stats_generation=0) is not None
        assert cache.lookup(key, metrics=metrics,
                            stats_generation=1) is None
        counters = metrics.snapshot()["counters"]
        assert counters["cache.stats_invalidations"] == 1
        assert counters["cache.misses"] == 1
        # the stale-costing drop is not a data-epoch invalidation
        assert "cache.invalidations" not in counters

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

    def test_recost_forces_recompile_end_to_end(self):
        store = build_store()
        store.enable_metrics()
        first = store.query(QUERY)
        again = store.query(QUERY)          # warm: plan-cache hit
        store.stats_manager.recost()
        third = store.query(QUERY)          # costing moved: recompile
        counters = store.metrics()["counters"]
        assert counters["cache.stats_invalidations"] == 1
        assert counters["stats.recostings"] == 1
        assert counters["cache.misses"] == 2
        assert first == again == third


class TestGeneration:
    def test_feedback_records_but_never_moves_the_generation(self):
        store = build_store()
        manager = store.stats_manager
        before = manager.generation
        manager.record_execution("k", 1000.0, 1)
        assert manager.generation == before
        assert manager.report()["recorded_queries"] == 1

    def test_snapshot_follows_the_generation(self):
        store = build_store()
        manager = store.stats_manager
        old = manager.snapshot()
        manager.recost()
        new = manager.snapshot()
        assert new is not old
        assert new.generation == old.generation + 1


class TestProfiledFeedback:
    def test_profiled_run_harvests_unit_costs_and_branches(self):
        store = build_store()
        manager = store.stats_manager
        store.explain_analyze(QUERY)
        manager.invalidate()
        snap = manager.snapshot()
        # per-operator-class unit costs were learned (normalized so
        # the cheapest measured class costs 1.0, clamped)
        assert snap.unit_costs
        assert all(0.25 <= value <= 50.0
                   for value in snap.unit_costs.values())
        # the reordered union's per-branch actuals were recorded under
        # (cache key, evidence ordinal, original branch index)
        assert snap.branch_actuals
        assert snap.to_dict()["recorded_branches"] > 0

    def test_executions_are_counted_not_kept(self):
        store = build_store()
        for _ in range(3):
            store.query(QUERY)
        assert store.stats()["statistics"]["recorded_queries"] == 3


class TestExplainEstimation:
    def test_report_surfaces_est_vs_actual(self):
        store = build_store()
        report = store.explain_analyze(QUERY)
        errors = report.estimation_errors()
        assert errors
        worst = errors[0]
        assert {"operator", "label", "est_rows", "actual_rows",
                "q_error"} <= set(worst)
        assert all(entry["q_error"] >= 1.0 for entry in errors)
        # worst-first ordering
        qs = [entry["q_error"] for entry in errors]
        assert qs == sorted(qs, reverse=True)

    def test_summary_and_render(self):
        store = build_store()
        report = store.explain_analyze(QUERY)
        summary = report.estimation_summary()
        assert summary is not None
        assert summary["operators"] == len(report.estimation_errors())
        assert summary["max_q_error"] >= summary["mean_q_error"] >= 1.0
        rendered = report.render()
        assert "est=" in rendered
        assert "estimation error: mean q=" in rendered

    def test_uncosted_run_has_no_estimates(self):
        store = DocumentStore(ARTICLE_DTD, backend="calculus")
        store.load_text(SAMPLE_ARTICLE, name="my_article")
        report = store.explain_analyze(
            "select t from my_article PATH_p.title(t)")
        assert report.estimation_summary() is None
