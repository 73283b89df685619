"""Unit tests for the observability primitives: the metrics registry,
the span tracer, and the ``observed`` installer.

Everything asserted here is deterministic — counts, structure,
attributes — never elapsed time.
"""

import pytest

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.observe import (
    Counter,
    Histogram,
    MetricsRegistry,
    NULL_TRACER,
    Tracer,
    observed,
)


class TestMetricsRegistry:
    def test_counter_increments(self):
        counter = Counter("n")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_registry_creates_counters_on_demand(self):
        registry = MetricsRegistry()
        registry.inc("a.b")
        registry.inc("a.b", 2)
        assert registry.get("a.b") == 3
        assert registry.get("never.touched") == 0
        assert registry.get("never.touched", default=-1) == -1

    def test_same_name_same_counter(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_histogram_summary(self):
        histogram = Histogram("sizes")
        for value in (2.0, 8.0, 5.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["total"] == 15.0
        assert summary["min"] == 2.0
        assert summary["max"] == 8.0
        assert summary["mean"] == 5.0

    def test_empty_histogram_mean_is_zero(self):
        assert Histogram("empty").mean == 0.0

    def test_snapshot_is_sorted_and_detached(self):
        registry = MetricsRegistry()
        registry.inc("z.last")
        registry.inc("a.first")
        registry.observe("h", 1.0)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a.first", "z.last"]
        assert snapshot["histograms"]["h"]["count"] == 1
        # mutating the registry afterwards must not alter the snapshot
        registry.inc("a.first")
        assert snapshot["counters"]["a.first"] == 1

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.observe("h", 2.0)
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "histograms": {}}


class TestTracer:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("query", backend="algebra"):
            with tracer.span("parse"):
                pass
            with tracer.span("execute") as execute:
                execute.annotate("rows", 7)
        root = tracer.last_root
        assert root.name == "query"
        assert root.attributes == {"backend": "algebra"}
        assert root.path_names() == ["parse", "execute"]
        assert root.child("execute").attributes == {"rows": 7}
        assert root.child("missing") is None

    def test_walk_is_preorder(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        names = [span.name for span in tracer.last_root.walk()]
        assert names == ["a", "b", "c", "d"]

    def test_sibling_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [span.name for span in tracer.roots] == ["first", "second"]
        tracer.reset()
        assert tracer.last_root is None

    def test_span_survives_exceptions(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        root = tracer.last_root
        assert root.path_names() == ["inner"]
        # the stack unwound — a new span is a fresh root, not a child
        with tracer.span("after"):
            pass
        assert [span.name for span in tracer.roots] == ["outer", "after"]

    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("anything", key="value") as span:
            span.annotate("rows", 3)
        assert NULL_TRACER.roots == []
        assert span.attributes == {}


class TestObservedInstaller:
    @pytest.fixture()
    def store(self):
        s = DocumentStore(ARTICLE_DTD)
        s.load_text(SAMPLE_ARTICLE, name="my_article")
        return s

    def test_observability_is_disabled_by_default(self, store):
        ctx = store._engine.ctx
        assert ctx.metrics is None
        assert ctx.tracer is None
        assert ctx.profiler is None
        assert store.instance.metrics is None
        # queries run fine with everything off
        assert len(store.query(
            "select t from my_article PATH_p.title(t)")) == 3

    def test_observed_installs_and_restores(self, store):
        ctx = store._engine.ctx
        store.build_text_index()
        # leaves the structural index for the first query to rebuild
        store.define_name("again", store.instance.root("my_article"))
        registry = MetricsRegistry()
        with observed(ctx, metrics=registry):
            assert ctx.metrics is registry
            assert ctx.instance.metrics is registry
            assert ctx.text_index.metrics is registry
            assert ctx.struct_index.metrics is registry
            store.query("select t from my_article PATH_p.title(t)")
        assert ctx.metrics is None
        assert ctx.instance.metrics is None
        assert ctx.text_index.metrics is None
        assert ctx.struct_index.metrics is None
        # the scan really was counted while installed, and so was the
        # index rebuild the new name left to the first query
        assert registry.get("structindex.range_scans") == 1
        assert registry.get("structindex.block_rebuilds") == 3
        assert registry.get("oodb.derefs") > 0

    def test_observed_restores_previous_observers(self, store):
        ctx = store._engine.ctx
        outer = MetricsRegistry()
        inner = MetricsRegistry()
        with observed(ctx, metrics=outer):
            with observed(ctx, metrics=inner):
                store.query("select t from my_article PATH_p.title(t)")
            assert ctx.metrics is outer
            assert ctx.instance.metrics is outer
            assert ctx.struct_index.metrics is outer
        assert inner.get("structindex.range_scans") == 1
        assert outer.get("structindex.range_scans") == 0
