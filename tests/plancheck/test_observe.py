"""Observability of the gate: ``plancheck.*`` counters in
``metrics()`` / ``explain_analyze``, and the per-stage compile-phase
breakdown (one ``optimize.<stage>`` span per rewrite) in the trace."""

import pytest

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE

QUERY = "select t from my_article PATH_p.title(t) where t = 'On Sets'"


@pytest.fixture()
def store():
    s = DocumentStore(ARTICLE_DTD, backend="algebra")
    s.load_text(SAMPLE_ARTICLE, name="my_article")
    s.build_text_index()
    return s


class TestCounters:
    def test_query_run_counts_verifications(self, store):
        store.enable_metrics()
        store.query(QUERY)
        counters = store.metrics()["counters"]
        # one verification per optimizer stage (pushdown, factor,
        # cost)
        assert counters["plancheck.verifications"] == 3
        assert "plancheck.faults" not in counters

    def test_explain_analyze_snapshot_carries_counters(self, store):
        report = store.explain_analyze(QUERY)
        counters = report.metrics["counters"]
        assert counters["plancheck.verifications"] >= 1
        assert "plancheck.verifications" in report.render()


class TestCompileBreakdown:
    def test_optimizer_stages_nest_under_compile(self, store):
        report = store.explain_analyze(QUERY)
        compile_span = report.trace.child("compile")
        assert compile_span is not None
        names = compile_span.path_names()
        assert names == ["optimize.pushdown", "optimize.factor",
                         "optimize.cost"]
        for span in compile_span.children:
            assert span.elapsed >= 0.0
        assert compile_span.attributes["verified"] is True

    def test_structural_store_adds_structuralize_stage(self):
        s = DocumentStore(ARTICLE_DTD, backend="algebra",
                          structural=True)
        s.load_text(SAMPLE_ARTICLE, name="my_article")
        s.build_structural_index()
        report = s.explain_analyze("select t from my_article"
                                   " PATH_p.title(t)")
        compile_span = report.trace.child("compile")
        assert compile_span.path_names()[0] == "optimize.structuralize"

    def test_cache_hit_skips_compile_side_spans(self, store):
        store.query(QUERY)  # warm the plan cache
        report = store.explain_analyze(QUERY)
        assert report.trace.child("compile") is None
