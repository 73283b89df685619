"""Observability of the gate: ``plancheck.*`` counters in
``metrics()`` / ``explain_analyze``, and the per-stage compile-phase
breakdown (one ``optimize.<stage>`` span per rewrite) in the trace."""

import json
from pathlib import Path

import pytest

from repro import DocumentStore
from repro.algebra.compile import compile_query
from repro.algebra.optimizer import factor_shared_prefixes, sink_selections
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.corpus.generator import generate_corpus
from repro.observe import MetricsRegistry

QUERY = "select t from my_article PATH_p.title(t) where t = 'On Sets'"


@pytest.fixture()
def store():
    s = DocumentStore(ARTICLE_DTD, backend="algebra", structural=False)
    s.load_text(SAMPLE_ARTICLE, name="my_article")
    s.build_text_index()
    return s


class TestCounters:
    def test_query_run_counts_verifications(self, store):
        store.enable_metrics()
        store.query(QUERY)
        counters = store.metrics()["counters"]
        # the compiler's plan once, then each stage that changed it:
        # pushdown (the filter enters the union) and factor
        assert counters["plancheck.verifications"] == 3
        assert "plancheck.faults" not in counters

    def test_explain_analyze_snapshot_carries_counters(self, store):
        report = store.explain_analyze(QUERY)
        counters = report.metrics["counters"]
        assert counters["plancheck.verifications"] >= 1
        assert "plancheck.verifications" in report.render()


SPEC = json.loads((Path(__file__).parents[2] / "benchmarks" / "e2e"
                   / "spec.json").read_text())
#: The e2e warm classes and the cold templates, each with one literal.
SERVED = list(SPEC["query_classes"].values()) + [
    template.format(p='"SGML" and "OODBMS"')
    for template in SPEC["cold_templates"].values()]


def served_store(structural):
    s = DocumentStore(ARTICLE_DTD, backend="algebra",
                      structural=structural)
    s.load_text(SAMPLE_ARTICLE, name="my_article")
    for tree in generate_corpus(3, seed=42):
        s.load_tree(tree, validate=False)
    s.build_text_index()
    return s


def verifications(store, text):
    metrics = MetricsRegistry()
    store._engine.compile(store._engine.translate(text), metrics=metrics)
    return metrics.snapshot()["counters"]["plancheck.verifications"]


class TestVerifiedOnce:
    """The compiler's plan is verified once; a stage's output only when
    it is a new plan."""

    @pytest.mark.parametrize("text", SERVED)
    def test_structural_plans_verify_once(self, text):
        # no stage changes a served structural plan
        assert verifications(served_store(True), text) == 1

    @pytest.mark.parametrize("text", SERVED)
    def test_union_plans_verify_each_change(self, text):
        store = served_store(False)
        engine = store._engine
        plan = compile_query(engine.translate(text), store.schema,
                             structural=False)
        changed = 0
        for stage in (sink_selections, factor_shared_prefixes):
            rewritten = stage(plan)
            changed += rewritten is not plan
            plan = rewritten
        assert verifications(store, text) == 1 + changed


class TestCompileBreakdown:
    def test_optimizer_stages_nest_under_compile(self, store):
        report = store.explain_analyze(QUERY)
        compile_span = report.trace.child("compile")
        assert compile_span is not None
        names = compile_span.path_names()
        assert names == ["optimize.pushdown", "optimize.factor"]
        for span in compile_span.children:
            assert span.elapsed >= 0.0
        assert compile_span.attributes["verified"] is True

    def test_structural_store_runs_the_same_stages(self):
        # the compiler fuses the structural scans and joins itself:
        # no optimizer stage of its own
        s = DocumentStore(ARTICLE_DTD, backend="algebra")
        s.load_text(SAMPLE_ARTICLE, name="my_article")
        s.build_structural_index()
        report = s.explain_analyze("select t from my_article"
                                   " PATH_p.title(t)")
        compile_span = report.trace.child("compile")
        assert compile_span.path_names() == ["optimize.pushdown",
                                             "optimize.factor"]

    def test_cache_hit_skips_compile_side_spans(self, store):
        store.query(QUERY)  # warm the plan cache
        report = store.explain_analyze(QUERY)
        assert report.trace.child("compile") is None
