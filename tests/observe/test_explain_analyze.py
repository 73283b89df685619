"""EXPLAIN ANALYZE over the Figure-2 store.

``DocumentStore.explain_analyze`` runs a query fully observed and
returns an :class:`~repro.observe.report.ExplainReport`.  On the
algebra backend the report carries the executed plan annotated with the
*actual* rows each operator produced; on both backends it carries the
stage span tree and a deterministic counter snapshot.
"""

import pytest

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.observe import ExplainReport
from repro.observe.report import plan_tree, render_plan_tree

Q3 = "select t from my_article PATH_p.title(t)"


@pytest.fixture(scope="module")
def algebra_store():
    # the Section 5.4 union-of-plans, whose fan-out the report shows
    store = DocumentStore(ARTICLE_DTD, backend="algebra", structural=False)
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    return store


@pytest.fixture(scope="module")
def calculus_store():
    store = DocumentStore(ARTICLE_DTD, backend="calculus")
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    return store


class TestAlgebraReport:
    def test_report_carries_result_and_plan(self, algebra_store):
        report = algebra_store.explain_analyze(Q3)
        assert isinstance(report, ExplainReport)
        assert report.backend == "algebra"
        assert report.result == algebra_store.query(Q3)
        assert report.plan is not None

    def test_actual_rows_per_operator(self, algebra_store):
        report = algebra_store.explain_analyze(Q3)
        # three titles in the Figure-2 article → the Project emits 3
        assert report.rows_for("ProjectOp") == [3]
        # the 14 union branches together yield 8 raw bindings
        assert report.rows_for("UnionOp") == [8]
        # every annotated node ran: rows and pulls are concrete ints
        for node in report.operators():
            assert isinstance(node["rows"], int)
            assert node["pulls"] >= 0

    def test_union_fanout_from_variable_elimination(self, algebra_store):
        report = algebra_store.explain_analyze(Q3)
        # Section 5.4: PATH_p compiles away into one Union over all
        # schema positions where `.title` applies — 14 on Figure 3
        assert report.union_fanouts() == [14]
        assert report.counter("algebra.union_fanout") == 14

    def test_stage_span_tree(self, algebra_store):
        # cold: a cleared plan cache records every pipeline stage
        algebra_store.plan_cache.clear()
        report = algebra_store.explain_analyze(Q3)
        root = report.trace
        assert root.name == "query"
        assert root.attributes["backend"] == "algebra"
        assert root.path_names() == [
            "parse", "translate", "safety", "inference",
            "compile", "execute"]
        compile_span = root.child("compile")
        assert compile_span.attributes["unions"] == 1
        assert compile_span.attributes["operators"] > 1
        assert root.attributes["rows"] == 3
        assert root.attributes["plan_cache"] == "miss"

    def test_warm_span_tree_is_execute_only(self, algebra_store):
        # warm: the cached front end leaves no parse/compile spans
        algebra_store.query(Q3)
        report = algebra_store.explain_analyze(Q3)
        root = report.trace
        assert root.path_names() == ["execute"]
        assert root.attributes["plan_cache"] == "hit"
        assert report.counter("cache.hits") == 1
        assert root.attributes["rows"] == 3

    def test_render_is_an_indented_tree(self, algebra_store):
        rendered = str(algebra_store.explain_analyze(Q3))
        assert "EXPLAIN ANALYZE (algebra backend) — 3 row(s)" in rendered
        assert "rows=3" in rendered
        assert "algebra.union_fanout = 14" in rendered
        # children are indented under the Project root
        lines = rendered.splitlines()
        project_line = next(i for i, line in enumerate(lines)
                            if "Project" in line)
        assert lines[project_line + 1].startswith("  ")

    def test_nothing_is_estimated(self, algebra_store):
        report = algebra_store.explain_analyze(Q3)
        assert "est=" not in str(report)
        assert report.operators()
        assert not any("est_rows" in node for node in report.operators())

    def test_self_times_add_up_to_the_root(self, algebra_store):
        # the q1_contains shape, over a factored plan whose shared
        # nodes are pulled by several consumers: every distinct node's
        # own share, once, is the whole execution
        report = algebra_store.explain_analyze(
            "select s.title from s in my_article.sections "
            'where s.title contains ("SGML")')
        nodes = report.operators()
        assert nodes[0]["self"] <= nodes[0]["elapsed"]
        assert sum(node["self"] for node in nodes if not node["ref"]) \
            == pytest.approx(nodes[0]["elapsed"])
        assert "self=" in str(report)
        shared = algebra_store.explain_analyze(Q3).operators()
        assert any(node["ref"] for node in shared)
        assert sum(node["self"] for node in shared if not node["ref"]) \
            == pytest.approx(shared[0]["elapsed"])

    def test_an_interpreted_term_says_why(self, algebra_store):
        # `my_article.sections` is rooted at a name, not a variable:
        # the generic kernel runs, and the counters name the shape
        report = algebra_store.explain_analyze(
            "select s.title from s in my_article.sections "
            'where s.title contains ("SGML")')
        assert report.counter("algebra.kernel_generic.name_root") == 1
        # no text index here: every title is tokenised, none answered
        assert report.counter("algebra.contains_rechecks") == 2
        assert report.counter("algebra.contains_index_answered") == 0

    def test_operator_entries_carry_the_measured_fields(self,
                                                       algebra_store):
        report = algebra_store.explain_analyze(Q3)
        for node in report.operators():
            assert set(node) == {"operator", "label", "rows", "pulls",
                                 "elapsed", "self", "ref"}

    def test_shared_references_are_leaves(self, algebra_store):
        tree = algebra_store.explain_analyze(Q3).tree
        refs = []

        def visit(node):
            if node["ref"]:
                refs.append(node)
                assert node["children"] == []
                assert node["label"].endswith("(ref)")
            for child in node["children"]:
                visit(child)

        visit(tree)
        assert refs

    def test_an_unprofiled_plan_renders_labels_only(self, algebra_store):
        report = algebra_store.explain_analyze(Q3)
        bare = plan_tree(report.plan)
        assert bare["rows"] is None and bare["pulls"] is None
        rendered = render_plan_tree(bare)
        assert "rows=" not in rendered
        assert rendered.splitlines()[0] == bare["label"]

    def test_rows_for_an_absent_operator_is_empty(self, algebra_store):
        report = algebra_store.explain_analyze(Q3)
        assert report.rows_for("NoSuchOp") == []

    @pytest.mark.parametrize("query", [
        Q3,
        "select s.title from s in my_article.sections "
        'where s.title contains ("SGML")',
        "select a from a in my_article.authors",
    ])
    def test_the_root_emits_the_result(self, algebra_store, query):
        report = algebra_store.explain_analyze(query)
        assert report.operators()[0]["rows"] == len(report.result)
        assert report.result == algebra_store.query(query)

    def test_every_counter_is_rendered(self, algebra_store):
        report = algebra_store.explain_analyze(Q3)
        counters = report.metrics["counters"]
        assert counters
        lines = str(report).splitlines()
        for name, value in counters.items():
            assert f"  {name} = {value}" in lines

    def test_observers_are_uninstalled_afterwards(self, algebra_store):
        algebra_store.explain_analyze(Q3)
        ctx = algebra_store._engine.ctx
        assert ctx.profiler is None
        assert ctx.tracer is None


class TestCalculusReport:
    def test_no_plan_but_spans_and_counters(self, calculus_store):
        calculus_store.plan_cache.clear()
        report = calculus_store.explain_analyze(Q3)
        assert report.backend == "calculus"
        assert report.plan is None
        assert report.tree is None
        assert report.operators() == []
        assert report.union_fanouts() == []
        root = report.trace
        assert root.path_names() == [
            "parse", "translate", "safety", "inference", "evaluate"]
        assert root.attributes["rows"] == 3

    def test_enumeration_counters_are_deterministic(self, calculus_store):
        report = calculus_store.explain_analyze(Q3)
        # one path atom, three satisfying bindings, and a fixed number
        # of candidate paths enumerated on the Figure-2 instance
        assert report.counter("calculus.atoms") == 1
        assert report.counter("calculus.bindings") == 3
        assert report.counter("calculus.paths_enumerated") == 55
        assert report.counter("oodb.derefs") > 0

    def test_repeated_runs_give_identical_counters(self, calculus_store):
        calculus_store.query(Q3)  # warm the plan cache
        first = calculus_store.explain_analyze(Q3)
        second = calculus_store.explain_analyze(Q3)
        assert first.metrics["counters"] == second.metrics["counters"]


class TestStoreMetricsFacade:
    def test_metrics_auto_enables_and_accumulates(self):
        store = DocumentStore(ARTICLE_DTD)
        store.load_text(SAMPLE_ARTICLE, name="my_article")
        assert store.metrics()["counters"] == {}
        store.query(Q3)
        after_one = store.metrics()["counters"]
        assert after_one["structindex.range_scans"] == 1
        assert after_one["structindex.nodes_scanned"] == 8
        store.query(Q3)
        after_two = store.metrics()["counters"]
        assert after_two["structindex.range_scans"] == 2
        assert after_two["structindex.nodes_scanned"] == 16

    def test_reset_metrics(self):
        store = DocumentStore(ARTICLE_DTD)
        store.load_text(SAMPLE_ARTICLE, name="my_article")
        store.enable_metrics()
        store.query(Q3)
        store.reset_metrics()
        assert store.metrics()["counters"] == {}

    def test_explain_analyze_does_not_pollute_store_metrics(self):
        store = DocumentStore(ARTICLE_DTD)
        store.load_text(SAMPLE_ARTICLE, name="my_article")
        store.enable_metrics()
        report = store.explain_analyze(Q3)
        # the report used its own registry; the store's stays empty
        assert store.metrics()["counters"] == {}
        # ... and it holds every layer's counters, the rebuild of the
        # structural index included; it collects no statistics
        assert report.counter("structindex.block_rebuilds") == 2
        assert report.counter("structindex.nodes_indexed") == 111
        assert report.counter("stats.collections") == 0

    def test_the_sql_shred_counts_into_the_report(self):
        store = DocumentStore(ARTICLE_DTD, backend="sql")
        store.load_text(SAMPLE_ARTICLE, name="my_article")
        store.enable_metrics()
        report = store.explain_analyze(Q3)
        assert store.metrics()["counters"] == {}
        assert report.counter("sql.shreds") == 1
        assert report.counter("sql.shred_nodes") == 111
