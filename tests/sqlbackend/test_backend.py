"""The hybrid backend: parity, refusal guards, serving integration."""

import sqlite3

import pytest

from repro import DocumentStore
from repro.algebra.compile import compile_query
from repro.algebra.optimizer import optimize
from repro.calculus.evaluator import EvalContext
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.errors import SQLUnsupportedError
from repro.paths.enumeration import LIBERAL
from repro.sqlbackend.backend import SQLBackend

QUERIES = [
    "select t from my_article PATH_p.title(t)",
    """select tuple (t: a.title, f_author: first(a.authors))
       from a in Articles, s in a.sections
       where s.title contains ("SGML" and "OODBMS")""",
    """select name(ATT_a)
       from my_article PATH_p.ATT_a(val)
       where val contains ("final")""",
    "my_article PATH_p - my_article PATH_q.title(t)",
]


def build_store(backend):
    store = DocumentStore(ARTICLE_DTD, backend=backend)
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    store.build_text_index()
    store.build_structural_index()
    return store


def structural_hybrid(store, text):
    engine = store._engine
    query = engine.translate(text)
    plan = optimize(
        compile_query(query, store.schema,
                      path_semantics="restricted"),
        verify="raise", query=query)
    backend = SQLBackend(store.instance,
                         epoch_source=store.plan_cache)
    return backend, backend.compile(plan), plan


class TestParity:
    def test_sql_store_matches_algebra_store(self):
        sql_store = build_store("sql")
        algebra_store = build_store("algebra")
        for text in QUERIES:
            assert sql_store.query(text) == algebra_store.query(text), text

    def test_backend_execute_matches_plan_execution(self):
        from repro.algebra.execute import execute_plan
        store = build_store("algebra")
        for text in QUERIES:
            backend, hybrid, plan = structural_hybrid(store, text)
            expected = execute_plan(plan, store._engine.ctx.fork())
            assert backend.execute(hybrid,
                                   store._engine.ctx.fork()) == expected


class TestContainsPrefilter:
    """The hybridizer's ``SelectOp`` boundary is where the
    content-table prefilter goes in; a ``contains`` on a *variable*
    arrives there like any other select."""

    Q2 = ('select p from a in Articles, a PATH_p.paragr(p) '
          'where p contains ("complex object")')

    def corpus_store(self, backend):
        from repro.corpus.generator import generate_corpus
        store = DocumentStore(ARTICLE_DTD, backend=backend,
                              structural=True)
        store.load_text(SAMPLE_ARTICLE, name="my_article")
        for tree in generate_corpus(12, seed=42):
            store.load_tree(tree, validate=False)
        store.build_text_index()
        return store

    def test_variable_subject_select_is_prefiltered(self):
        sql_store = self.corpus_store("sql")
        sql_store.enable_metrics()
        rows = sql_store.query(self.Q2)
        assert rows and rows == self.corpus_store("algebra").query(
            self.Q2)
        counters = sql_store.metrics()["counters"]
        assert counters["sql.prefilters"] >= 1
        assert "sql.fallbacks" not in counters
        assert "sql.unsupported" not in counters


class TestRefusals:
    def test_non_projection_root_is_refused(self):
        store = build_store("algebra")
        engine = store._engine
        query = engine.translate(QUERIES[0])
        plan = compile_query(query, store.schema,
                             path_semantics="restricted")
        backend = SQLBackend(store.instance,
                             epoch_source=store.plan_cache)
        with pytest.raises(SQLUnsupportedError):
            backend.compile(plan.child)  # root is not the ProjectOp

    def test_scan_program_needs_restricted_semantics(self):
        store = build_store("algebra")
        backend, hybrid, _ = structural_hybrid(store, QUERIES[0])
        assert any(p.has_scans for p in hybrid.programs)
        ctx = EvalContext(store.instance, path_semantics=LIBERAL)
        with pytest.raises(SQLUnsupportedError, match="semantics"):
            backend.execute(hybrid, ctx)

    def test_scan_program_respects_the_enumeration_budget(self):
        store = build_store("algebra")
        backend, hybrid, _ = structural_hybrid(store, QUERIES[0])
        ctx = EvalContext(store.instance, max_paths=1)
        with pytest.raises(SQLUnsupportedError, match="budget"):
            backend.execute(hybrid, ctx)

    def test_non_navigable_root_is_refused_then_falls_back(self):
        from repro.algebra.execute import execute_plan
        store = build_store("algebra")
        backend, hybrid, plan = structural_hybrid(store, QUERIES[0])
        # a node-budget overflow: the index publishes truncated blocks
        index = backend.shred.index
        index.max_block_nodes = 2
        index.note_data_change(epoch=store.epoch)
        with pytest.raises(SQLUnsupportedError, match="navigable"):
            backend.execute(hybrid, store._engine.ctx.fork())
        # the serving fallback runs the same plan exactly
        assert execute_plan(plan, store._engine.ctx.fork()) \
            == store.query(QUERIES[0])


class TestServing:
    def test_explain_analyze_surfaces_sql_and_counters(self):
        store = build_store("sql")
        report = store._engine.profile(QUERIES[0])
        assert report.sql is not None
        assert "WITH" in report.sql
        rendered = report.render()
        assert "emitted SQL:" in rendered
        counters = report.metrics["counters"]
        assert counters.get("sql.compiles", 0) >= 1
        assert counters.get("sql.statements", 0) >= 1
        assert counters.get("sql.rows_fetched", 0) >= 1

    def test_shred_stays_epoch_fresh_across_mutation(self):
        store = build_store("sql")
        before = store.query(QUERIES[0])
        store.load_text(SAMPLE_ARTICLE, name="second_article")
        # the second article contributes its own title row
        after = store.query("select t from second_article PATH_p.title(t)")
        assert len(after) >= 1
        assert store.query(QUERIES[0]) == before

    def test_save_load_keeps_the_sql_backend(self, tmp_path):
        store = build_store("sql")
        expected = store.query(QUERIES[0])
        path = tmp_path / "snapshot.db"
        store.save(path)
        reloaded = DocumentStore.load(path, backend="sql")
        assert reloaded._engine.sql_backend is not None
        assert reloaded.query(QUERIES[0]) == expected


class TestErrorCoarsening:
    def test_sql_refusals_coarsen_to_rejected(self):
        from repro.diffcheck.harness import _error_label
        from repro.errors import SQLExecutionError
        assert _error_label(SQLUnsupportedError("no")) == "rejected"
        assert _error_label(SQLExecutionError("boom")) == "rejected"
        assert _error_label(
            sqlite3.OperationalError("no such table")) == "rejected"
        assert _error_label(ValueError("x")) == "ValueError"
