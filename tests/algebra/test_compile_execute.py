"""Tests for the Section-5.4 algebraization.

The central property: for every query, the compiled algebra plan —
under either path-variable strategy — produces exactly the same result
set as the calculus interpreter, and with ``structural=False`` queries
with path/attribute variables compile into plans containing a Union
over variable-free navigation chains.
"""

import pytest

from repro import DocumentStore
from repro.calculus import evaluate_query
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.corpus.generator import generate_corpus
from repro.corpus.knuth import build_knuth_database
from repro.corpus.letters import build_letters_database
from repro.errors import CompilationError
from repro.algebra.compile import compile_query
from repro.algebra.execute import count_unions, execute_plan, plan_size
from repro.algebra.operators import (
    MakePathOp,
    ProjectOp,
    UnionOp,
)
from repro.o2sql import QueryEngine


@pytest.fixture(scope="module")
def store():
    s = DocumentStore(ARTICLE_DTD)
    s.load_text(SAMPLE_ARTICLE, name="my_article")
    s.load_text(SAMPLE_ARTICLE, name="my_old_article")
    for tree in generate_corpus(8, seed=42):
        s.load_tree(tree)
    return s


def compile_and_run(store, text, structural):
    query = store._engine.translate(text)
    plan = compile_query(query, store.schema, structural=structural)
    return plan, execute_plan(plan, store._engine.ctx)


EQUIVALENCE_QUERIES = [
    # plain select-from-where
    "select a from a in Articles",
    "select t from a in Articles, t in a.authors",
    # Q1 shape
    """select tuple (t: a.title, f_author: first(a.authors))
       from a in Articles, s in a.sections
       where s.title contains ("SGML" and "OODBMS")""",
    # union iteration (Q2)
    """select ss from a in Articles, s in a.sections,
              ss in s.subsectns""",
    # path variables (Q3)
    "select t from my_article PATH_p.title(t)",
    "select PATH_p from my_article PATH_p.title",
    # attribute variables (Q5)
    """select name(ATT_a) from my_article PATH_p.ATT_a(val)
       where val contains ("final")""",
    # difference (Q4)
    "my_article PATH_p - my_old_article PATH_p",
    # conditions and negation
    """select a from a in Articles
       where not a.status = "draft" """,
    # disjunction
    """select a from a in Articles
       where a.status = "draft" or a.status = "final" """,
    # positional access
    "select x from my_article PATH_p[0](x)",
]


class TestCalculusAlgebraEquivalence:
    @pytest.mark.parametrize("text", EQUIVALENCE_QUERIES,
                             ids=[q.split("\n")[0][:45]
                                  for q in EQUIVALENCE_QUERIES])
    def test_same_results(self, store, text):
        query = store._engine.translate(text)
        calculus_result = evaluate_query(query, store._engine.ctx)
        for structural in (False, True):
            _, algebra_result = compile_and_run(store, text, structural)
            assert algebra_result == calculus_result, structural

    def test_q6_letters(self):
        engine = QueryEngine(build_letters_database())
        text = """
            select letter
            from letter in Letters, letter[i].from, letter[j].to
            where i < j
        """
        query = engine.translate(text)
        from repro.calculus import evaluate_query as ev
        calculus_result = ev(query, engine.ctx)
        plan = compile_query(query, engine.instance.schema)
        assert execute_plan(plan, engine.ctx) == calculus_result
        assert len(calculus_result) == 3

    def test_knuth_attribute_of_jo(self):
        engine = QueryEngine(build_knuth_database())
        text_query = engine.translate(
            'select ATT_a from Knuth_Books PATH_p.ATT_a(x) '
            'where x = "Jo"')
        from repro.calculus import evaluate_query as ev
        calculus_result = ev(text_query, engine.ctx)
        for structural in (False, True):
            plan = compile_query(text_query, engine.instance.schema,
                                 structural=structural)
            assert execute_plan(plan, engine.ctx) == calculus_result
        assert set(calculus_result) == {"author"}


class TestPlanStructure:
    def test_path_variable_compiles_to_union(self, store):
        query = store._engine.translate(
            "select t from my_article PATH_p.title(t)")
        plan = compile_query(query, store.schema, structural=False)
        assert count_unions(plan) >= 1

    def test_variable_free_query_has_no_union(self, store):
        query = store._engine.translate(
            "select a from a in Articles where a.status = 'final'")
        plan = compile_query(query, store.schema)
        assert count_unions(plan) == 0

    def test_union_branches_are_path_variable_free(self, store):
        query = store._engine.translate(
            "select t from my_article PATH_p.title(t)")
        plan = compile_query(query, store.schema, structural=False)

        def find_union(node):
            if isinstance(node, UnionOp):
                return node
            for child in node.children():
                found = find_union(child)
                if found is not None:
                    return found
            return None

        union = find_union(plan)
        assert union is not None
        # every branch reconstructs the path via MakePath (no residual
        # path variable matching at runtime)
        for branch in union.branches:
            nodes = [branch]
            has_makepath = False
            while nodes:
                node = nodes.pop()
                if isinstance(node, MakePathOp):
                    has_makepath = True
                nodes.extend(node.children())
            assert has_makepath

    def test_plan_is_rooted_at_project(self, store):
        query = store._engine.translate("select a from a in Articles")
        plan = compile_query(query, store.schema)
        assert isinstance(plan, ProjectOp)
        assert plan_size(plan) >= 3

    def test_describe_renders_tree(self, store):
        query = store._engine.translate(
            "select t from my_article PATH_p.title(t)")
        plan = compile_query(query, store.schema, structural=False)
        rendered = plan.describe()
        assert "Project" in rendered
        assert "MakePath" in rendered
        assert "Seed" in rendered

    def test_liberal_semantics_rejected(self, store):
        query = store._engine.translate("select a from a in Articles")
        with pytest.raises(CompilationError):
            compile_query(query, store.schema, path_semantics="liberal")


class TestEngineAlgebraBackend:
    def test_backend_switch(self):
        s = DocumentStore(ARTICLE_DTD, backend="algebra")
        s.load_text(SAMPLE_ARTICLE, name="my_article")
        result = s.query("select t from my_article PATH_p.title(t)")
        assert len(result) == 3

    def test_backends_agree_on_figure2(self):
        calculus = DocumentStore(ARTICLE_DTD, backend="calculus")
        plans = DocumentStore(ARTICLE_DTD, backend="algebra",
                              structural=False)
        scans = DocumentStore(ARTICLE_DTD, backend="algebra")
        for s in (calculus, plans, scans):
            s.load_text(SAMPLE_ARTICLE, name="my_article")
        queries = [
            "select t from my_article PATH_p.title(t)",
            "select a from a in Articles",
            """select name(ATT_a) from my_article PATH_p.ATT_a(val)
               where val contains ("final")""",
        ]
        for text in queries:
            expected = calculus.query(text)
            assert plans.query(text) == scans.query(text) == expected, text
