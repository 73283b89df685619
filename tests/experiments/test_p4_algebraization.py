"""P4 — calculus interpretation vs the compiled algebra (Section 5.4):
the union-of-plans and its optimized form answer exactly what the
interpreter answers, and path variables compile into one union."""

import pytest

from repro.algebra.compile import compile_query
from repro.algebra.execute import count_unions, execute_plan, plan_size
from repro.algebra.optimizer import optimize
from repro.calculus import evaluate_query
from repro.corpus import SAMPLE_ARTICLE
from tests.experiments.conftest import build_corpus_store

QUERIES = {
    "q3_titles": "select t from my_article PATH_p.title(t)",
    "q5_grep": """select name(ATT_a)
                  from my_article PATH_p.ATT_a(val)
                  where val contains ("final")""",
    "scan_filter": """select a from a in Articles
                      where a.status = "final" """,
    "deep_join": """select t from a in Articles, s in a.sections,
                                  a PATH_p.title(t)
                    where a.status = "final" """,
}

#: Unions in each union-of-plans: one per path or attribute variable.
UNIONS = {"q3_titles": 1, "q5_grep": 1, "scan_filter": 0, "deep_join": 1}


@pytest.fixture(scope="module")
def store():
    store = build_corpus_store(20)
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    store.build_text_index()
    return store


def interpreted(store, name):
    query = store._engine.translate(QUERIES[name])
    return query, evaluate_query(query, store._engine.ctx)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_p4_calculus(store, name):
    # the interpreter agrees with the structural plan the store serves
    query, result = interpreted(store, name)
    assert result
    plan = optimize(compile_query(query, store.schema))
    assert execute_plan(plan, store._engine.ctx) == result


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_p4_algebra(store, name):
    query, result = interpreted(store, name)
    plan = compile_query(query, store.schema, structural=False)
    assert count_unions(plan) == UNIONS[name]
    assert execute_plan(plan, store._engine.ctx) == result


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_p4_algebra_optimized(store, name):
    query, result = interpreted(store, name)
    plan = optimize(compile_query(query, store.schema,
                                  structural=False))
    assert execute_plan(plan, store._engine.ctx) == result


def test_p4_compilation_cost(store):
    query = store._engine.translate(QUERIES["q3_titles"])
    plan = compile_query(query, store.schema, structural=False)
    assert plan_size(plan) > 5
    # compiling is a pure function of the query and the schema
    assert plan_size(compile_query(query, store.schema,
                                   structural=False)) == plan_size(plan)
