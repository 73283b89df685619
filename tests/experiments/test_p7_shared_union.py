"""P7 — shared-work DAG execution of the union-of-plans: factoring the
branches' common prefixes keeps the answer, computes each shared
stream once per execution, and at least halves the rows the plan
computes; an impossible ``contains`` prunes the union's branches."""

import pytest

from repro.algebra.compile import compile_query
from repro.algebra.execute import count_shared, execute_plan
from repro.algebra.optimizer import optimize, sink_selections
from repro.calculus import evaluate_query
from repro.corpus import SAMPLE_ARTICLE
from repro.observe import MetricsRegistry
from tests.experiments.conftest import build_corpus_store, rows_computed

QUERIES = {
    "path_titles": "select t from a in Articles, a PATH_p.title(t)",
    "attvar_grep": """select name(ATT_a)
                      from my_article PATH_p.ATT_a(val)
                      where val contains ("final")""",
    "deep_join": """select t from a in Articles, s in a.sections,
                                  a PATH_p.title(t)
                    where a.status = "final" """,
}


@pytest.fixture(scope="module")
def store():
    store = build_corpus_store(20, backend="algebra", structural=False)
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    store.build_text_index()
    return store


def both_plans(store, name):
    query = store._engine.translate(QUERIES[name])
    plan = compile_query(query, store.schema, structural=False)
    return sink_selections(plan), optimize(plan)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_p7_unfactored(store, name):
    unfactored, _ = both_plans(store, name)
    assert count_shared(unfactored) == 0
    query = store._engine.translate(QUERIES[name])
    assert execute_plan(unfactored, store._engine.ctx) == \
        evaluate_query(query, store._engine.ctx)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_p7_factored(store, name):
    unfactored, factored = both_plans(store, name)
    assert count_shared(factored) > 0
    assert execute_plan(factored, store._engine.ctx) == \
        execute_plan(unfactored, store._engine.ctx)


def test_p7_speedup(store):
    """The headline claim, in rows rather than milliseconds: factoring
    at least halves the work of the warm plan."""
    unfactored, factored = both_plans(store, "deep_join")
    slow = rows_computed(store, unfactored)
    fast = rows_computed(store, factored)
    assert slow >= 2 * fast, (slow, fast)


def test_p7_sharing_counters(store):
    _, factored = both_plans(store, "deep_join")
    ctx = store._engine.ctx.fork()
    ctx.metrics = registry = MetricsRegistry()
    execute_plan(factored, ctx)
    # every shared stream is computed exactly once per execution...
    assert registry.get("algebra.subplan_misses") == count_shared(factored)
    # ...and replayed to every other consumer
    assert registry.get("algebra.subplan_hits") > 0
    assert registry.get("algebra.rows_saved") > 0


def test_p7_branch_pruning(store):
    """An impossible ``contains`` empties the index probe, so every
    union branch short-circuits before touching the store."""
    query = ('select t from a in Articles, a PATH_p.title(t) '
             'where a contains ("xyzzynotthere")')
    store.enable_metrics()
    store.reset_metrics()
    assert len(store.query(query)) == 0
    counters = store.metrics()["counters"]
    # every one of the 14 branches is skipped by its runtime probe
    assert counters["algebra.branches_pruned"] == 14
