"""Experiment P4 — calculus interpretation vs compiled algebra
(Section 5.4).

For each representative query we measure: (i) the calculus interpreter,
(ii) the compiled plan, (iii) the compiled+optimized plan, and we report
the plan's union width — the number of variable-free alternatives the
path/attribute variables expand into.

Expected shape: compilation pays off on queries whose path predicates
are selective (the plan navigates directly instead of enumerating all
concrete paths), while fully enumerative queries are comparable.
"""

import pytest

from conftest import build_corpus_store
from repro.calculus import evaluate_query
from repro.algebra.compile import compile_query
from repro.algebra.execute import count_unions, execute_plan, plan_size
from repro.algebra.optimizer import optimize

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


@pytest.fixture(scope="module")
def store():
    s = build_corpus_store(20)
    from repro.corpus import SAMPLE_ARTICLE
    s.load_text(SAMPLE_ARTICLE, name="my_article")
    s.build_text_index()
    return s


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_bench_p4_calculus(benchmark, store, name):
    query = store._engine.translate(QUERIES[name])
    result = benchmark(evaluate_query, query, store._engine.ctx)
    benchmark.extra_info["rows"] = len(result)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_bench_p4_algebra(benchmark, store, name, capsys):
    query = store._engine.translate(QUERIES[name])
    plan = compile_query(query, store.schema, structural=False)
    result = benchmark(execute_plan, plan, store._engine.ctx)
    assert result == evaluate_query(query, store._engine.ctx)
    with capsys.disabled():
        print(f"\n[P4] {name}: plan has {plan_size(plan)} operators, "
              f"{count_unions(plan)} unions, {len(result)} rows")


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_bench_p4_algebra_optimized(benchmark, store, name):
    query = store._engine.translate(QUERIES[name])
    plan = optimize(compile_query(query, store.schema, structural=False),
                    structural=False)
    result = benchmark(execute_plan, plan, store._engine.ctx)
    assert result == evaluate_query(query, store._engine.ctx)


def test_bench_p4_compilation_cost(benchmark, store):
    """Compiling itself is cheap relative to evaluation."""
    query = store._engine.translate(QUERIES["q3_titles"])
    plan = benchmark(compile_query, query, store.schema,
                     structural=False)
    assert plan_size(plan) > 5
