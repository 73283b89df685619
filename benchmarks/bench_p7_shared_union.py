"""Experiment P7 — shared-work DAG execution for the union-of-plans
algebraization.

Path/attribute variables compile into a ``UnionOp`` whose branches are
clones of one another up to the point where the enumerated schema paths
diverge (Section 5.4).  ``factor_shared_prefixes`` merges those common
prefixes into :class:`SharedOp` nodes, so a warm execution computes each
shared stream once and replays it to the other branches; an empty text
index probe additionally prunes whole branches before they run.

We measure the same optimized plan with factoring off and on — identical
results, the speedup is pure shared work.  The work saving itself is
pinned by counters (``algebra.subplan_hits``/``rows_saved``), never by
the clock; the clock only reports how much the saving buys.
"""

import time

import pytest

from conftest import build_corpus_store
from repro.algebra.compile import compile_query
from repro.algebra.execute import count_shared, execute_plan, plan_size
from repro.algebra.optimizer import (
    optimize,
    sink_selections,
)
from repro.observe import MetricsRegistry

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
    s = build_corpus_store(20, backend="algebra")
    from repro.corpus import SAMPLE_ARTICLE
    s.load_text(SAMPLE_ARTICLE, name="my_article")
    s.build_text_index()
    return s


def both_plans(store, name):
    query = store._engine.translate(QUERIES[name])
    plan = compile_query(query, store.schema)
    return sink_selections(plan), optimize(plan)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_bench_p7_unfactored(benchmark, store, name):
    unfactored, _ = both_plans(store, name)
    result = benchmark(execute_plan, unfactored, store._engine.ctx)
    benchmark.extra_info["rows"] = len(result)
    benchmark.extra_info["operators"] = plan_size(unfactored)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_bench_p7_factored(benchmark, store, name, capsys):
    unfactored, factored = both_plans(store, name)
    result = benchmark(execute_plan, factored, store._engine.ctx)
    assert result == execute_plan(unfactored, store._engine.ctx)
    benchmark.extra_info["rows"] = len(result)
    benchmark.extra_info["operators"] = plan_size(factored)
    with capsys.disabled():
        print(f"\n[P7] {name}: {plan_size(unfactored)} -> "
              f"{plan_size(factored)} operators, "
              f"{count_shared(factored)} shared nodes, {len(result)} rows")


def test_bench_p7_speedup(store, capsys):
    """The headline claim: factoring at least halves the warm median."""
    unfactored, factored = both_plans(store, "deep_join")
    ctx = store._engine.ctx
    # warm-up doubles as the equivalence check
    assert execute_plan(factored, ctx) == execute_plan(unfactored, ctx)

    def median_of(plan, rounds=9):
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            execute_plan(plan, ctx)
            times.append(time.perf_counter() - start)
        return sorted(times)[rounds // 2]

    slow, fast = median_of(unfactored), median_of(factored)
    with capsys.disabled():
        print(f"\n[P7] deep_join warm medians: unfactored {slow * 1e3:.2f}ms,"
              f" factored {fast * 1e3:.2f}ms ({slow / fast:.2f}x)")
    assert slow >= 2.0 * fast, (
        f"expected >=2x from factoring, got {slow / fast:.2f}x")


def test_bench_p7_sharing_counters(store):
    """The saving is real shared work, not a measurement artifact."""
    _, factored = both_plans(store, "deep_join")
    ctx = store._engine.ctx.fork()
    ctx.metrics = registry = MetricsRegistry()
    execute_plan(factored, ctx)
    misses = registry.get("algebra.subplan_misses")
    hits = registry.get("algebra.subplan_hits")
    # every shared stream is computed exactly once per execution...
    assert misses == count_shared(factored)
    # ...and replayed to every other consumer
    assert hits > 0
    assert registry.get("algebra.rows_saved") > 0


def test_bench_p7_branch_pruning(benchmark, store):
    """An impossible ``contains`` empties the index probe, so every
    union branch short-circuits before touching the store."""
    query = ('select t from a in Articles, a PATH_p.title(t) '
             'where a contains ("xyzzynotthere")')
    store.enable_metrics()
    store.reset_metrics()
    result = benchmark(store.query, query)
    assert len(result) == 0
    counters = store.metrics()["counters"]
    # 13 of 14 branches go away at compile time (cost stage, posting-
    # size zero proof); the kept one is runtime-pruned on every run
    assert counters["algebra.branches_pruned_static"] == 13
    assert counters["algebra.branches_pruned"] >= 1
