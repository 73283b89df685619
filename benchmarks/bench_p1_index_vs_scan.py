"""Experiment P1 — full-text index vs naive scan (Section 4.1).

The paper motivates "the integration of appropriate pattern matching
algorithms and full text indexing mechanisms"; this bench quantifies the
claim on our substrate: evaluating ``contains`` by scanning every
object's reconstructed text versus probing the positional inverted
index (plus the exact re-check on candidates only).

Expected shape: the index probe wins by a growing factor as the corpus
grows — the scan is O(corpus), the probe O(matches).
"""

import pytest

from conftest import CORPUS_SIZES, build_corpus_store

NEEDLE = '"SGML" and "OODBMS"'


def scan_query(store):
    return store.query(f"""
        select a from a in Articles
        where a contains ({NEEDLE})
    """)


def index_probe(store):
    from repro.text import parse_pattern_expr
    expression = parse_pattern_expr(NEEDLE)
    candidates, _ = store.text_index.probe(expression)
    articles = set(store.instance.root("Articles"))
    hits = []
    for oid in candidates & articles:
        if expression.holds_on_text(store.text(oid)):
            hits.append(oid)
    return hits


@pytest.mark.parametrize("size", CORPUS_SIZES)
def test_bench_p1_naive_scan(benchmark, size):
    store = build_corpus_store(size)
    result = benchmark(scan_query, store)
    assert len(result) >= 0
    benchmark.extra_info["corpus"] = size
    benchmark.extra_info["matches"] = len(result)


@pytest.mark.parametrize("size", CORPUS_SIZES)
def test_bench_p1_index_probe(benchmark, size, capsys):
    store = build_corpus_store(size)
    store.build_text_index()
    hits = benchmark(index_probe, store)
    # exactness: probe results equal the naive scan
    assert set(hits) == set(scan_query(store))
    benchmark.extra_info["corpus"] = size
    with capsys.disabled():
        print(f"\n[P1] corpus={size}: index probe returns "
              f"{len(hits)} articles (identical to the scan)")


def test_bench_p1_index_construction(benchmark):
    """Index build cost (amortized over all subsequent queries)."""
    store = build_corpus_store(20)
    index = benchmark(store.build_text_index)
    assert index.document_count > 0


def test_bench_p1_algebra_with_index(benchmark, capsys):
    """The served plan — its ``contains`` select reads the index —
    on an indexed store; same answer as the compiled plan."""
    from repro.algebra.compile import compile_query
    from repro.algebra.execute import execute_plan
    from repro.algebra.optimizer import optimize
    store = build_corpus_store(60)
    store.build_text_index()
    engine = store._engine
    query = engine.translate(f"""
        select a from a in Articles
        where a contains ({NEEDLE})
    """)
    plan = optimize(compile_query(query, store.schema))
    result = benchmark(execute_plan, plan, engine.ctx)
    baseline = execute_plan(
        compile_query(query, store.schema), engine.ctx)
    assert result == baseline
    with capsys.disabled():
        print(f"\n[P1] optimized plan: {len(result)} matches in "
              "60 articles, contains answered by the index")
