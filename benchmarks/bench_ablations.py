"""Ablation benches for the design choices DESIGN.md calls out.

A1 — tag-omission inference: parsing minimized documents (omitted end
     tags, the Figure-2 style) vs fully tagged ones.  Inference costs a
     little; the minimized documents are ~25% smaller.
A2 — nested-query memoization: Q4's set difference without the cache
     would re-evaluate the right operand per left element; the cache
     makes it a single evaluation (measured via an uncached simulation).
A3 — optimizer pushdown: the deep_join query with and without selection
     pushdown.
A4 — union-branch order in the loader: the section loader tries a1
     before a2; a corpus rich in a2 sections measures the backtracking
     overhead of the "wrong" first branch.
"""

import pytest

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD
from repro.corpus.generator import generate_corpus
from repro.sgml.instance_parser import parse_document
from repro.sgml.writer import write_document


@pytest.fixture(scope="module")
def corpus_pair():
    """(full serialisations, minimized serialisations) of 20 articles."""
    store = DocumentStore(ARTICLE_DTD)
    trees = generate_corpus(20, seed=42)
    full = [write_document(t, store.dtd) for t in trees]
    minimized = [write_document(t, store.dtd, minimize=True)
                 for t in trees]
    return store.dtd, full, minimized


def test_bench_a1_parse_fully_tagged(benchmark, corpus_pair):
    dtd, full, _ = corpus_pair
    trees = benchmark(lambda: [parse_document(t, dtd) for t in full])
    assert len(trees) == 20


def test_bench_a1_parse_minimized(benchmark, corpus_pair, capsys):
    dtd, full, minimized = corpus_pair
    trees = benchmark(
        lambda: [parse_document(t, dtd) for t in minimized])
    assert len(trees) == 20
    full_bytes = sum(len(t) for t in full)
    min_bytes = sum(len(t) for t in minimized)
    with capsys.disabled():
        print(f"\n[A1] minimized documents are "
              f"{100 - 100 * min_bytes // full_bytes}% smaller "
              f"({min_bytes} vs {full_bytes} bytes); inference makes "
              "parsing them possible at all")


@pytest.fixture(scope="module")
def versions_store():
    store = DocumentStore(ARTICLE_DTD)
    trees = generate_corpus(2, seed=5, sections=10)
    store.load_tree(trees[0], name="my_article", validate=False)
    store.load_tree(trees[1], name="my_old_article", validate=False)
    return store


def test_bench_a2_q4_with_memoization(benchmark, versions_store):
    result = benchmark(
        versions_store.query,
        "my_article PATH_p - my_old_article PATH_p")
    assert len(result) >= 0


def test_bench_a2_q4_uncached_simulation(benchmark, versions_store,
                                         capsys):
    """What Q4 costs when the right operand is recomputed per element
    (the behaviour without the nested-query cache)."""
    store = versions_store
    left_query = "my_article PATH_p"
    right_query = "my_old_article PATH_p"

    def uncached_difference():
        left = store.query(left_query)
        survivors = []
        for path in left:
            right = store.query(right_query)   # recomputed every time
            if path not in right:
                survivors.append(path)
        return survivors

    # keep the quadratic loop affordable: cap at 60 left elements
    left_size = len(store.query(left_query))
    if left_size > 60:
        def uncached_difference():  # noqa: F811
            left = list(store.query(left_query))[:60]
            survivors = []
            for path in left:
                right = store.query(right_query)
                if path not in right:
                    survivors.append(path)
            return survivors

    benchmark(uncached_difference)
    with capsys.disabled():
        print(f"\n[A2] uncached simulation re-evaluates the right "
              f"operand per path ({left_size} paths) — the memoized "
              "Q4 does it once")


def test_bench_a3_pushdown_off(benchmark, versions_store):
    from repro.algebra.compile import compile_query
    from repro.algebra.execute import execute_plan
    from repro.algebra.optimizer import factor_shared_prefixes
    store = versions_store
    query = store._engine.translate("""
        select t from a in Articles, s in a.sections,
                      a PATH_p.title(t)
        where a.status = "final"
    """)
    plan = factor_shared_prefixes(
        compile_query(query, store.schema, structural=False))
    benchmark(execute_plan, plan, store._engine.ctx)


def test_bench_a3_pushdown_on(benchmark, versions_store):
    from repro.algebra.compile import compile_query
    from repro.algebra.execute import execute_plan
    from repro.algebra.optimizer import (
        factor_shared_prefixes,
        sink_selections,
    )
    store = versions_store
    query = store._engine.translate("""
        select t from a in Articles, s in a.sections,
                      a PATH_p.title(t)
        where a.status = "final"
    """)
    plan = factor_shared_prefixes(
        sink_selections(compile_query(query, store.schema,
                                      structural=False)))
    benchmark(execute_plan, plan, store._engine.ctx)


@pytest.mark.parametrize("subsection_pct", [0, 90])
def test_bench_a4_loader_branch_order(benchmark, subsection_pct, capsys):
    """a2-heavy corpora force the loader to backtrack out of the a1
    branch on (almost) every section."""
    trees = generate_corpus(10, seed=11,
                            subsection_probability_percent=subsection_pct)

    def load_all():
        store = DocumentStore(ARTICLE_DTD)
        for tree in trees:
            store.load_tree(tree, validate=False)
        return store

    store = benchmark(load_all)
    sections = store.instance.disjoint_extent("Section")
    a2 = sum(1 for s in sections
             if store.instance.deref(s).marker == "a2")
    with capsys.disabled():
        print(f"\n[A4] subsection%={subsection_pct}: "
              f"{a2}/{len(sections)} sections took the a2 branch "
              "(each a backtrack out of a1)")
