"""Experiment Q1 — the contains query of Section 4.1.

    select tuple (t: a.title, f_author: first(a.authors))
    from a in Articles, s in a.sections
    where s.title contains ("SGML" and "OODBMS")

Measured under both backends; the assertion cross-checks the selected
articles against a manual scan.
"""

import pytest

from conftest import build_corpus_store

Q1 = """
    select tuple (t: a.title, f_author: first(a.authors))
    from a in Articles, s in a.sections
    where s.title contains ("SGML" and "OODBMS")
"""


@pytest.fixture(scope="module")
def store():
    return build_corpus_store(20)


def expected_rows(store):
    hits = set()
    for article_oid in store.instance.root("Articles"):
        article = store.instance.deref(article_oid)
        for section_oid in article.get("sections"):
            section = store.instance.deref(section_oid)
            words = store.text(
                section.marked_value.get("title")).split()
            if "SGML" in words and "OODBMS" in words:
                hits.add(article_oid)
    return hits


def test_bench_q1_calculus(benchmark, store, capsys):
    result = benchmark(store.query, Q1)
    titles = {row.get("t") for row in result}
    manual = {store.instance.deref(a).get("title")
              for a in expected_rows(store)}
    assert titles == manual
    with capsys.disabled():
        print(f"\n[Q1] {len(result)} of "
              f"{len(store.instance.root('Articles'))} articles "
              "match '\"SGML\" and \"OODBMS\"' in a section title")


def test_bench_q1_algebra(benchmark, store):
    from repro.algebra.compile import compile_query
    from repro.algebra.execute import execute_plan
    query = store._engine.translate(Q1)
    plan = compile_query(query, store.schema)
    result = benchmark(execute_plan, plan, store._engine.ctx)
    assert result == store.query(Q1)


def test_bench_q1_corpus_scaling(benchmark, capsys):
    """Q1 on a larger corpus (60 articles) — linear scan behaviour."""
    big = build_corpus_store(60)
    result = benchmark(big.query, Q1)
    with capsys.disabled():
        print(f"\n[Q1-scale] {len(result)} matches in 60 articles")
