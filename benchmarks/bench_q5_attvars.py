"""Experiment Q5 — attribute variables: grep inside the OODB.

    select name(ATT_a)
    from my_article PATH_p.ATT_a(val)
    where val contains ("final")

The schema-free search the paper highlights ("perform search operations
like Unix grep inside an OODBMS").
"""

import pytest

from conftest import build_corpus_store

Q5 = """
    select name(ATT_a)
    from my_article PATH_p.ATT_a(val)
    where val contains ("final")
"""


def test_bench_q5(benchmark, figure2_store, capsys):
    result = benchmark(figure2_store.query, Q5)
    assert set(result) == {"status"}
    with capsys.disabled():
        print("\n[Q5] attributes of my_article whose value contains "
              f"'final': {sorted(result)}")


def test_bench_q5_content_word(benchmark, figure2_store, capsys):
    result = benchmark(figure2_store.query, """
        select name(ATT_a)
        from my_article PATH_p.ATT_a(val)
        where val contains ("SGML")
    """)
    assert "text" in set(result)
    with capsys.disabled():
        print(f"\n[Q5] 'SGML' found under attributes: {sorted(result)}")


def test_bench_q5_whole_corpus(benchmark, capsys):
    """The same grep over every article of a 20-document corpus."""
    store = build_corpus_store(20)
    query = """
        select name(ATT_a)
        from a in Articles, a PATH_p.ATT_a(val)
        where val contains ("calculus")
    """
    result = benchmark(store.query, query)
    with capsys.disabled():
        print(f"\n[Q5-corpus] 'calculus' found under attributes: "
              f"{sorted(result)}")


def test_bench_q5_algebra(benchmark, figure2_store):
    from repro.algebra.compile import compile_query
    from repro.algebra.execute import execute_plan
    engine = figure2_store._engine
    plan = compile_query(engine.translate(Q5), figure2_store.schema)
    result = benchmark(execute_plan, plan, engine.ctx)
    assert set(result) == {"status"}
