"""Q5 — attribute variables: a schema-free grep inside the database,
on Figure 2 and over the 20-article corpus."""

from repro.algebra.compile import compile_query
from repro.algebra.execute import execute_plan
from tests.experiments.conftest import build_corpus_store

Q5 = """
    select name(ATT_a)
    from my_article PATH_p.ATT_a(val)
    where val contains ("final")
"""


def test_q5(figure2_store):
    assert set(figure2_store.query(Q5)) == {"status"}


def test_q5_content_word(figure2_store):
    result = figure2_store.query("""
        select name(ATT_a)
        from my_article PATH_p.ATT_a(val)
        where val contains ("SGML")
    """)
    assert "text" in set(result)


def test_q5_whole_corpus():
    store = build_corpus_store(20)
    query = """
        select name(ATT_a)
        from a in Articles, a PATH_p.ATT_a(val)
        where val contains ("calculus")
    """
    result = store.query(query)
    assert "text" in set(result)
    plan = compile_query(store._engine.translate(query), store.schema,
                         structural=False)
    assert execute_plan(plan, store._engine.ctx) == result


def test_q5_algebra(figure2_store):
    engine = figure2_store._engine
    plan = compile_query(engine.translate(Q5), figure2_store.schema,
                         structural=False)
    assert set(execute_plan(plan, engine.ctx)) == {"status"}
