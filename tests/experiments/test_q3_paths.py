"""Q3 — all titles of ``my_article`` through a path variable, against
a hand-written traversal."""

from repro.algebra.compile import compile_query
from repro.algebra.execute import execute_plan

Q3 = "select t from my_article PATH_p.title(t)"
Q3_SUGAR = "select t from my_article .. .title(t)"


def manual_titles(store):
    titles = set()
    article = store.instance.deref(store.instance.root("my_article"))
    titles.add(article.get("title"))
    for section_oid in article.get("sections"):
        payload = store.instance.deref(section_oid).marked_value
        titles.add(payload.get("title"))
        if payload.has_attribute("subsectns"):
            for sub_oid in payload.get("subsectns"):
                titles.add(store.instance.deref(sub_oid).get("title"))
    return titles


def test_q3(figure2_store):
    assert set(figure2_store.query(Q3)) == manual_titles(figure2_store)


def test_q3_sugar(figure2_store):
    assert set(figure2_store.query(Q3_SUGAR)) == \
        manual_titles(figure2_store)


def test_q3_with_paths_returned(figure2_store):
    result = figure2_store.query(
        "select PATH_p, t from my_article PATH_p.title(t)")
    assert {row.get("t") for row in result} == manual_titles(figure2_store)
    assert len(result) >= 3


def test_q3_algebra(figure2_store):
    engine = figure2_store._engine
    plan = compile_query(engine.translate(Q3), figure2_store.schema,
                         structural=False)
    assert set(execute_plan(plan, engine.ctx)) == \
        manual_titles(figure2_store)
