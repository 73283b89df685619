"""Experiment Q3 — path variables: all titles in my_article.

    select t from my_article PATH_p.title(t)

Compared against a hand-written traversal to validate the result, and
measured for both the `..` sugar and the explicit form.
"""

Q3 = "select t from my_article PATH_p.title(t)"
Q3_SUGAR = "select t from my_article .. .title(t)"


def manual_titles(store):
    """Hand-coded traversal collecting every title object."""
    titles = set()
    article = store.instance.deref(store.instance.root("my_article"))
    titles.add(article.get("title"))
    for section_oid in article.get("sections"):
        section = store.instance.deref(section_oid)
        payload = section.marked_value
        titles.add(payload.get("title"))
        if payload.has_attribute("subsectns"):
            for sub_oid in payload.get("subsectns"):
                titles.add(
                    store.instance.deref(sub_oid).get("title"))
    return titles


def test_bench_q3(benchmark, figure2_store, capsys):
    result = benchmark(figure2_store.query, Q3)
    assert set(result) == manual_titles(figure2_store)
    with capsys.disabled():
        texts = sorted(figure2_store.text(t) for t in result)
        print(f"\n[Q3] titles found in my_article: {texts}")


def test_bench_q3_sugar(benchmark, figure2_store):
    result = benchmark(figure2_store.query, Q3_SUGAR)
    assert set(result) == manual_titles(figure2_store)


def test_bench_q3_with_paths_returned(benchmark, figure2_store):
    result = benchmark(
        figure2_store.query,
        "select PATH_p, t from my_article PATH_p.title(t)")
    assert len(result) >= 3


def test_bench_q3_algebra(benchmark, figure2_store):
    from repro.algebra.compile import compile_query
    from repro.algebra.execute import execute_plan
    engine = figure2_store._engine
    plan = compile_query(engine.translate(Q3), figure2_store.schema,
                         structural=False)
    result = benchmark(execute_plan, plan, engine.ctx)
    assert set(result) == manual_titles(figure2_store)
