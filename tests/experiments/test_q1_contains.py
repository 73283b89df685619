"""Q1 — the Section-4.1 contains query, checked against a manual scan
of the section titles, under both backends and at 60 articles."""

import pytest

from repro.algebra.compile import compile_query
from repro.algebra.execute import execute_plan
from tests.experiments.conftest import build_corpus_store

Q1 = """
    select tuple (t: a.title, f_author: first(a.authors))
    from a in Articles, s in a.sections
    where s.title contains ("SGML" and "OODBMS")
"""


@pytest.fixture(scope="module")
def store():
    return build_corpus_store(20)


def manual_titles(store):
    """Titles of the articles with a section title holding both words."""
    titles = set()
    for article_oid in store.instance.root("Articles"):
        article = store.instance.deref(article_oid)
        for section_oid in article.get("sections"):
            section = store.instance.deref(section_oid)
            words = store.text(section.marked_value.get("title")).split()
            if "SGML" in words and "OODBMS" in words:
                titles.add(article.get("title"))
    return titles


def test_q1_calculus(store):
    result = store.query(Q1)
    assert result
    assert {row.get("t") for row in result} == manual_titles(store)


def test_q1_algebra(store):
    plan = compile_query(store._engine.translate(Q1), store.schema)
    assert execute_plan(plan, store._engine.ctx) == store.query(Q1)


def test_q1_corpus_scaling():
    big = build_corpus_store(60)
    assert {row.get("t") for row in big.query(Q1)} == manual_titles(big)
