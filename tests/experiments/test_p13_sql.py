"""P13 — the relational backend: Q1–Q6 through the SQL hybrid answer
exactly what the structural plan answers, each through at least one
SQL feed, over a shred built from the live store."""

import types

import pytest

from repro.algebra.compile import compile_query
from repro.algebra.execute import execute_plan
from repro.algebra.optimizer import optimize
from repro.corpus import SAMPLE_ARTICLE
from repro.corpus.letters import build_letters_database
from repro.o2sql import QueryEngine
from repro.sqlbackend.backend import SQLBackend
from tests.experiments.conftest import build_corpus_store

ARTICLE_QUERIES = {
    "q1_contains": """
        select tuple (t: a.title, f_author: first(a.authors))
        from a in Articles, s in a.sections
        where s.title contains ("SGML" and "OODBMS")
    """,
    "q2_union": """
        select ss
        from a in Articles, s in a.sections, ss in s.subsectns
        where ss contains ("complex object")
    """,
    "q3_paths": "select t from my_article PATH_p.title(t)",
    "q4_diff": "my_article PATH_p - my_old_article PATH_p",
    "q5_attvars": """
        select name(ATT_a)
        from my_article PATH_p.ATT_a(val)
        where val contains ("final")
    """,
}

Q6_LETTERS = """
    select letter
    from letter in Letters, letter[i].from, letter[j].to
    where i < j
"""


@pytest.fixture(scope="module")
def store():
    store = build_corpus_store(20, backend="algebra")
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    store.load_text(SAMPLE_ARTICLE, name="my_old_article")
    store.build_text_index()
    store.build_structural_index()
    return store


@pytest.fixture(scope="module")
def backend(store):
    backend = SQLBackend(store.instance, epoch_source=store.plan_cache)
    backend.shred.refresh()
    return backend


def run_both(engine, schema, backend, text):
    """(structural plan's answer, hybrid's answer, SQL feeds)."""
    query = engine.translate(text)
    structural = optimize(
        compile_query(query, schema, path_semantics="restricted"),
        verify="raise", query=query)
    hybrid = backend.compile(structural)
    return (execute_plan(structural, engine.ctx.fork()),
            backend.execute(hybrid, engine.ctx.fork()),
            len(hybrid.programs))


def test_p13_shred_build(store):
    backend = SQLBackend(store.instance, epoch_source=store.plan_cache)
    assert backend.shred.refresh() > 0
    nodes = backend.shred.execute("SELECT COUNT(*) FROM node", {})[1][0][0]
    assert nodes > 0


@pytest.mark.parametrize("name", sorted(ARTICLE_QUERIES))
def test_p13_article_queries(store, backend, name):
    expected, result, feeds = run_both(
        store._engine, store.schema, backend, ARTICLE_QUERIES[name])
    assert result == expected
    assert feeds >= 1


def test_p13_q6_letters():
    engine = QueryEngine(build_letters_database())
    backend = SQLBackend(engine.instance,
                         epoch_source=types.SimpleNamespace(epoch=0))
    expected, result, feeds = run_both(
        engine, engine.instance.schema, backend, Q6_LETTERS)
    assert result == expected
    assert len(result) == 3
    assert feeds >= 1
