"""P1 — ``contains`` through the positional inverted index vs a naive
scan of every object's reconstructed text (Section 4.1), across
corpus sizes: the probe plus an exact re-check of its candidates finds
exactly what the scan finds."""

import pytest

from repro.algebra.compile import compile_query
from repro.algebra.execute import execute_plan
from repro.algebra.optimizer import optimize
from repro.text import parse_pattern_expr
from tests.experiments.conftest import CORPUS_SIZES, build_corpus_store

NEEDLE = '"SGML" and "OODBMS"'
SCAN = f"""
    select a from a in Articles
    where a contains ({NEEDLE})
"""


def manual_scan(store):
    expression = parse_pattern_expr(NEEDLE)
    return {oid for oid in store.instance.root("Articles")
            if expression.holds_on_text(store.text(oid))}


@pytest.mark.parametrize("size", CORPUS_SIZES)
def test_p1_naive_scan(size):
    store = build_corpus_store(size)
    assert set(store.query(SCAN)) == manual_scan(store)


@pytest.mark.parametrize("size", CORPUS_SIZES)
def test_p1_index_probe(size):
    store = build_corpus_store(size)
    scan = set(store.query(SCAN))
    store.build_text_index()
    expression = parse_pattern_expr(NEEDLE)
    candidates, _ = store.text_index.probe(expression)
    articles = set(store.instance.root("Articles"))
    assert {oid for oid in candidates & articles
            if expression.holds_on_text(store.text(oid))} == scan


def test_p1_index_construction():
    store = build_corpus_store(20)
    index = store.build_text_index()
    assert index.document_count > 0
    assert store.text_index is index


def test_p1_algebra_with_index():
    # the served plan reads the index; the compiled one scans
    store = build_corpus_store(60)
    store.build_text_index()
    engine = store._engine
    query = engine.translate(SCAN)
    optimized = optimize(compile_query(query, store.schema))
    assert execute_plan(optimized, engine.ctx) == execute_plan(
        compile_query(query, store.schema), engine.ctx)
