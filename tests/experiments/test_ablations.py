"""A1–A4 — ablations of the design choices DESIGN.md calls out.

A1 — tag-omission inference: minimized documents (omitted end tags,
     the Figure-2 style) are smaller and parse to the same trees.
A2 — nested-query memoization: Q4's set difference enumerates each
     operand once; re-evaluating the right operand per left element
     gives the same answer at a multiple of the enumeration.
A3 — optimizer pushdown: sinking the selection keeps the answer and
     computes fewer rows.
A4 — union-branch order in the loader: every section generated with
     subsections lands in the a2 branch (a backtrack out of a1).
"""

import pytest

from repro import DocumentStore
from repro.algebra.compile import compile_query
from repro.algebra.execute import execute_plan
from repro.algebra.optimizer import factor_shared_prefixes, sink_selections
from repro.calculus import evaluate_query
from repro.corpus import ARTICLE_DTD
from repro.corpus.generator import generate_corpus
from repro.sgml.instance_parser import parse_document
from repro.sgml.writer import write_document
from tests.experiments.conftest import rows_computed

Q4 = "my_article PATH_p - my_old_article PATH_p"
DEEP_JOIN = """
    select t from a in Articles, s in a.sections,
                  a PATH_p.title(t)
    where a.status = "final"
"""


@pytest.fixture(scope="module")
def corpus_pair():
    """(trees, full serialisations, minimized serialisations) of 20
    articles, and the DTD."""
    dtd = DocumentStore(ARTICLE_DTD).dtd
    trees = generate_corpus(20, seed=42)
    full = [write_document(t, dtd) for t in trees]
    minimized = [write_document(t, dtd, minimize=True) for t in trees]
    return dtd, trees, full, minimized


def test_a1_parse_fully_tagged(corpus_pair):
    dtd, trees, full, _ = corpus_pair
    assert [parse_document(text, dtd) for text in full] == trees


def test_a1_parse_minimized(corpus_pair):
    # parseable only through end-tag inference
    dtd, trees, full, minimized = corpus_pair
    assert [parse_document(text, dtd) for text in minimized] == trees
    assert sum(map(len, minimized)) < sum(map(len, full))


def load_versions(store):
    trees = generate_corpus(2, seed=5, sections=10)
    store.load_tree(trees[0], name="my_article", validate=False)
    store.load_tree(trees[1], name="my_old_article", validate=False)
    store.enable_metrics()
    return store


@pytest.fixture(scope="module")
def versions_store():
    # A2 counts the interpreter's path enumerations
    return load_versions(DocumentStore(ARTICLE_DTD, backend="calculus"))


def paths_enumerated(store, thunk):
    store.reset_metrics()
    result = thunk()
    return result, store.metrics()["counters"]["calculus.paths_enumerated"]


def test_a2_q4_with_memoization(versions_store):
    store = versions_store
    left = len(store.query("my_article PATH_p"))
    right = len(store.query("my_old_article PATH_p"))
    result, enumerated = paths_enumerated(store, lambda: store.query(Q4))
    assert len(result) > 0
    # each operand is enumerated once
    assert enumerated == left + right


def test_a2_q4_uncached_simulation(versions_store):
    """Q4 with the right operand recomputed per left element — the
    behaviour without the nested-query cache — on the first 60."""
    store = versions_store
    left = list(store.query("my_article PATH_p"))[:60]
    right = len(store.query("my_old_article PATH_p"))

    def uncached_difference():
        return {path for path in left
                if path not in store.query("my_old_article PATH_p")}

    survivors, enumerated = paths_enumerated(store, uncached_difference)
    assert survivors == set(store.query(Q4)) & set(left)
    assert enumerated == len(left) * right


def test_a2_q4_memoized_in_a_compiled_plan():
    """The default store's Q4 plan hands both operands to the
    interpreter; one execution is one outermost evaluation, so the
    right operand is enumerated once there too."""
    store = load_versions(DocumentStore(ARTICLE_DTD))
    left = len(store.query("my_article PATH_p"))
    right = len(store.query("my_old_article PATH_p"))
    result, enumerated = paths_enumerated(store, lambda: store.query(Q4))
    assert store.explain_analyze(Q4).plan is not None
    assert len(result) > 0
    assert enumerated == left + right


def deep_join_plans(store):
    query = store._engine.translate(DEEP_JOIN)
    plan = compile_query(query, store.schema, structural=False)
    return (evaluate_query(query, store._engine.ctx),
            factor_shared_prefixes(plan),
            factor_shared_prefixes(sink_selections(plan)))


def test_a3_pushdown_off(versions_store):
    expected, off, _ = deep_join_plans(versions_store)
    assert execute_plan(off, versions_store._engine.ctx) == expected


def test_a3_pushdown_on(versions_store):
    expected, off, on = deep_join_plans(versions_store)
    assert execute_plan(on, versions_store._engine.ctx) == expected
    assert rows_computed(versions_store, on) < \
        rows_computed(versions_store, off)


@pytest.mark.parametrize("subsection_pct", [0, 90])
def test_a4_loader_branch_order(subsection_pct):
    trees = generate_corpus(10, seed=11,
                            subsection_probability_percent=subsection_pct)
    store = DocumentStore(ARTICLE_DTD)
    for tree in trees:
        store.load_tree(tree, validate=False)
    store.check()
    sections = store.instance.disjoint_extent("Section")
    a2 = sum(1 for oid in sections
             if store.instance.deref(oid).marker == "a2")
    with_subsections = sum(
        1 for tree in trees for section in tree.find_all("section")
        if section.first("subsectn") is not None)
    assert len(sections) == sum(
        len(tree.find_all("section")) for tree in trees)
    assert a2 == with_subsections
    assert (a2 == 0) == (subsection_pct == 0)
