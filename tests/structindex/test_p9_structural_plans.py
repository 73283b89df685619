"""Experiment P9 — the structural plan against the union-of-plans it
replaces, pinned by plan sizes and counters (no stopwatch).

A path variable compiles either to the Section 5.4 union-of-plans
(``structural=False``, shared by the P7 factoring) or to range scans
over the pre/post structural index (the default).  Both compilations of
each query go through the full optimizer and run warm on one store
whose index is built ahead of time; they must return the same answer,
and the structural plan's saving must be index work: every path
variable served by range scans, no live-walk fallback.
"""

import pytest

from repro import DocumentStore
from repro.algebra.compile import compile_query
from repro.algebra.execute import execute_plan, plan_size
from repro.algebra.optimizer import optimize
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.corpus.generator import generate_corpus
from repro.observe import MetricsRegistry

QUERIES = {
    "path_titles": "select t from my_article PATH_p.title(t)",
    "attvar_grep": """select name(ATT_a)
                      from my_article PATH_p.ATT_a(val)
                      where val contains ("final")""",
    "deep_join": """select t from a in Articles, s in a.sections,
                                  a PATH_p.title(t)
                    where a.status = "final" """,
}

#: Operators per plan (union-of-plans, structural) and answer size on
#: the 20-article corpus (seed 42) plus the sample article.
EXPECTED = {
    "path_titles": (96, 5, 3),
    "attvar_grep": (1223, 7, 1),
    "deep_join": (99, 8, 46),
}


@pytest.fixture(scope="module")
def store():
    s = DocumentStore(ARTICLE_DTD, backend="algebra")
    for tree in generate_corpus(20, seed=42):
        s.load_tree(tree, validate=False)
    s.load_text(SAMPLE_ARTICLE, name="my_article")
    s.build_text_index()
    s.struct_index.refresh()
    return s


def both_plans(store, name):
    query = store._engine.translate(QUERIES[name])
    return (optimize(compile_query(query, store.schema, structural=False),
                     structural=False),
            optimize(compile_query(query, store.schema)))


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_p9_factored(store, name):
    factored, _ = both_plans(store, name)
    operators, _, rows = EXPECTED[name]
    assert plan_size(factored) == operators
    assert len(execute_plan(factored, store._engine.ctx)) == rows


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_p9_structural(store, name):
    factored, structural = both_plans(store, name)
    _, operators, rows = EXPECTED[name]
    assert plan_size(structural) == operators
    result = execute_plan(structural, store._engine.ctx)
    assert result == execute_plan(factored, store._engine.ctx)
    assert len(result) == rows


def test_p9_range_scans_replace_the_fan_out(store):
    ctx = store._engine.ctx
    for name in sorted(QUERIES):
        factored, structural = both_plans(store, name)
        counted = ctx.fork()
        counted.metrics = registry = MetricsRegistry()
        assert (execute_plan(structural, counted)
                == execute_plan(factored, ctx))
        assert registry.get("structindex.range_scans") > 0
        assert registry.get("structindex.fallback_walks") == 0


def test_p9_full_rebuild(store):
    """What the rewrite amortizes: a full rebuild of every block."""
    index = store.struct_index
    nodes = index.stats()["nodes"]
    index.note_data_change(epoch=store.plan_cache.epoch)
    assert index.refresh() == len(store.instance.root_names)
    assert index.stats()["nodes"] == nodes
