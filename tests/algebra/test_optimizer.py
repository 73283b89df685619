"""Tests for the plan optimizer (index utilisation + pushdown)."""

import pytest

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD
from repro.corpus.generator import generate_corpus
from repro.algebra.compile import compile_query
from repro.algebra.execute import execute_plan
from repro.algebra.operators import SelectOp, walk_once
from repro.algebra.optimizer import (
    factor_shared_prefixes,
    optimize,
    sink_selections,
    structuralize,
)


@pytest.fixture(scope="module")
def store():
    s = DocumentStore(ARTICLE_DTD)
    for tree in generate_corpus(10, seed=7):
        s.load_tree(tree)
    s.build_text_index()
    return s


CONTAINS_QUERY = """
    select a from a in Articles
    where a contains ("SGML" and "OODBMS")
"""


def _find(plan, klass):
    found = []
    nodes = [plan]
    while nodes:
        node = nodes.pop()
        if isinstance(node, klass):
            found.append(node)
        nodes.extend(node.children())
    return found


class TestIndexBackedSelect:
    def test_contains_select_owns_the_index_probe(self, store):
        # no rewrite introduces the index: the compiled select carries
        # the pattern's probe, and every rebuild constructs its own
        query = store._engine.translate(CONTAINS_QUERY)
        plan = compile_query(query, store.schema)
        (select,) = _find(plan, SelectOp)
        assert select.pattern is not None and select.oid_only
        (optimized,) = _find(optimize(plan), SelectOp)
        assert optimized.oid_only
        assert optimized.probe is not None
        assert optimized.probe(store._engine.ctx) == \
            store.text_index.probe(select.pattern)

    def test_optimized_plan_gives_same_results(self, store):
        query = store._engine.translate(CONTAINS_QUERY)
        plan = compile_query(query, store.schema)
        baseline = execute_plan(plan, store._engine.ctx)
        optimized = optimize(plan)
        assert execute_plan(optimized, store._engine.ctx) == baseline

    def test_contains_without_index_still_correct(self, store):
        from repro.calculus import EvalContext
        query = store._engine.translate(CONTAINS_QUERY)
        plan = optimize(
            compile_query(query, store.schema))
        bare_ctx = EvalContext(store.instance,
                               provenance=store.loader.provenance)
        assert bare_ctx.text_index is None
        with_index = execute_plan(plan, store._engine.ctx)
        without_index = execute_plan(plan, bare_ctx)
        assert with_index == without_index

    def test_other_selects_have_no_probe(self, store):
        query = store._engine.translate(
            "select a from a in Articles where a.status = 'final'")
        plan = optimize(compile_query(query, store.schema))
        assert all(node.probe is None and not node.oid_only
                   for node in _find(plan, SelectOp))


class TestPushdown:
    def test_pushdown_preserves_results(self, store):
        text = """
            select t from a in Articles, s in a.sections,
                          a PATH_p.title(t)
            where a.status = "final"
        """
        query = store._engine.translate(text)
        for structural in (False, True):
            plan = compile_query(query, store.schema, structural=structural)
            pushed = sink_selections(plan)
            assert execute_plan(plan, store._engine.ctx) == \
                execute_plan(pushed, store._engine.ctx), structural

    def test_selection_moves_below_unrelated_operators(self, store):
        # the status filter depends only on `a`; after pushdown it must
        # sit below the section unnesting
        text = """
            select s from a in Articles, s in a.sections
            where a.status = "final"
        """
        query = store._engine.translate(text)
        plan = compile_query(query, store.schema)
        pushed = sink_selections(plan)

        def depth_of(node, klass, depth=0):
            if isinstance(node, klass):
                return depth
            for child in node.children():
                found = depth_of(child, klass, depth + 1)
                if found is not None:
                    return found
            return None

        original_depth = depth_of(plan, SelectOp)
        pushed_depth = depth_of(pushed, SelectOp)
        assert pushed_depth > original_depth
        assert execute_plan(plan, store._engine.ctx) == \
            execute_plan(pushed, store._engine.ctx)


DEEP_JOIN = """
    select t from a in Articles, s in a.sections, a PATH_p.title(t)
    where a.status = "final"
"""


class TestOptimizeContract:
    """``optimize`` never restructures its input; a stage that changes
    nothing returns its input, so the result shares the input's
    untouched nodes — and the cost stage's ``est_rows``/``est_cost``
    are stamped on every node of the result, those included."""

    def test_a_plan_no_rewrite_applies_to_is_served_as_compiled(
            self, store):
        query = store._engine.translate(
            "select a.title from a in Articles")
        plan = compile_query(query, store.schema)
        for stage in (structuralize, sink_selections,
                      factor_shared_prefixes):
            assert stage(plan) is plan, stage.__name__
        optimized = optimize(plan, stats=store.stats_manager.snapshot())
        assert optimized is plan
        assert all(node.est_rows is not None and node.est_cost is not None
                   for node in walk_once(plan))

    def test_the_input_is_never_restructured(self, store):
        query = store._engine.translate(DEEP_JOIN)
        plan = compile_query(query, store.schema, structural=False)
        shape = [(node, node.children()) for node in walk_once(plan)]
        rendering = plan.describe()
        optimized = optimize(plan, structural=False,
                             stats=store.stats_manager.snapshot())
        assert optimized is not plan
        assert [(node, node.children())
                for node in walk_once(plan)] == shape
        assert plan.describe() == rendering
        assert all(node.est_rows is not None and node.est_cost is not None
                   for node in walk_once(optimized))
