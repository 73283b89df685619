"""Counter-based regressions for the structural compilation (P9).

The claim under test: with ``structural=True`` (the default), the Q3/Q5
path-variable plans actually *use* the index
(``structindex.range_scans > 0``) and are strictly smaller than the
``structural=False`` union-of-plans — the compiler builds no fan-out at
all, only the plan the store serves.  No timing assertions; the work
itself is pinned, mirroring the P1/P5 counter-test idiom.
"""

import pytest

from repro import DocumentStore
from repro.algebra import (
    IntervalJoinOp,
    StructuralAttrScanOp,
    StructuralScanOp,
    UnionOp,
    compile_query,
    execute_plan,
    optimize,
)
from repro.algebra.execute import plan_size
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.observe import MetricsRegistry

Q3 = "select t from my_article PATH_p.title(t)"
Q5 = ('select name(ATT_a) from my_article PATH_p.ATT_a(val) '
      'where val contains ("final")')
Q_JOIN = "select v from my_article PATH_p(v), my_old_article PATH_q(v)"


@pytest.fixture(scope="module")
def stores():
    factored = DocumentStore(ARTICLE_DTD, backend="algebra",
                             structural=False)
    structural = DocumentStore(ARTICLE_DTD, backend="algebra")
    for store in (factored, structural):
        store.load_text(SAMPLE_ARTICLE, name="my_article")
        store.load_text(SAMPLE_ARTICLE, name="my_old_article")
        store.build_text_index()
    structural.build_structural_index()
    return factored, structural


def _count_ops(plan, kind) -> int:
    seen, stack, found = set(), [plan], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, kind):
            found += 1
        stack.extend(node.children())
    return found


class TestRangeScansReplaceUnions:
    @pytest.mark.parametrize("text", [Q3, Q5])
    def test_rewrite_uses_the_index(self, stores, text):
        factored, structural = stores
        structural.reset_metrics()
        metrics = structural.enable_metrics()
        result = structural.query(text)
        assert result == factored.query(text)
        assert metrics.get("structindex.range_scans") > 0
        assert metrics.get("structindex.fallback_walks") == 0

    @pytest.mark.parametrize("text", [Q3, Q5, Q_JOIN])
    def test_structural_plan_is_strictly_smaller(self, stores, text):
        factored, structural = stores
        query = structural._engine.translate(text)
        factored_size = plan_size(optimize(
            compile_query(query, structural.schema, structural=False),
            structural=False))
        structural_size = plan_size(optimize(
            compile_query(query, structural.schema)))
        assert structural_size < factored_size

    @pytest.mark.parametrize("text", [Q3, Q5])
    def test_structural_plan_contains_a_scan(self, stores, text):
        _, structural = stores
        plan = structural._engine.artifacts(text).plan
        assert _count_ops(plan, StructuralScanOp) > 0

    @pytest.mark.parametrize("text", [Q3, Q5])
    def test_selection_after_scan_fuses(self, stores, text):
        # the attribute step following the path variable never runs as
        # a separate operator: the scan serves it from the AttrStep
        # slice (fixed name for Q3, per-row bound ATT variable for Q5)
        _, structural = stores
        plan = structural._engine.artifacts(text).plan
        assert _count_ops(plan, StructuralAttrScanOp) == 1


class TestIntervalJoin:
    def test_bound_path_atom_fuses_into_interval_join(self, stores):
        factored, structural = stores
        plan = structural._engine.artifacts(Q_JOIN).plan
        assert _count_ops(plan, IntervalJoinOp) == 1
        structural.reset_metrics()
        metrics = structural.enable_metrics()
        result = structural.query(Q_JOIN)
        assert result == factored.query(Q_JOIN)
        assert metrics.get("structindex.interval_probes") > 0


class TestFallbackWithoutIndex:
    def test_scan_plan_is_correct_with_no_index_installed(self, stores):
        factored, _ = stores
        engine = factored._engine
        assert engine.ctx.struct_index is None
        metrics = MetricsRegistry()
        for text in (Q3, Q5, Q_JOIN):
            plan = optimize(
                compile_query(engine.translate(text), factored.schema,
                              path_semantics="restricted"))
            fork = engine.ctx.fork()
            fork.metrics = metrics
            assert execute_plan(plan, fork) == factored.query(text)
        # no index ⇒ the operators never report index activity
        assert metrics.get("structindex.range_scans") == 0
        assert metrics.get("structindex.interval_probes") == 0


class TestCacheKeySeparation:
    def test_structural_and_factored_plans_never_share_a_cache_slot(
            self, stores):
        factored, structural = stores
        assert factored._engine.cache_key(Q3) \
            != structural._engine.cache_key(Q3)


class TestOneStrategyPerCompile:
    """The compiler builds the plan it is asked for and nothing else."""

    #: ``plan_size`` of the raw compilation: default, then
    #: ``structural=False``.
    SIZES = {Q3: (5, 85), Q5: (7, 893)}

    @pytest.mark.parametrize("text", [Q3, Q5], ids=["Q3", "Q5"])
    def test_compiled_sizes(self, stores, text):
        _, structural = stores
        query = structural._engine.translate(text)
        assert (plan_size(compile_query(query, structural.schema)),
                plan_size(compile_query(query, structural.schema,
                                        structural=False))) \
            == self.SIZES[text]

    def test_default_q5_compiles_no_union(self, stores):
        _, structural = stores
        plan = compile_query(structural._engine.translate(Q5),
                             structural.schema)
        assert _count_ops(plan, UnionOp) == 0

    @pytest.mark.parametrize("structural", [True, False])
    def test_candidate_types_are_listed_once(self, stores, structural):
        store, _ = stores
        plan = compile_query(store._engine.translate(Q5), store.schema,
                             structural=structural)
        assert plan.var_types
        for types in plan.var_types.values():
            assert all(tp not in types[:position]
                       for position, tp in enumerate(types))

    def test_a_calculus_store_keeps_no_structural_index(self):
        store = DocumentStore(ARTICLE_DTD, backend="calculus")
        assert store._engine.structural
        assert store.struct_index is None
        assert store._engine.ctx.struct_index is None
