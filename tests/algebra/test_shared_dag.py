"""Shared-work DAG execution (the P7 factoring), pinned by counters.

The optimizer's common-prefix factoring merges structurally identical
union-branch prefixes of the ``structural=False`` union-of-plans into
:class:`SharedOp` nodes; execution then
computes each shared stream once per run and replays it to the other
consumers.  These tests pin that behaviour the repo's usual way —
deterministic operation counts and plan shapes, never timings:

* sharing fires (``algebra.subplan_hits``/``misses``/``rows_saved``),
* branch pruning fires (``algebra.branches_pruned``) and skips the
  store entirely on an impossible ``contains``,
* factored and unfactored plans return identical results,
* ``explain_analyze`` renders a shared node once (later references are
  ``(ref)`` stubs) and ``plan_size`` counts DAG nodes once,
* ``execute_plan`` deduplicates unhashable head values by equality
  scan instead of raising.
"""

import pytest

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.corpus.generator import generate_corpus
from repro.o2sql import QueryEngine
from repro.observe import MetricsRegistry
from repro.oodb import INTEGER, STRING, schema_from_classes, tuple_of
from repro.oodb.instance import Instance
from repro.oodb.values import TupleValue
from repro.calculus.terms import Const, DataVar
from repro.algebra.execute import (
    count_shared,
    count_unions,
    execute_plan,
    plan_size,
)
from repro.algebra.operators import (
    BindOp,
    ProjectOp,
    SeedOp,
    SharedOp,
    UnionOp,
)
from repro.algebra.optimizer import (
    factor_shared_prefixes,
    optimize,
    sink_selections,
)
from tests.algebra.test_operator_protocol import tree_size


def wide_database(width: int) -> Instance:
    """The bench_p5 wide schema: a root tuple with ``width`` parts,
    each carrying ``v`` — one union branch per part, all branches
    sharing the root scan."""
    fields = [(f"part{i}", tuple_of((f"pad{i}", INTEGER), ("v", STRING)))
              for i in range(width)]
    schema = schema_from_classes({}, roots={"Root": tuple_of(*fields)})
    instance = Instance(schema)
    instance.set_root("Root", TupleValue(
        [(f"part{i}", TupleValue([(f"pad{i}", i), ("v", f"value-{i}")]))
         for i in range(width)]))
    return instance


def build_corpus_store(size=10, seed=42) -> DocumentStore:
    store = DocumentStore(ARTICLE_DTD, backend="algebra", structural=False)
    for tree in generate_corpus(size, seed=seed):
        store.load_tree(tree, validate=False)
    return store


class TestSharingCounters:
    """The factoring's work-saving claim, made falsifiable."""

    @pytest.mark.parametrize("width", [4, 9, 17])
    def test_shared_prefix_computed_once(self, width):
        engine = QueryEngine(wide_database(width), backend="algebra",
                             structural=False)
        registry = MetricsRegistry()
        engine.ctx.metrics = registry
        result = engine.run("select x from Root PATH_p.v(x)")
        assert len(result) == width
        # every branch shares the one bottom scan: the first branch
        # computes it, the other width-1 replay it
        assert registry.get("algebra.subplan_misses") == 1
        assert registry.get("algebra.subplan_hits") == width - 1
        assert registry.get("algebra.rows_saved") == width - 1
        # the fan-out itself is unchanged — sharing removes work, not
        # branches
        assert registry.get("algebra.union_fanout") == width

    def test_sharing_does_not_leak_across_runs(self):
        engine = QueryEngine(wide_database(5), backend="algebra",
                             structural=False)
        registry = MetricsRegistry()
        engine.ctx.metrics = registry
        first = engine.run("select x from Root PATH_p.v(x)")
        second = engine.run("select x from Root PATH_p.v(x)")
        assert first == second
        # each run recomputes the shared stream exactly once: the memo
        # is per execution, never per plan
        assert registry.get("algebra.subplan_misses") == 2
        assert registry.get("algebra.subplan_hits") == 2 * 4


class TestBranchPruning:
    """An empty index candidate set short-circuits whole branches."""

    @pytest.fixture(scope="class")
    def indexed_store(self):
        store = build_corpus_store()
        store.build_text_index()
        return store

    def test_impossible_contains_prunes_every_branch(self, indexed_store):
        indexed_store.enable_metrics()
        indexed_store.reset_metrics()
        result = indexed_store.query(
            'select t from a in Articles, a PATH_p.title(t) '
            'where a contains ("xyzzynotthere")')
        counters = indexed_store.metrics()["counters"]
        assert len(result) == 0
        # the cost stage removes 13 of the 14 gated branches statically
        # (posting-size zero proof); the one kept branch — a union can
        # never be empty — is pruned by its runtime probe
        assert counters["algebra.branches_pruned_static"] == 13
        assert counters["algebra.branches_pruned"] == 1
        # pruning means the store is never touched: no rechecks, no
        # per-row prunes, no shared-subplan activity at all
        assert "algebra.contains_rechecks" not in counters
        assert "algebra.index_pruned" not in counters
        assert "algebra.subplan_misses" not in counters

    def test_satisfiable_contains_prunes_nothing(self, indexed_store):
        indexed_store.enable_metrics()
        indexed_store.reset_metrics()
        result = indexed_store.query(
            'select t from a in Articles, a PATH_p.title(t) '
            'where a contains ("SGML")')
        counters = indexed_store.metrics()["counters"]
        assert len(result) > 0
        assert "algebra.branches_pruned" not in counters

    def test_pruned_query_agrees_with_unindexed_store(self):
        plain = build_corpus_store()
        indexed = build_corpus_store()
        indexed.build_text_index()
        query = ('select t from a in Articles, a PATH_p.title(t) '
                 'where a contains ("xyzzynotthere")')
        assert indexed.query(query) == plain.query(query)


class TestFactoredPlanShape:
    """Factoring shrinks the DAG; introspection counts nodes once."""

    @pytest.fixture(scope="class")
    def plans(self):
        store = DocumentStore(ARTICLE_DTD, backend="algebra",
                              structural=False)
        store.load_text(SAMPLE_ARTICLE, name="my_article")
        engine = store._engine
        from repro.o2sql.parser import parse
        from repro.o2sql.translate import to_calculus
        from repro.algebra.compile import compile_query
        query = to_calculus(parse("select t from my_article PATH_p.title(t)"),
                            engine.instance.schema.roots.keys())
        plan = compile_query(query, engine.instance.schema,
                             path_semantics="restricted", structural=False)
        return (store, sink_selections(plan),
                optimize(plan, structural=False))

    def test_factoring_shrinks_the_plan(self, plans):
        _, unfactored, factored = plans
        assert count_shared(unfactored) == 0
        assert count_shared(factored) > 0
        # the pushdown fires nowhere: the compiler's trie sharing
        # survives it, and factoring still runs fewer operators than
        # that plan expanded as a tree
        assert (plan_size(unfactored), plan_size(factored)) == (85, 96)
        assert plan_size(factored) < tree_size(unfactored)
        # the union fan-out is untouched
        assert count_unions(factored) == count_unions(unfactored) == 1

    def test_results_are_identical(self, plans):
        store, unfactored, factored = plans
        ctx = store._engine.ctx.fork()
        assert execute_plan(factored, ctx) == execute_plan(unfactored, ctx)

    def test_factoring_is_a_noop_on_chains(self):
        # Q1-shaped plans have no union and no duplicated subtree: the
        # factoring must return the plan unchanged, node for node
        store = DocumentStore(ARTICLE_DTD, backend="algebra")
        store.load_text(SAMPLE_ARTICLE, name="my_article")
        report = store.explain_analyze(
            "select s.title from a in Articles, s in a.sections")
        assert count_shared(report.plan) == 0

    def test_shared_nodes_render_once_with_ref_count(self, plans):
        store, _, _ = plans
        report = store.explain_analyze(
            "select t from my_article PATH_p.title(t)")
        shared_nodes = [node for node in report.operators()
                        if node["operator"] == "SharedOp"]
        expanded = [node for node in shared_nodes
                    if not node["label"].endswith("(ref)")]
        stubs = [node for node in shared_nodes
                 if node["label"].endswith("(ref)")]
        total = count_shared(report.plan)
        assert total > 0
        # each shared node is expanded exactly once...
        assert len(expanded) == total
        # ...and every further reference is a childless stub
        assert stubs, "expected at least one (ref) stub in the tree"

        def stub_children(tree):
            if tree.get("ref"):
                assert tree["children"] == []
            for child in tree["children"]:
                stub_children(child)

        stub_children(report.tree)
        # the rendering advertises the consumer count
        rendered = str(report)
        assert "×" in rendered and "Shared[1]" in rendered

    def test_plan_size_counts_shared_nodes_once(self, plans):
        _, _, factored = plans
        # walking the DAG as a tree would multiply the shared chains;
        # plan_size must agree with the number of distinct nodes
        distinct = set()

        def collect(node):
            if id(node) in distinct:
                return
            distinct.add(id(node))
            for child in node.children():
                collect(child)

        collect(factored)
        assert plan_size(factored) == len(distinct)


class TestFactoringRewrite:
    """Unit-level properties of factor_shared_prefixes."""

    def test_duplicate_union_branches_merge(self):
        # clones of the same compiled fragment share their term objects
        # (as the pushdown's with_children and the compiler's trie do)
        x = DataVar("x")
        seed = SeedOp()
        one = Const(1)
        left = BindOp(seed, x, one)
        right = BindOp(seed, x, one)
        plan = ProjectOp(UnionOp([left, right]), [x])
        factored = factor_shared_prefixes(plan)
        union = factored.child
        assert isinstance(union, UnionOp)
        first, second = union.branches
        assert first is second
        assert isinstance(first, SharedOp)
        assert first.ref_count == 2

    def test_distinct_constants_do_not_merge(self):
        x = DataVar("x")
        seed = SeedOp()
        plan = ProjectOp(UnionOp([BindOp(seed, x, Const(1)),
                                  BindOp(seed, x, Const(2))]), [x])
        factored = factor_shared_prefixes(plan)
        assert count_shared(factored) == 0

    def test_seed_is_never_wrapped(self):
        x = DataVar("x")
        y = DataVar("y")
        seed = SeedOp()
        plan = ProjectOp(UnionOp([BindOp(seed, x, Const(1)),
                                  BindOp(seed, y, Const(2))]), [x])
        factored = factor_shared_prefixes(plan)
        assert count_shared(factored) == 0

    def test_shared_batch_without_memo(self):
        # a SharedOp executed outside execute_plan (no ctx.shared_memo)
        # hands out its child's batch directly
        x = DataVar("x")
        shared = SharedOp(BindOp(SeedOp(), x, Const(7)), ref_count=2,
                          shared_id=1)
        instance = Instance(schema_from_classes({}, roots={}))
        from repro.calculus.evaluator import EvalContext
        ctx = EvalContext(instance)
        batch = shared.batch(ctx)
        assert (batch.size, batch.column(x)) == (1, [7])
        assert ctx.shared_memo is None


class TestUnhashableDedup:
    """execute_plan must not raise on unhashable head values."""

    def _ctx(self):
        from repro.calculus.evaluator import EvalContext
        return EvalContext(Instance(schema_from_classes({}, roots={})))

    def test_unhashable_value_is_returned(self):
        x = DataVar("x")
        plan = ProjectOp(BindOp(SeedOp(), x, Const(["raw", "list"])), [x])
        result = execute_plan(plan, self._ctx())
        assert list(result) == [["raw", "list"]]

    def test_unhashable_duplicates_are_deduplicated(self):
        x = DataVar("x")
        seed = SeedOp()
        plan = ProjectOp(UnionOp([BindOp(seed, x, Const(["dup"])),
                                  BindOp(seed, x, Const(["dup"])),
                                  BindOp(seed, x, Const(["other"]))]), [x])
        result = execute_plan(plan, self._ctx())
        assert list(result) == [["dup"], ["other"]]

    def test_mixed_hashable_and_unhashable(self):
        x = DataVar("x")
        seed = SeedOp()
        plan = ProjectOp(UnionOp([BindOp(seed, x, Const("plain")),
                                  BindOp(seed, x, Const(["raw"])),
                                  BindOp(seed, x, Const("plain"))]), [x])
        result = execute_plan(plan, self._ctx())
        assert list(result) == ["plain", ["raw"]]
