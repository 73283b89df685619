"""The cost stage, pinned structurally: branch ordering, provable-empty
pruning, and the estimate annotations — all
behaviour the P12 benchmark measures, asserted here without timings."""

import pytest

from repro import DocumentStore
from repro.algebra.compile import compile_query
from repro.algebra.execute import execute_plan
from repro.algebra.operators import SelectOp, UnionOp
from repro.algebra.optimizer import optimize
from repro.corpus import ARTICLE_DTD
from repro.corpus.generator import generate_corpus

IMPOSSIBLE = ('select t from a in Articles, a PATH_p.title(t) '
              'where a contains ("xyzzynotthere")')
SATISFIABLE = ('select t from a in Articles, a PATH_p.title(t) '
               'where a contains ("SGML")')
NEGATED = ('select t from a in Articles, a PATH_p.title(t) '
           'where a contains (not "xyzzynotthere")')


@pytest.fixture(scope="module")
def store():
    s = DocumentStore(ARTICLE_DTD, backend="algebra")
    for tree in generate_corpus(10, seed=42):
        s.load_tree(tree, validate=False)
    s.build_text_index()
    s.build_structural_index()
    return s


def _costed(store, text, metrics=None):
    query = store._engine.translate(text)
    plan = compile_query(query, store.schema)
    snapshot = store.stats_manager.snapshot()
    return optimize(plan, verify="raise", query=query, stats=snapshot,
                    metrics=metrics), query, snapshot


def _walk(plan):
    seen, stack, out = set(), [plan], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        stack.extend(node.children())
    return out


def _evidence_unions(plan):
    return [node for node in _walk(plan)
            if isinstance(node, UnionOp)
            and node.cost_evidence is not None]


class TestBranchOrdering:
    def test_evidence_is_a_permutation_partition(self, store):
        plan, _, _ = _costed(store, SATISFIABLE)
        unions = _evidence_unions(plan)
        assert unions
        for union in unions:
            ev = union.cost_evidence
            assert (sorted(ev.order) + sorted(ev.pruned)
                    == sorted(set(ev.order) | set(ev.pruned)))
            assert (set(ev.order) | set(ev.pruned)
                    == set(range(ev.original)))
            assert len(union.branches) == len(ev.order)

    def test_costed_result_matches_unoptimized(self, store):
        for text in (SATISFIABLE, IMPOSSIBLE, NEGATED):
            query = store._engine.translate(text)
            plan = compile_query(query, store.schema)
            costed = optimize(plan, verify="raise", query=query,
                              stats=store.stats_manager.snapshot())
            ctx = store._engine.ctx.fork()
            assert (execute_plan(costed, ctx)
                    == execute_plan(plan, store._engine.ctx.fork()))


class TestStaticPruning:
    def test_impossible_pattern_prunes_with_zero_evidence(self, store):
        plan, _, snapshot = _costed(store, IMPOSSIBLE)
        pruned = [ev for union in _evidence_unions(plan)
                  for ev in union.cost_evidence.pruned.values()]
        assert pruned
        for kind, pattern in pruned:
            assert kind == "empty_candidates"
            # the evidence stays re-checkable against the snapshot
            assert snapshot.candidate_upper_bound(pattern) == 0

    def test_union_is_never_emptied(self, store):
        plan, _, _ = _costed(store, IMPOSSIBLE)
        for node in _walk(plan):
            if isinstance(node, UnionOp):
                assert len(node.branches) >= 1

    def test_satisfiable_pattern_prunes_nothing(self, store):
        plan, _, _ = _costed(store, SATISFIABLE)
        for union in _evidence_unions(plan):
            assert union.cost_evidence.pruned == {}


class TestSelectCostRule:
    def test_contains_select_is_bounded_by_its_postings(self, store):
        plan, _, snapshot = _costed(store, SATISFIABLE)
        (select,) = [node for node in _walk(plan)
                     if isinstance(node, SelectOp)
                     and node.pattern is not None]
        assert select.oid_only
        bound = snapshot.candidate_upper_bound(select.pattern)
        assert select.est_rows == min(select.child.est_rows, bound)

    def test_unbounded_select_keeps_the_default(self, store):
        plan, _, _ = _costed(store, NEGATED)
        (select,) = [node for node in _walk(plan)
                     if isinstance(node, SelectOp)
                     and node.pattern is not None]
        assert select.est_rows == 0.5 * select.child.est_rows


class TestAnnotations:
    def test_every_node_carries_estimates(self, store):
        plan, _, _ = _costed(store, SATISFIABLE)
        for node in _walk(plan):
            assert isinstance(node.est_rows, float)
            assert isinstance(node.est_cost, float)
            assert node.est_rows >= 0.0
            assert node.est_cost > 0.0

    def test_no_stats_means_no_cost_stage(self, store):
        query = store._engine.translate(SATISFIABLE)
        plan = compile_query(query, store.schema)
        bare = optimize(plan, verify="raise", query=query)
        assert not _evidence_unions(bare)
        assert all(node.est_rows is None for node in _walk(bare))
