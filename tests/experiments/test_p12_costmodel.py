"""P12 — the cost-based stage of the optimizer: it prunes the branches
an impossible ``contains`` provably empties, keeps the survivors in
compile order, and leaves a satisfiable one's union as the factor
stage built it, without changing either answer."""

import pytest

from repro.algebra.compile import compile_query
from repro.algebra.execute import execute_plan
from repro.algebra.operators import UnionOp, walk_once
from repro.algebra.optimizer import optimize
from repro.corpus import SAMPLE_ARTICLE
from repro.observe import MetricsRegistry
from tests.experiments.conftest import build_corpus_store

IMPOSSIBLE = ('select t from a in Articles, a PATH_p.title(t) '
              'where a contains ("xyzzynotthere")')
SATISFIABLE = ('select t from a in Articles, a PATH_p.title(t) '
               'where a contains ("SGML")')


@pytest.fixture(scope="module")
def store():
    store = build_corpus_store(20, backend="algebra")
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    store.build_text_index()
    store.build_structural_index()
    return store


def plans(store, text, metrics=None):
    """(factored without the cost stage, costed) for one query."""
    query = store._engine.translate(text)
    plan = compile_query(query, store.schema, structural=False)
    factored = optimize(plan, structural=False, verify="raise",
                        query=query)
    costed = optimize(plan, structural=False, verify="raise", query=query,
                      stats=store.stats_manager.snapshot(),
                      metrics=metrics)
    ctx = store._engine.ctx
    assert execute_plan(costed, ctx.fork()) == \
        execute_plan(factored, ctx.fork())
    return factored, costed


def costed_unions(plan):
    return [node for node in walk_once(plan)
            if isinstance(node, UnionOp) and node.cost_evidence is not None]


def test_p12_pruning_ablation(store):
    metrics = MetricsRegistry()
    plans(store, IMPOSSIBLE, metrics)
    # 13 of the 14 title branches
    assert metrics.get("algebra.branches_pruned_static") == 13


def test_p12_survivors_keep_compile_order(store):
    _, costed = plans(store, IMPOSSIBLE)
    (union,) = costed_unions(costed)
    assert union.cost_evidence.order == (0,)


def test_p12_branch_order_ablation(store):
    factored, costed = plans(store, SATISFIABLE)
    # nothing to prune: no evidence, no rebuilt union, the branches in
    # the order the factor stage left them
    assert costed_unions(costed) == []
    assert costed.describe() == factored.describe()
