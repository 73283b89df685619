"""P12 — a union's provably empty branches are skipped at run time.

Section 5.4's union of plans is cut down by Section 4.1's index
probes: before a branch runs, :class:`~repro.algebra.operators.UnionOp`
asks its oid-only ``contains`` selects, and a branch whose probe finds
no key is skipped without touching the store
(``algebra.branches_pruned``).  No plan-time stage prunes a branch, so
the run-time count is what a plan-time prune and its run-time
remainder used to add up to.  Pinned on the P12 store (20 articles,
compiled ``structural=False`` by hand) and the P7 store (the same
corpus served ``structural=False``), with every answer equal to the
calculus."""

import pytest

from repro.algebra.compile import compile_query
from repro.algebra.execute import execute_plan
from repro.algebra.optimizer import optimize
from repro.corpus import SAMPLE_ARTICLE
from repro.observe import MetricsRegistry
from tests.experiments.conftest import build_corpus_store

IMPOSSIBLE = ('select t from a in Articles, a PATH_p.title(t) '
              'where a contains ("xyzzynotthere")')
TITLES = 'select t from a in Articles, a PATH_p.title(t) where a contains '

#: Branches skipped per text — on IMPOSSIBLE every one of the 14 title
#: branches; on a satisfiable or negated pattern none.
PRUNED = {
    IMPOSSIBLE: 14,
    TITLES + '("SGML")': 0,
    TITLES + '(not "xyzzynotthere")': 0,
    TITLES + '("SGML" and "xyzzynotthere")': 14,
    TITLES + '("SGML" or "xyzzynotthere")': 0,
    TITLES + '("xyzzynotthere" or "quixotic")': 14,
    TITLES + '("complex object")': 0,
    'select t from my_article PATH_p.title(t) '
    'where t contains ("zeugma")': 14,
    'select p from a in Articles, a PATH_p.paragr(p) '
    'where p contains ("zeugma")': 12,
    'select name(ATT_a) from my_article PATH_p.ATT_a(val) '
    'where val contains ("zeugma")': 0,
    'select v from a in Articles, a.ATT_b(v) '
    'where a contains ("xyzzynotthere")': 7,
}


def _with_sample(store):
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    return store


@pytest.fixture(scope="module")
def oracle():
    return _with_sample(build_corpus_store(20))


@pytest.fixture(scope="module")
def p12_store():
    store = _with_sample(build_corpus_store(20, backend="algebra"))
    store.build_text_index()
    store.build_structural_index()
    return store


@pytest.fixture(scope="module")
def p7_store():
    store = _with_sample(build_corpus_store(20, backend="algebra",
                                            structural=False))
    store.build_text_index()
    return store


def _unions_skipped(counters):
    assert "algebra.branches_pruned_static" not in counters
    return counters.get("algebra.branches_pruned", 0)


@pytest.mark.parametrize("text", PRUNED)
def test_p12_union_of_plans_skips_empty_branches(p12_store, oracle, text):
    query = p12_store._engine.translate(text)
    registry = MetricsRegistry()
    plan = optimize(compile_query(query, p12_store.schema,
                                  structural=False),
                    verify="raise", query=query, metrics=registry)
    ctx = p12_store._engine.ctx.fork()
    ctx.metrics = registry
    assert execute_plan(plan, ctx) == oracle.query(text)
    assert _unions_skipped(registry.snapshot()["counters"]) == PRUNED[text]


@pytest.mark.parametrize("text", PRUNED)
def test_p12_served_union_skips_empty_branches(p7_store, oracle, text):
    p7_store.enable_metrics()
    p7_store.reset_metrics()
    assert p7_store.query(text) == oracle.query(text)
    assert _unions_skipped(p7_store.metrics()["counters"]) == PRUNED[text]
