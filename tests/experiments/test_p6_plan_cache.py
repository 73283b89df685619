"""P6 — the prepared-query plan cache, per query and backend: a cold
run compiles, a warm run and a prepared handle only look up, a batch
looks up once per distinct text, and an epoch bump costs exactly one
recompilation.  The cache counters pin each path; every path returns
what the calculus interpreter returns."""

import pytest

from repro.calculus import evaluate_query
from repro.corpus import SAMPLE_ARTICLE
from tests.experiments.conftest import build_corpus_store

QUERIES = {
    "q3_titles": "select t from my_article PATH_p.title(t)",
    "q5_grep": """select name(ATT_a)
                  from my_article PATH_p.ATT_a(val)
                  where val contains ("final")""",
    "scan_filter": """select a from a in Articles
                      where a.status = "final" """,
    "contains_join": """select s.title
                        from a in Articles, s in a.sections
                        where s.title contains ("the" or "of")""",
}


@pytest.fixture(scope="module", params=("calculus", "algebra"))
def store(request):
    store = build_corpus_store(20, backend=request.param)
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    store.build_text_index()
    store.enable_metrics()
    return store


def reference(store, text):
    return evaluate_query(store._engine.translate(text), store._engine.ctx)


def cache_counters(store):
    return {name: count
            for name, count in store.metrics()["counters"].items()
            if name.startswith("cache.") and count}


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_p6_cold(store, name):
    text = QUERIES[name]
    store.plan_cache.clear()
    store.reset_metrics()
    result = store.query(text)
    assert cache_counters(store) == {"cache.misses": 1}
    assert result == reference(store, text)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_p6_warm(store, name):
    text = QUERIES[name]
    cold = store.query(text)
    store.reset_metrics()
    assert store.query(text) == cold
    assert cache_counters(store) == {"cache.hits": 1}


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_p6_prepared(store, name):
    text = QUERIES[name]
    prepared = store.prepare(text)
    store.reset_metrics()
    assert prepared.run() == store.query(text)
    assert cache_counters(store) == {"cache.hits": 2}


def test_p6_query_many_amortizes(store):
    # 4 distinct plans, 20 submissions: 4 lookups
    batch = [text for text in QUERIES.values() for _ in range(5)]
    store.plan_cache.clear()
    store.reset_metrics()
    results = store.query_many(batch)
    assert cache_counters(store) == {"cache.misses": len(QUERIES)}
    assert results == [store.query(text) for text in batch]


def test_p6_epoch_bump_recompiles(store):
    text = QUERIES["q3_titles"]
    before = store.query(text)
    epoch = store.epoch
    store.plan_cache.bump_epoch()
    store.reset_metrics()
    assert store.query(text) == before
    assert store.epoch == epoch + 1
    assert cache_counters(store) == {"cache.invalidations": 1,
                                     "cache.misses": 1}
    assert store.stats()["plan_cache"]["epoch"] == store.epoch
