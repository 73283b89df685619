"""Differential testing of the plan cache.

For randomized corpora and a pool of paper-style queries, a query must
return the *same* result whether its plan was

* freshly compiled (cold — cache cleared first),
* served from the cache (warm — second run), or
* executed through a :class:`~repro.cache.prepared.PreparedQuery`.

Any divergence would mean the cache key is too coarse (two different
queries sharing an entry) or invalidation is broken (a stale plan
surviving a mutation).  A small sweep runs by default; the full sweep
is marked ``bench``.
"""

import pytest

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD
from repro.corpus.generator import generate_corpus

QUERY_POOL = [
    "select a.title from a in Articles",
    """select tuple (t: a.title, f_author: first(a.authors))
       from a in Articles, s in a.sections
       where s.title contains ("SGML" and "OODBMS")""",
    """select ss from a in Articles, s in a.sections,
       ss in s.subsectns where ss contains ("complex object")""",
    "select t from doc0 PATH_p.title(t)",
    "doc0 PATH_p - doc1 PATH_p",
    """select name(ATT_a) from doc0 PATH_p.ATT_a(val)
       where val contains ("final")""",
    """select s.title from a in Articles, s in a.sections
       where s.title contains ("the" or "of")""",
]


def build_random_store(backend, seed, size=4, with_index=False):
    store = DocumentStore(ARTICLE_DTD, backend=backend)
    for i, tree in enumerate(generate_corpus(size, seed=seed)):
        store.load_tree(tree, name=f"doc{i}", validate=False)
    if with_index:
        store.build_text_index()
    return store


def run_three_ways(store, query):
    store.plan_cache.clear()
    cold = store.query(query)       # compiled fresh
    warm = store.query(query)       # served from cache
    prepared = store.prepare(query).run()
    return cold, warm, prepared


def sweep(seeds, backends, with_index):
    for backend in backends:
        for seed in seeds:
            store = build_random_store(
                backend, seed, with_index=with_index)
            for query in QUERY_POOL:
                cold, warm, prepared = run_three_ways(store, query)
                context = (backend, seed, query)
                assert cold == warm, context
                assert cold == prepared, context


class TestSmallSweep:
    @pytest.mark.parametrize("backend", ["calculus", "algebra"])
    def test_cold_warm_prepared_agree(self, backend):
        sweep(seeds=[7, 42], backends=[backend], with_index=False)

    def test_agreement_with_text_index(self):
        # index-backed plans (probing contains selects) must not
        # diverge from scans when served from the cache
        sweep(seeds=[42], backends=["algebra"], with_index=True)

    def test_backends_agree_through_the_cache(self):
        calculus = build_random_store("calculus", seed=42)
        algebra = build_random_store("algebra", seed=42)
        for query in QUERY_POOL:
            c = run_three_ways(calculus, query)
            a = run_three_ways(algebra, query)
            assert c[0] == a[0], query
            assert c[1] == a[1] and c[2] == a[2], query

    def test_agreement_survives_interleaved_edits(self):
        store = build_random_store("algebra", seed=11, with_index=True)
        title = next(iter(store.query(
            "select s.title from a in Articles, s in a.sections")))
        for round_no in range(3):
            store.update_text(title, f"Edited Round {round_no}")
            for query in QUERY_POOL:
                cold, warm, prepared = run_three_ways(store, query)
                assert cold == warm == prepared, (round_no, query)


@pytest.mark.bench
class TestFullSweep:
    @pytest.mark.parametrize("backend", ["calculus", "algebra"])
    @pytest.mark.parametrize("seed", [1, 7, 13, 42, 99])
    def test_large_randomized_sweep(self, backend, seed):
        sweep(seeds=[seed], backends=[backend], with_index=True)
        store = build_random_store(backend, seed, size=8,
                                   with_index=True)
        for query in QUERY_POOL:
            cold, warm, prepared = run_three_ways(store, query)
            assert cold == warm == prepared, (backend, seed, query)
