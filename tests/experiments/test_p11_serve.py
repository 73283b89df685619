"""P11 — the serving layer under mixed read/update traffic: client
threads drive the paper's query mix through :class:`QueryServer` at
1, 4 and 16 pool workers, with and without request collapsing, and
beside a concurrent writer.  Every request completes without error,
served answers equal direct ones, and the server's ledger balances:
``flights + collapsed == submitted``, one execution per flight."""

import random
import threading

import pytest

from repro import DocumentStore, QueryServer
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.corpus.generator import generate_corpus

CLIENTS = 8
REQUESTS = 10

QUERY_MIX = [
    "select t from my_article PATH_p.title(t)",
    "select ss from a in Articles, s in a.sections, ss in s.subsectns",
    """select s.title from a in Articles, s in a.sections
       where s.title contains ("SGML")""",
    "select a.title from a in Articles",
    """select name(ATT_a) from my_article PATH_p.ATT_a(val)
       where val contains ("final")""",
]


def build_store() -> DocumentStore:
    store = DocumentStore(ARTICLE_DTD, backend="algebra")
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    for tree in generate_corpus(10, seed=42):
        store.load_tree(tree, validate=False)
    store.build_text_index()
    store.build_structural_index()
    return store


def drive(server, hot_fraction, seed=11):
    """``CLIENTS`` threads each submit ``REQUESTS`` queries — the first
    of the mix with probability ``hot_fraction``, else any of it.
    Returns the (text, served result) pairs and the errors raised."""
    served, errors = [], []

    def client(number):
        rng = random.Random(seed + number)
        for _ in range(REQUESTS):
            text = (QUERY_MIX[0] if rng.random() < hot_fraction
                    else rng.choice(QUERY_MIX))
            try:
                served.append((text, server.query("bench", text,
                                                  timeout=120)))
            except Exception as error:  # recorded, asserted empty
                errors.append(error)

    threads = [threading.Thread(target=client, args=(n,))
               for n in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not any(thread.is_alive() for thread in threads)
    return served, errors


def ledger(server):
    counters = server.metrics.snapshot()["counters"]
    return {name: counters.get(f"serve.{name}", 0)
            for name in ("submitted", "flights", "collapsed", "executed")}


def serve(workers, hot_fraction, collapse=True):
    store = build_store()
    expected = {text: store.query(text) for text in QUERY_MIX}
    with QueryServer(workers=workers, collapse=collapse) as server:
        server.add_tenant("bench", store)
        served, errors = drive(server, hot_fraction)
        counts = ledger(server)
    assert errors == []
    assert len(served) == counts["submitted"] == CLIENTS * REQUESTS
    for text, result in served:
        assert result.value == expected[text], text
    assert counts["flights"] + counts["collapsed"] == counts["submitted"]
    assert counts["executed"] == counts["flights"]
    return counts


@pytest.mark.parametrize("workers", [1, 4, 16])
def test_p11_worker_scaling(workers):
    serve(workers, hot_fraction=0.5)


def test_p11_collapse_reduces_executions():
    # a 90%-duplicate workload: without collapsing every submission
    # executes; with it, no more than that ever do
    off = serve(8, hot_fraction=0.9, collapse=False)
    assert off["collapsed"] == 0
    assert off["executed"] == off["submitted"]
    on = serve(8, hot_fraction=0.9)
    assert on["executed"] <= off["executed"]


def test_p11_writer_interference():
    store = build_store()
    title = max(store.query("select s.title from a in Articles, "
                            "s in a.sections"),
                key=lambda oid: oid.number)
    edits = 20
    with QueryServer(workers=8) as server:
        server.add_tenant("bench", store)
        epoch = store.epoch

        def writer():
            for n in range(edits):
                server.update_text("bench", title,
                                   f"Traffic Edit {n} Heading")

        thread = threading.Thread(target=writer)
        thread.start()
        served, errors = drive(server, hot_fraction=0.3)
        thread.join(timeout=300)
        assert not thread.is_alive()
        counts = ledger(server)
    assert errors == []
    assert len(served) == counts["submitted"] == CLIENTS * REQUESTS
    assert store.epoch == epoch + edits
    assert all(epoch <= result.epoch <= store.epoch
               for _, result in served)
