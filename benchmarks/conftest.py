"""Shared fixtures for the benchmark harness.

Corpora are built once per session; every benchmark then measures only
the operation under study.  Sizes are chosen so the full harness runs in
well under a minute while still showing the scaling trends recorded in
EXPERIMENTS.md.
"""

import pytest

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.corpus.generator import generate_corpus
from repro.sgml.writer import write_document


CORPUS_SIZES = (5, 20, 60)


def pytest_collection_modifyitems(items):
    """Everything under benchmarks/ carries the ``bench`` marker, so
    ``pytest -m "not bench"`` gives a fast inner loop while the default
    invocation still runs the whole harness.

    The hook sees the whole session's items (it runs in every conftest),
    so mark only the ones collected from this directory.
    """
    import os
    here = os.path.dirname(os.path.abspath(__file__))
    for item in items:
        if str(item.fspath).startswith(here + os.sep):
            item.add_marker(pytest.mark.bench)


def pytest_sessionfinish(session, exitstatus):
    """Emit one ``BENCH_P<n>.json`` per experiment after a benchmark
    run — name, median, rounds/iterations, and corpus sizes — so CI can
    archive machine-readable results next to the rendered table."""
    import json
    import os
    import re

    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    by_tag: dict = {}
    for bench in bench_session.benchmarks:
        if bench.has_error:
            continue
        match = re.search(r"bench_(p\d+)", bench.fullname)
        tag = match.group(1).upper() if match else "MISC"
        by_tag.setdefault(tag, []).append({
            "name": bench.name,
            "median_seconds": bench.stats.median,
            "rounds": bench.stats.rounds,
            "iterations": bench.iterations,
            "params": bench.params,
            "extra_info": dict(bench.extra_info),
        })
    here = os.path.dirname(os.path.abspath(__file__))
    out_dir = os.environ.get(
        "BENCH_RESULTS_DIR",
        os.path.join(os.path.dirname(here), "bench_results"))
    os.makedirs(out_dir, exist_ok=True)
    for tag, entries in sorted(by_tag.items()):
        path = os.path.join(out_dir, f"BENCH_{tag}.json")
        payload = {
            "experiment": tag,
            "corpus_sizes": list(CORPUS_SIZES),
            "benchmarks": sorted(entries, key=lambda e: e["name"]),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"[bench] wrote {path} ({len(entries)} benchmarks)")


@pytest.fixture(scope="session")
def figure2_store():
    store = DocumentStore(ARTICLE_DTD)
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    store.load_text(SAMPLE_ARTICLE, name="my_old_article")
    return store


def build_corpus_store(size: int, seed: int = 42,
                       backend: str = "calculus",
                       structural: bool = True) -> DocumentStore:
    store = DocumentStore(ARTICLE_DTD, backend=backend,
                          structural=structural)
    for tree in generate_corpus(size, seed=seed):
        store.load_tree(tree, validate=False)
    return store


@pytest.fixture(scope="session")
def corpus_store():
    """The default mid-size corpus (20 articles)."""
    return build_corpus_store(20)


@pytest.fixture(scope="session")
def corpus_texts():
    """Raw SGML text of the mid-size corpus (for parser benchmarks)."""
    dtd_store = DocumentStore(ARTICLE_DTD)
    return [write_document(tree, dtd_store.dtd)
            for tree in generate_corpus(20, seed=42)]
