"""Shared corpora for the experiment tests.

Each module under ``tests/experiments`` checks one of the paper
artefacts or experiments listed in EXPERIMENTS.md on the
configurations it was measured on — the same queries, corpus sizes and
backends — with deterministic oracles only: results against an
independent evaluation, and work against counters, never a clock.
The wall-clock side of the same workloads is measured by
``benchmarks/e2e``.
"""

import pytest

from repro import DocumentStore
from repro.algebra.execute import execute_plan
from repro.algebra.operators import SharedOp, walk_once
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.corpus.generator import generate_corpus
from repro.observe.profile import PlanProfiler, observed
from repro.sgml.writer import write_document

CORPUS_SIZES = (5, 20, 60)


def build_corpus_store(size: int, seed: int = 42,
                       backend: str = "calculus",
                       structural: bool = True) -> DocumentStore:
    store = DocumentStore(ARTICLE_DTD, backend=backend,
                          structural=structural)
    for tree in generate_corpus(size, seed=seed):
        store.load_tree(tree, validate=False)
    return store


def rows_computed(store, plan) -> int:
    """Rows the plan's operators compute in one execution on
    ``store`` — the deterministic measure of its work.  A shared node
    hands out its child's batch, so only the child's rows count."""
    profiler = PlanProfiler()
    ctx = store._engine.ctx.fork()
    with observed(ctx, profiler=profiler):
        execute_plan(plan, ctx)
    return sum(profiler.rows_out(node) for node in walk_once(plan)
               if not isinstance(node, SharedOp))


@pytest.fixture(scope="session")
def figure2_store():
    """Figure 2 loaded twice, as two identical document versions."""
    store = DocumentStore(ARTICLE_DTD)
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    store.load_text(SAMPLE_ARTICLE, name="my_old_article")
    return store


@pytest.fixture(scope="session")
def corpus_texts():
    """Fully tagged SGML text of the 20-article corpus."""
    dtd = DocumentStore(ARTICLE_DTD).dtd
    return [write_document(tree, dtd)
            for tree in generate_corpus(20, seed=42)]
