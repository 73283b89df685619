"""Experiment P13 — the relational backend (repro.sqlbackend).

Q1–Q6 (the paper's query set) through the structural configuration
and through the SQL hybrid over the same store, emitted to
``BENCH_SQL.json``:

* per query: warm median of the structural plan vs. the hybrid (the
  emitted statements re-execute against the live shred every run;
  the shred itself is warm), the hybrid's SQL feed count and the
  number of plan operators left running in Python;
* once: the cost of building the shred from cold — the backend's
  structural-index fold plus the projection of its blocks (the
  quantity the index's dirty-block protocol amortizes across queries).

Result equality against the structural plan is asserted for every
query.  The acceptance bar is *recorded*, not asserted: timings from
shared runners are indicative, and the experiment's claim is parity
of answers plus the same order of magnitude warm — `within_5x` in
the JSON says whether this run met it.  ``SQL_BENCH_ROUNDS`` shrinks
the run for CI smoke; ``python benchmarks/bench_p13_sql.py`` runs
standalone at tiny scale.
"""

import json
import os
import statistics
import time
import types

import pytest

from conftest import build_corpus_store
from repro.algebra.compile import compile_query
from repro.algebra.execute import execute_plan
from repro.algebra.optimizer import optimize
from repro.corpus import SAMPLE_ARTICLE
from repro.corpus.letters import build_letters_database
from repro.sqlbackend.backend import SQLBackend

ROUNDS = int(os.environ.get("SQL_BENCH_ROUNDS", "30"))
CORPUS = int(os.environ.get("SQL_BENCH_CORPUS", "20"))

ARTICLE_QUERIES = {
    "q1_contains": """
        select tuple (t: a.title, f_author: first(a.authors))
        from a in Articles, s in a.sections
        where s.title contains ("SGML" and "OODBMS")
    """,
    "q2_union": """
        select ss
        from a in Articles, s in a.sections, ss in s.subsectns
        where ss contains ("complex object")
    """,
    "q3_paths": "select t from my_article PATH_p.title(t)",
    "q4_diff": "my_article PATH_p - my_old_article PATH_p",
    "q5_attvars": """
        select name(ATT_a)
        from my_article PATH_p.ATT_a(val)
        where val contains ("final")
    """,
}

Q6_LETTERS = """
    select letter
    from letter in Letters, letter[i].from, letter[j].to
    where i < j
"""

RESULTS: dict = {"experiment": "SQL", "scenarios": {}}


def build_store(size=CORPUS):
    store = build_corpus_store(size, backend="algebra")
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    store.load_text(SAMPLE_ARTICLE, name="my_old_article")
    store.build_text_index()
    store.build_structural_index()
    return store


def _median_ms(thunk, rounds=ROUNDS) -> float:
    thunk()  # warm-up
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        thunk()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1000.0


def _python_operators(plan) -> int:
    """Plan operators the hybrid still runs in Python (feeds count as
    one each — they are the SQL boundary, not Python work)."""
    seen, stack, count = set(), [plan], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += 1
        stack.extend(node.children())
    return count


def _compare(name, engine, schema, backend, text, rounds) -> dict:
    query = engine.translate(text)
    plan = compile_query(query, schema, path_semantics="restricted")
    structural = optimize(plan, structural=True, verify="raise",
                          query=query)
    hybrid = backend.compile(structural)
    reference = execute_plan(structural, engine.ctx.fork())
    assert backend.execute(hybrid, engine.ctx.fork()) == reference
    entry = {
        "rows": len(reference),
        "sql_feeds": len(hybrid.programs),
        "hybrid_python_operators": _python_operators(hybrid.plan),
        "structural_ms": _median_ms(
            lambda: execute_plan(structural, engine.ctx.fork()),
            rounds),
        "sql_ms": _median_ms(
            lambda: backend.execute(hybrid, engine.ctx.fork()),
            rounds),
    }
    entry["sql_vs_structural"] = (entry["sql_ms"]
                                  / max(entry["structural_ms"], 1e-9))
    entry["within_5x"] = entry["sql_vs_structural"] <= 5.0
    RESULTS["scenarios"][name] = entry
    return entry


def run_article_queries(store, backend, rounds=ROUNDS) -> dict:
    engine = store._engine
    return {name: _compare(name, engine, store.schema, backend,
                           text, rounds)
            for name, text in sorted(ARTICLE_QUERIES.items())}


def run_q6_letters(rounds=ROUNDS) -> dict:
    from repro.o2sql import QueryEngine
    engine = QueryEngine(build_letters_database())
    backend = SQLBackend(engine.instance,
                         epoch_source=types.SimpleNamespace(epoch=0))
    return _compare("q6_letters", engine, engine.instance.schema,
                    backend, Q6_LETTERS, rounds)


def run_shred_build(store) -> dict:
    backend = SQLBackend(store.instance,
                         epoch_source=store.plan_cache)
    start = time.perf_counter()
    roots = backend.shred.refresh()
    build_ms = (time.perf_counter() - start) * 1000.0
    summary = {
        "roots_shredded": roots,
        "build_ms": build_ms,
        "node_rows": backend.shred.execute(
            "SELECT COUNT(*) FROM node", {})[1][0][0],
    }
    RESULTS["scenarios"]["shred_build"] = summary
    return summary


def emit() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    out_dir = os.environ.get(
        "BENCH_RESULTS_DIR",
        os.path.join(os.path.dirname(here), "bench_results"))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "BENCH_SQL.json")
    with open(path, "w") as handle:
        json.dump(RESULTS, handle, indent=2)
        handle.write("\n")
    print(f"[bench] wrote {path} "
          f"({len(RESULTS['scenarios'])} scenarios)")
    return path


@pytest.fixture(scope="module", autouse=True)
def _emit_after_run():
    yield
    if RESULTS["scenarios"]:
        emit()


@pytest.fixture(scope="module")
def store():
    return build_store()


@pytest.fixture(scope="module")
def backend(store):
    backend = SQLBackend(store.instance,
                         epoch_source=store.plan_cache)
    backend.shred.refresh()
    return backend


def test_bench_p13_shred_build(store):
    summary = run_shred_build(store)
    assert summary["roots_shredded"] > 0
    assert summary["node_rows"] > 0


def test_bench_p13_article_queries(store, backend):
    summary = run_article_queries(store, backend)
    for name, entry in summary.items():
        assert entry["sql_ms"] > 0, name
        assert entry["sql_feeds"] >= 1, name


def test_bench_p13_q6_letters():
    entry = run_q6_letters()
    assert entry["rows"] == 3
    assert entry["sql_feeds"] >= 1


def main() -> None:
    """Standalone tiny-scale run (the CI smoke entry point)."""
    store = build_store(size=8)
    backend = SQLBackend(store.instance,
                         epoch_source=store.plan_cache)
    backend.shred.refresh()
    run_shred_build(store)
    run_article_queries(store, backend, rounds=5)
    run_q6_letters(rounds=5)
    emit()


if __name__ == "__main__":
    main()
