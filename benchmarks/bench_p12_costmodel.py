"""Experiment P12 — the cost-based optimizer (repro.stats).

Two measurements, emitted to ``BENCH_COSTMODEL.json``:

* **pruning ablation** — an impossible ``contains`` with and without
  the cost stage: statically pruning the provably-empty branches must
  beat probing each of them at runtime, and the deterministic
  ``algebra.branches_pruned_static`` counter is asserted alongside the
  timing;
* **branch-order ablation** — a satisfiable ``contains``: the cost
  stage orders the union cheapest-first (asserted structurally on the
  annotated estimates), at no measurable execution cost vs. the
  unordered factored plan.

Timings from shared runners are indicative; every scenario therefore
also records (and asserts on) result equality and the deterministic
counters.  ``COSTMODEL_BENCH_ROUNDS`` shrinks the run for CI smoke;
``python benchmarks/bench_p12_costmodel.py`` runs the whole experiment
standalone at tiny scale.
"""

import json
import os
import statistics
import time

import pytest

from conftest import build_corpus_store
from repro.corpus import SAMPLE_ARTICLE
from repro.algebra.compile import compile_query
from repro.algebra.execute import execute_plan
from repro.algebra.operators import UnionOp
from repro.algebra.optimizer import optimize
from repro.observe import MetricsRegistry

ROUNDS = int(os.environ.get("COSTMODEL_BENCH_ROUNDS", "30"))
CORPUS = int(os.environ.get("COSTMODEL_BENCH_CORPUS", "20"))

IMPOSSIBLE = ('select t from a in Articles, a PATH_p.title(t) '
              'where a contains ("xyzzynotthere")')
SATISFIABLE = ('select t from a in Articles, a PATH_p.title(t) '
               'where a contains ("SGML")')

RESULTS: dict = {"experiment": "COSTMODEL", "scenarios": {}}


def build_store(size=CORPUS):
    store = build_corpus_store(size, backend="algebra")
    store.load_text(SAMPLE_ARTICLE, name="my_article")
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


def _plans(store, text, metrics=None):
    """(query, factored-without-cost, costed) for one query text."""
    query = store._engine.translate(text)
    plan = compile_query(query, store.schema)
    factored = optimize(plan, verify="raise", query=query)
    costed = optimize(plan, verify="raise", query=query,
                      stats=store.stats_manager.snapshot(),
                      metrics=metrics)
    return query, factored, costed


def _evidence_unions(plan):
    seen, stack, found = set(), [plan], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if (isinstance(node, UnionOp)
                and node.cost_evidence is not None):
            found.append(node)
        stack.extend(node.children())
    return found


def run_pruning_ablation(store, rounds=ROUNDS) -> dict:
    metrics = MetricsRegistry()
    query, factored, costed = _plans(store, IMPOSSIBLE, metrics)
    engine = store._engine
    assert (execute_plan(costed, engine.ctx.fork())
            == execute_plan(factored, engine.ctx.fork()))
    counters = metrics.snapshot()["counters"]
    pruned_static = counters.get("algebra.branches_pruned_static", 0)
    assert pruned_static > 0, "static pruning never fired"
    summary = {
        "query": "impossible_contains",
        "branches_pruned_static": pruned_static,
        "uncosted_ms": _median_ms(
            lambda: execute_plan(factored, engine.ctx.fork()), rounds),
        "costed_ms": _median_ms(
            lambda: execute_plan(costed, engine.ctx.fork()), rounds),
    }
    summary["speedup"] = (summary["uncosted_ms"]
                          / max(summary["costed_ms"], 1e-9))
    RESULTS["scenarios"]["pruning_ablation"] = summary
    return summary


def run_branch_order_ablation(store, rounds=ROUNDS) -> dict:
    query, factored, costed = _plans(store, SATISFIABLE)
    engine = store._engine
    assert (execute_plan(costed, engine.ctx.fork())
            == execute_plan(factored, engine.ctx.fork()))
    unions = _evidence_unions(costed)
    assert unions, "no reordered union in the costed plan"
    # cheapest-first: the annotated branch costs are non-decreasing
    ordered = all(
        all(union.branches[i].est_cost <= union.branches[i + 1].est_cost
            for i in range(len(union.branches) - 1))
        for union in unions)
    summary = {
        "query": "satisfiable_contains",
        "reordered_unions": len(unions),
        "cheapest_first": ordered,
        "uncosted_ms": _median_ms(
            lambda: execute_plan(factored, engine.ctx.fork()), rounds),
        "costed_ms": _median_ms(
            lambda: execute_plan(costed, engine.ctx.fork()), rounds),
    }
    RESULTS["scenarios"]["branch_order_ablation"] = summary
    return summary


def emit() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    out_dir = os.environ.get(
        "BENCH_RESULTS_DIR",
        os.path.join(os.path.dirname(here), "bench_results"))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "BENCH_COSTMODEL.json")
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


def test_bench_p12_pruning_ablation(store):
    summary = run_pruning_ablation(store)
    assert summary["branches_pruned_static"] == 13
    # timings are indicative on shared runners: record the speedup,
    # assert only that pruning is not a slowdown beyond noise
    assert summary["costed_ms"] <= summary["uncosted_ms"] * 1.5


def test_bench_p12_branch_order_ablation(store):
    summary = run_branch_order_ablation(store)
    assert summary["cheapest_first"] is True
    assert summary["reordered_unions"] >= 1


def main() -> None:
    """Standalone tiny-scale run (the CI smoke entry point)."""
    store = build_store(size=8)
    run_pruning_ablation(store, rounds=5)
    run_branch_order_ablation(store, rounds=5)
    emit()


if __name__ == "__main__":
    main()
