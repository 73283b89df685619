"""Experiment P11 — the serving layer under mixed read/update traffic.

Unlike the P1–P10 experiments this one is *not* a pytest-benchmark
timing of a single call: the unit of measurement is a whole traffic
run — N client threads driving the paper's query mix through
:class:`repro.serve.QueryServer` — and the interesting numbers are
throughput (qps) and the latency tail (p50/p99), which the
:class:`repro.serve.LoadGenerator` computes itself.  Results are
emitted directly to ``BENCH_SERVE.json``:

* **worker scaling** — the same workload at 1, 4 and 16 pool workers;
* **request collapsing** — a 90%-duplicate workload with collapsing
  on vs off; the ISSUE's acceptance bar (collapsing cuts executed
  queries at least 2×) is asserted, not just recorded;
* **writer interference** — read p99 with a concurrent writer
  applying in-database edits vs the no-writer baseline; the ratio is
  recorded (``p99_factor``), not asserted — a latency-tail ratio of
  two short runs flips with the host — while every request completing
  without error is.

``SERVE_BENCH_CLIENTS`` / ``SERVE_BENCH_REQUESTS`` shrink the run for
the CI smoke job; ``python benchmarks/bench_p11_serve.py`` runs the
whole experiment standalone at tiny scale.
"""

import json
import os

import pytest

from repro import DocumentStore, QueryServer
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.corpus.generator import generate_corpus
from repro.serve import LoadGenerator

CLIENTS = int(os.environ.get("SERVE_BENCH_CLIENTS", "8"))
REQUESTS = int(os.environ.get("SERVE_BENCH_REQUESTS", "60"))

QUERY_MIX = [
    "select t from my_article PATH_p.title(t)",
    "select ss from a in Articles, s in a.sections, ss in s.subsectns",
    """select s.title from a in Articles, s in a.sections
       where s.title contains ("SGML")""",
    "select a.title from a in Articles",
    """select name(ATT_a) from my_article PATH_p.ATT_a(val)
       where val contains ("final")""",
]

RESULTS: dict = {"experiment": "SERVE", "scenarios": {}}


def build_store() -> DocumentStore:
    store = DocumentStore(ARTICLE_DTD, backend="algebra")
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    for tree in generate_corpus(10, seed=42):
        store.load_tree(tree, validate=False)
    store.build_text_index()
    store.build_structural_index()
    return store


def run_scenario(name: str, *, workers: int, collapse: bool = True,
                 hot_fraction: float = 0.0, with_writer: bool = False,
                 clients: int = CLIENTS,
                 requests: int = REQUESTS) -> dict:
    store = build_store()
    writer = None
    if with_writer:
        title = max(
            store.query("select s.title from a in Articles, "
                        "s in a.sections"),
            key=lambda o: o.number)
        edits = iter(range(10_000))

        def writer():
            store.update_text(
                title, f"Traffic Edit {next(edits)} Heading")

    with QueryServer(workers=workers, collapse=collapse,
                     max_pending=4096) as server:
        server.add_tenant("bench", store)
        # write_interval keeps the edit cadence below saturation: every
        # epoch bump forces one recompile per query shape (the plan
        # cache's correctness contract), and back-to-back edits would
        # measure a swamped compiler, not serving interference
        generator = LoadGenerator(
            server, "bench", QUERY_MIX, clients=clients,
            requests_per_client=requests, hot_fraction=hot_fraction,
            seed=11, writer=writer, write_interval=0.25,
            timeout=120.0)
        report = generator.run()
        metrics = server.metrics
        summary = report.summary()
        summary.update({
            "workers": workers,
            "collapse": collapse,
            "hot_fraction": hot_fraction,
            "with_writer": with_writer,
            "flights": metrics.get("serve.flights"),
            "executed": metrics.get("serve.executed"),
            "server_collapsed": metrics.get("serve.collapsed"),
            "epoch_conflicts": metrics.get("serve.epoch_conflicts"),
        })
    assert summary["errors"] == 0, summary
    assert summary["completed"] == clients * requests
    RESULTS["scenarios"][name] = summary
    return summary


def emit() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    out_dir = os.environ.get(
        "BENCH_RESULTS_DIR",
        os.path.join(os.path.dirname(here), "bench_results"))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "BENCH_SERVE.json")
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


@pytest.mark.parametrize("workers", [1, 4, 16])
def test_bench_p11_worker_scaling(workers):
    summary = run_scenario(
        f"scaling_workers_{workers}", workers=workers,
        hot_fraction=0.5)
    assert summary["qps"] > 0


def test_bench_p11_collapse_reduces_executions():
    on = run_scenario("collapse_on_90pct_dup", workers=8,
                      collapse=True, hot_fraction=0.9)
    off = run_scenario("collapse_off_90pct_dup", workers=8,
                       collapse=False, hot_fraction=0.9)
    # the acceptance bar: on a 90%-duplicate workload collapsing cuts
    # the number of executed queries at least 2×
    assert off["executed"] == off["submitted"]
    reduction = off["executed"] / max(on["executed"], 1)
    RESULTS["scenarios"]["collapse_on_90pct_dup"][
        "execution_reduction"] = reduction
    assert reduction >= 2.0, (on["executed"], off["executed"])


def test_bench_p11_writer_interference():
    # run_scenario asserts what repeats: no errors, every request
    # completed — with and without the concurrent writer
    quiet = run_scenario("read_only_baseline", workers=8,
                         hot_fraction=0.3)
    noisy = run_scenario("concurrent_writer", workers=8,
                         hot_fraction=0.3, with_writer=True)
    quiet_p99 = max(quiet["p99_ms"], 0.001)
    RESULTS["scenarios"]["concurrent_writer"]["p99_factor"] = (
        noisy["p99_ms"] / quiet_p99)


def main() -> None:
    """Standalone tiny-scale run (the CI smoke entry point)."""
    for workers in (1, 4):
        run_scenario(f"scaling_workers_{workers}", workers=workers,
                     hot_fraction=0.5, clients=4, requests=10)
    on = run_scenario("collapse_on_90pct_dup", workers=4,
                      collapse=True, hot_fraction=0.9,
                      clients=4, requests=10)
    off = run_scenario("collapse_off_90pct_dup", workers=4,
                       collapse=False, hot_fraction=0.9,
                       clients=4, requests=10)
    RESULTS["scenarios"]["collapse_on_90pct_dup"][
        "execution_reduction"] = (
        off["executed"] / max(on["executed"], 1))
    run_scenario("concurrent_writer", workers=4, hot_fraction=0.3,
                 with_writer=True, clients=4, requests=10)
    emit()


if __name__ == "__main__":
    main()
