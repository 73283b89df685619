#!/usr/bin/env python3
"""Where a query spends its time, per query class and operator.

Warm (the default): builds the ``scan_warm``-shaped store of
``benchmarks/e2e`` (the sample article plus a seeded corpus, structural
plans, text index), reads the benchmark's query classes from its
``spec.json`` (read-only), runs each class warm and prints its median
latency and, from ``explain_analyze``, the rows and *self* time of every
operator — the table EXPERIMENTS.md quotes before and after a change to
the executor (P16, P19).

Cold (``--cold``): builds the ``compile_cold``-shaped store (20
articles by default) and runs distinct variants of every
``cold_templates`` entry through ``store.query`` — each text new, so
every lookup misses the plan cache.  It prints per template the median
and p95 latency and the compile-phase split read from the engine's own
spans on further distinct variants: ``inference``, ``compile`` (its own
share: the algebra compilation), every ``optimize.<stage>`` and
``execute``.

The ``lint`` CI job prints both into every PR's log.  Timings are
indicative (one process, no alternation); the rows are exact.

Usage::

    python tools/class_profile.py [--articles 300] [--seed 42]
    python tools/class_profile.py --cold [--articles 20] [--repeats 15]
    python tools/class_profile.py --src /other/checkout/src
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from itertools import cycle
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Literals the cold variants are made of (title and body vocabulary of
#: the generator plus words that match nothing).
COLD_WORDS = ("SGML", "OODBMS", "Documents", "Queries", "Paths", "Unions",
              "Storage", "Mapping", "Calculus", "Algebra", "structured",
              "document", "database", "object", "complex", "query",
              "final", "draft", "zeugma", "quixotic")


def build_store(articles: int, seed: int):
    from repro import DocumentStore
    from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
    from repro.corpus.generator import generate_corpus
    store = DocumentStore(ARTICLE_DTD, backend="algebra",
                          structural=True)
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    for tree in generate_corpus(articles, seed=seed):
        store.load_tree(tree, validate=False)
    store.build_text_index()
    return store


def warm(store, spec: dict, repeats: int) -> None:
    whole_pass = 0.0
    for name, text in spec["query_classes"].items():
        store.query(text)
        samples = []
        for _ in range(repeats):
            started = time.perf_counter()
            store.query(text)
            samples.append(time.perf_counter() - started)
        median = statistics.median(samples) * 1000
        whole_pass += median
        print(f"{name:<18}{median:9.2f} ms")
        runs = [store.explain_analyze(text).operators()
                for _ in range(5)]
        for position, node in enumerate(runs[0]):
            if node["ref"]:  # a shared node is listed where it runs
                continue
            own = statistics.median(
                run[position]["self"] for run in runs) * 1000
            print(f"    {node['label'][:58]:<58} rows={node['rows']:<6}"
                  f" self={own:6.2f} ms")
    print(f"{'one pass':<18}{whole_pass:9.2f} ms "
          f"({1000 * len(spec['query_classes']) / whole_pass:.1f} ops/s)")


def phases_of(root) -> dict[str, float]:
    """Seconds per compile phase of one traced ``store.query``."""
    found = {}
    for span in root.walk():
        if span.name == "compile":
            found["compile"] = span.elapsed - sum(
                child.elapsed for child in span.children)
        elif span.name in ("inference", "execute") \
                or span.name.startswith("optimize."):
            found[span.name] = span.elapsed
    return found


def cold(store, spec: dict, repeats: int) -> None:
    from repro.observe import Tracer, observed
    variants = cycle(
        f'"{first}" {joiner} "{second}"'
        for joiner in ("and", "or")
        for first in COLD_WORDS for second in COLD_WORDS
        if first != second)
    # the first query after the loads rebuilds the structural index
    store.query(spec["query_classes"]["path_titles"])
    rows, columns = [], []
    for name, template in spec["cold_templates"].items():
        store.query(template.format(p=next(variants)))  # warm the code
        samples = []
        for _ in range(repeats):
            text = template.format(p=next(variants))
            started = time.perf_counter()
            store.query(text)
            samples.append(time.perf_counter() - started)
        split: dict[str, list[float]] = {}
        for _ in range(repeats):
            tracer = Tracer()
            with observed(store._engine.ctx, tracer=tracer):
                store.query(template.format(p=next(variants)))
            for phase, seconds in phases_of(tracer.last_root).items():
                split.setdefault(phase, []).append(seconds)
                if phase not in columns:
                    columns.append(phase)
        samples.sort()
        p95 = samples[min(len(samples) - 1, round(0.95 * len(samples)))]
        rows.append((name, statistics.median(samples), p95,
                     {phase: statistics.median(values)
                      for phase, values in split.items()}))
    labels = [column.removeprefix("optimize.") for column in columns]
    widths = [max(len(label), 7) + 1 for label in labels]
    print(f"{'cold template':<22}{'p50':>8}{'p95':>8}"
          + "".join(f"{label:>{width}}"
                    for label, width in zip(labels, widths)))
    for name, p50, p95, split in rows:
        print(f"{name:<22}{p50 * 1000:8.2f}{p95 * 1000:8.2f}"
              + "".join(f"{split.get(column, 0.0) * 1000:{width}.2f}"
                        for column, width in zip(columns, widths)))
    print(f"(ms; {repeats} distinct variants per template for p50/p95,"
          " as many again for the span split)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cold", action="store_true",
                        help="profile the compile_cold templates")
    parser.add_argument("--articles", type=int, default=None,
                        help="corpus size (default: the workload's)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the checkout's src/ to profile")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src))
    spec = json.loads(
        (ROOT / "benchmarks" / "e2e" / "spec.json").read_text())
    workload = spec["workloads"]["compile_cold" if args.cold
                                 else "scan_warm"]
    articles = (args.articles if args.articles is not None
                else workload["articles"])
    store = build_store(articles, args.seed)
    (cold if args.cold else warm)(store, spec, args.repeats)


if __name__ == "__main__":
    main()
