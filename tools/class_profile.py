#!/usr/bin/env python3
"""Where a warm query spends its time, per query class and operator.

Builds the ``scan_warm``-shaped store of ``benchmarks/e2e`` (the sample
article plus a seeded corpus, structural plans, text index), reads the
benchmark's query classes from its ``spec.json`` (read-only), runs each
class warm and prints its median latency and, from
``explain_analyze``, the rows and *self* time of every operator — the
table EXPERIMENTS.md quotes before and after a change to the executor
(P16, P19), and which the ``lint`` CI job prints into every PR's log.
Timings are indicative (one process, no alternation); the rows are
exact.

Usage::

    python tools/class_profile.py [--articles 300] [--seed 42]
    python tools/class_profile.py --src /other/checkout/src
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--articles", type=int, default=300)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the checkout's src/ to profile")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src))
    from repro import DocumentStore
    from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
    from repro.corpus.generator import generate_corpus

    spec = json.loads(
        (ROOT / "benchmarks" / "e2e" / "spec.json").read_text())
    store = DocumentStore(ARTICLE_DTD, backend="algebra",
                          structural=True)
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    for tree in generate_corpus(args.articles, seed=args.seed):
        store.load_tree(tree, validate=False)
    store.build_text_index()
    whole_pass = 0.0
    for name, text in spec["query_classes"].items():
        store.query(text)
        samples = []
        for _ in range(args.repeats):
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


if __name__ == "__main__":
    main()
