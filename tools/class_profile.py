#!/usr/bin/env python3
"""Where a query spends its time, per query class and operator.

Warm (the default): builds the ``scan_warm``-shaped store of
``benchmarks/e2e`` (the sample article plus a seeded corpus, structural
plans, text index), reads the benchmark's query classes from its
``spec.json`` (read-only), runs each class warm and prints its median
latency, three deterministic per-row work counters of one execution
(``oodb.derefs``, ``structindex.nodes_scanned``,
``algebra.contains_index_answered``) and, from ``explain_analyze``, the
rows and *self* time of every operator — its minimum over the repeats,
so one process accounts for an executor change whatever else the host
is doing — and their sum per class and per pass: the table
EXPERIMENTS.md quotes before and after a change to the executor (P16,
P19, P33).  Above
the table: the structural-index build the first query after the loads
pays for (ms and ``structindex.nodes_indexed``); below it, the bytes
the index retains per structure (each block array and slice, the
selection memos, the lookup map) after one more full rebuild and one
pass over the classes, beside what ``tracemalloc`` traced over that
window (P34).

Cold (``--cold``): builds the ``compile_cold``-shaped store (20
articles by default) and runs distinct variants of every
``cold_templates`` entry through ``store.query`` — each text new, so
every lookup misses the plan cache.  It prints per template the median
and p95 latency and the compile-phase split read from the engine's own
spans on further distinct variants: ``inference``, ``compile`` (its own
share: the algebra compilation, its fused scans and joins included,
and the plan verification), the two optimizer stages ``pushdown`` and
``factor``, and ``execute`` (medians), then the p95 of the ``inference`` and
``compile`` spans, and the ``plancheck.verifications`` one more cold
variant counts (exact).

After edits (``--edits N``): builds the warm store, takes each query
class's warm median, then updates the text of ``N`` section titles
spread over the corpus to words no class asks for and takes each
median again: the two side by side, with their ratio — what an
unrelated edit costs the reads after it once they are warm.

The ``lint`` CI job prints all three into every PR's log.  Timings are
indicative (one process, no alternation); the rows and counters are
exact.

Usage::

    python tools/class_profile.py [--articles 300] [--seed 42]
    python tools/class_profile.py --cold [--articles 20] [--repeats 15]
    python tools/class_profile.py --edits 8
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
    # named, not defaulted: ``--src`` may load an older checkout,
    # whose defaults were the interpreter and the union-of-plans
    store = DocumentStore(ARTICLE_DTD, backend="algebra",
                          structural=True)
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    for tree in generate_corpus(articles, seed=seed):
        store.load_tree(tree, validate=False)
    store.build_text_index()
    return store


#: Per-row work of one warm execution, as ``label=count`` beside each
#: class's latency.
WORK_COUNTERS = (("derefs", "oodb.derefs"),
                 ("scanned", "structindex.nodes_scanned"),
                 ("answered", "algebra.contains_index_answered"))


def first_build(store) -> None:
    """The structural-index build the first query after the loads
    pays for: its time and ``structindex.nodes_indexed``."""
    from repro.observe import MetricsRegistry
    index = store.struct_index
    index.metrics = registry = MetricsRegistry()
    started = time.perf_counter()
    index.refresh()
    elapsed = time.perf_counter() - started
    index.metrics = None
    nodes = registry.snapshot()["counters"].get(
        "structindex.nodes_indexed", 0)
    print(f"{'structural build':<18}{elapsed * 1000:9.2f} ms  "
          f"nodes_indexed={nodes}  (the first query's index build)")


def warm_p50(store, text: str, repeats: int) -> float:
    """The median ms of ``repeats`` warm runs of ``text`` (one run
    before them compiles it and refreshes the indexes)."""
    store.query(text)
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        store.query(text)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1000


def warm(store, spec: dict, repeats: int) -> None:
    first_build(store)
    whole_pass = whole_self = 0.0
    for name, text in spec["query_classes"].items():
        median = warm_p50(store, text, repeats)
        whole_pass += median
        reports = [store.explain_analyze(text) for _ in range(repeats)]
        counters = reports[0].metrics["counters"]
        print(f"{name:<18}{median:9.2f} ms  " + " ".join(
            f"{label}={counters.get(counter, 0)}"
            for label, counter in WORK_COUNTERS))
        runs = [report.operators() for report in reports]
        class_self = 0.0
        for position, node in enumerate(runs[0]):
            if node["ref"]:  # a shared node is listed where it runs
                continue
            # the least an operator took: what its code costs, whatever
            # else the host was doing during the other repeats
            own = min(run[position]["self"] for run in runs) * 1000
            class_self += own
            print(f"    {node['label'][:58]:<58} rows={node['rows']:<6}"
                  f" self={own:6.2f} ms")
        print(f"    {'(the operators together)':<58} {'':<11}"
              f"self={class_self:6.2f} ms")
        whole_self += class_self
    print(f"{'one pass':<18}{whole_pass:9.2f} ms "
          f"({1000 * len(spec['query_classes']) / whole_pass:.1f} ops/s)"
          f"  operators' self {whole_self:.2f} ms")
    index_memory(store, spec)


def after_edits(store, spec: dict, repeats: int, edits: int) -> None:
    """Each class's warm p50 on the fresh store and after ``edits``
    title edits that no class's answer depends on."""
    classes = spec["query_classes"]
    fresh = {name: warm_p50(store, text, repeats)
             for name, text in classes.items()}
    titles = sorted(
        store.query("select s.title from a in Articles, s in a.sections"),
        key=lambda oid: oid.number)
    step = max(1, len(titles) // max(1, edits))
    started = time.perf_counter()
    for number, title in enumerate(titles[::step][:edits]):
        store.update_text(title, f"Edited heading words {number}")
    spent = (time.perf_counter() - started) * 1000
    print(f"{edits} title edits in {spent:.2f} ms")
    print(f"{'class':<18}{'fresh':>9}{'edited':>9}{'ratio':>8}  (p50 ms)")
    total_fresh = total_edited = 0.0
    for name, text in classes.items():
        edited = warm_p50(store, text, repeats)
        total_fresh += fresh[name]
        total_edited += edited
        print(f"{name:<18}{fresh[name]:9.2f}{edited:9.2f}"
              f"{edited / fresh[name]:8.2f}")
    print(f"{'one pass':<18}{total_fresh:9.2f}{total_edited:9.2f}"
          f"{total_edited / total_fresh:8.2f}")


def index_memory(store, spec: dict) -> None:
    """The bytes the structural index retains, per structure, after one
    more full rebuild and one pass over the query classes (which fill
    the selection memos and the lookup map).  A structure's bytes are
    the ``sys.getsizeof`` of the objects it reaches that the instance
    does not (the values an array points at are the instance's), each
    object counted once, for the first structure that reaches it:
    block slots, arrays first, then the index's own maps.  The total
    ``tracemalloc`` traced over that window is printed beside them (it
    also holds what the queries left in other caches)."""
    import tracemalloc
    index = store.struct_index
    tracemalloc.start()
    try:
        index.note_data_change(store.plan_cache.epoch)
        index.refresh()
        for text in spec["query_classes"].values():
            store.query(text)
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    blocks = list(index.blocks.values())
    slots = sorted(type(blocks[0]).__slots__,
                   key=lambda name: (name.startswith("_"), name))
    structures = {f"block.{slot}": [getattr(block, slot)
                                    for block in blocks]
                  for slot in slots}
    structures.update(
        (f"index.{name}", [value])
        for name, value in vars(index).items()
        if name != "_blocks" and isinstance(value, (dict, list)))
    # what the instance holds, and the interpreter's shared constants,
    # are no structure's
    seen = {id(None), id(True), id(False), *map(id, range(-5, 257))}
    instance = store.instance
    _retained([instance.root(name) for name in instance.root_names]
              + [(oid, instance.deref(oid))
                 for oid in instance.all_oids()], seen)
    sizes = {label: _retained(roots, seen)
             for label, roots in structures.items()}
    print(f"{'index memory':<18}{sum(sizes.values()) / 1e6:9.2f} MB  "
          f"({len(blocks)} blocks; {traced / 1e6:.2f} MB traced over "
          "the rebuild and the pass)")
    for label, size in sizes.items():
        if size:
            print(f"    {label:<28}{size:>12,} B")


def _retained(roots: list, seen: set[int]) -> int:
    """Bytes of the objects reachable from ``roots`` and not yet in
    ``seen`` (which this extends)."""
    from repro.oodb.values import ListValue, SetValue, TupleValue
    total = 0
    stack = list(roots)
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        total += sys.getsizeof(item)
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, TupleValue):
            stack.extend(item.fields)
        elif isinstance(item, (ListValue, SetValue)):
            stack.extend(item.items)
    return total


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


def p95(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, round(0.95 * len(ordered)))]


def cold(store, spec: dict, repeats: int) -> None:
    from repro.observe import MetricsRegistry, Tracer, observed
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
        tails = [p95(split.get(phase, [0.0]))
                 for phase in ("inference", "compile")]
        registry = MetricsRegistry()
        with observed(store._engine.ctx, metrics=registry):
            store.query(template.format(p=next(variants)))
        verified = registry.snapshot()["counters"].get(
            "plancheck.verifications", 0)
        rows.append((name, statistics.median(samples), p95(samples),
                     {phase: statistics.median(values)
                      for phase, values in split.items()}, tails,
                     verified))
    labels = [column.removeprefix("optimize.") for column in columns]
    widths = [max(len(label), 7) + 1 for label in labels]
    print(f"{'cold template':<22}{'p50':>8}{'p95':>8}"
          + "".join(f"{label:>{width}}"
                    for label, width in zip(labels, widths))
          + f"{'inf p95':>9}{'cmp p95':>9}")
    for name, p50, tail, split, tails, verified in rows:
        print(f"{name:<22}{p50 * 1000:8.2f}{tail * 1000:8.2f}"
              + "".join(f"{split.get(column, 0.0) * 1000:{width}.2f}"
                        for column, width in zip(columns, widths))
              + "".join(f"{seconds * 1000:9.2f}" for seconds in tails)
              + f"  verifications={verified}")
    print(f"(ms; {repeats} distinct variants per template for p50/p95,"
          " as many again for the span split: medians, then the p95 of"
          " the inference and compile spans; verifications= counts one"
          " more variant's compile)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cold", action="store_true",
                        help="profile the compile_cold templates")
    parser.add_argument("--edits", type=int, default=0,
                        help="compare warm p50s before and after this "
                             "many unrelated title edits")
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
    if args.edits:
        after_edits(store, spec, args.repeats, args.edits)
    else:
        (cold if args.cold else warm)(store, spec, args.repeats)


if __name__ == "__main__":
    main()
