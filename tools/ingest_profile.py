#!/usr/bin/env python3
"""Where a write spends its time (EXPERIMENTS.md, P17).

Generates the ``ingest`` corpus shape of ``benchmarks/e2e`` (seeded
articles written out as SGML text) and prints, per document, what the
four steps of one ``load_text`` cost — parse, validate, ``load_tree``
into an index-free store, and the live text index on top of it — the
late-over-early ratio of a live load (the first document loaded again
into the loaded store, over the same document into an empty one), two
``update_text`` calls on the loaded store (each indexes the edited
title's document again), and, for a pass of loads and for the second
edit (a separate, counted pass: exact, not timed), how many oids they
construct (``Oid(...)``: one interning-table lookup each) and how many
``==`` tests between oids they write out (an oid is its own identity:
the dict and set lookups of the write path compare in C and call no
Python ``__eq__``), how many ``MappingError``s the loader raises (a
union branch or optional part that does not fit is tried and
abandoned) and how many objects it rolls back with them — the table a
change to the write path quotes before and after.  The counted pass
also reports the text index's shape per loaded document: keys, token
streams, keys that did not join their document's stream (in all and
per reason), stored occurrences (offsets held in postings) and posting
entries.  On an older checkout (``--src``) only the rows its index can
tell are printed.  Timings are indicative (one process, best of
``--repeats`` whole passes); the counts are exact.

Usage::

    python tools/ingest_profile.py [--articles 300] [--seed 42]
    python tools/ingest_profile.py --src /other/checkout/src
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SECTION_TITLES = "select s.title from a in Articles, s in a.sections"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--articles", type=int, default=300)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the checkout's src/ to profile")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src))
    from repro import DocumentStore
    from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE, article_dtd
    from repro.corpus.generator import generate_corpus
    from repro.errors import MappingError
    from repro.mapping.loader import DocumentLoader
    from repro.oodb.values import Oid
    from repro.sgml import parse_document, write_document
    from repro.sgml.validator import validation_problems

    dtd = article_dtd()
    docs = [write_document(tree, dtd) for tree in generate_corpus(
        args.articles, seed=args.seed, paragraphs_per_body=3)]

    def new_store(live: bool):
        # named, not defaulted: ``--src`` may load an older checkout,
        # whose defaults were the interpreter and the union-of-plans
        store = DocumentStore(ARTICLE_DTD, backend="algebra",
                              structural=True)
        store.load_text(SAMPLE_ARTICLE, name="my_article")
        if live:
            store.build_text_index()
        return store

    def timed_pass():
        """Per-document seconds of each step, one fresh store pair."""
        plain, live = new_store(False), new_store(True)
        steps = {"parse": [], "validate": [], "load_tree": [], "live": []}
        for text in docs:
            t0 = time.perf_counter()
            tree = parse_document(text, plain.dtd)
            t1 = time.perf_counter()
            problems = validation_problems(tree, plain.dtd)
            t2 = time.perf_counter()
            plain.load_tree(tree, validate=False)
            t3 = time.perf_counter()
            live.load_tree(tree, validate=False)
            t4 = time.perf_counter()
            assert not problems, problems
            for name, spent in zip(steps, (t1 - t0, t2 - t1, t3 - t2,
                                           t4 - t3)):
                steps[name].append(spent)
        return steps, live

    def mean_ms(samples) -> float:
        return 1000 * sum(samples) / len(samples)

    # whole passes, collector pauses included; per step the best pass —
    # what it costs when the host is not in its slow phase
    best: dict[str, float] = {}
    for _ in range(args.repeats):
        steps, store = timed_pass()
        for name, samples in steps.items():
            best[name] = min(best.get(name, float("inf")),
                             mean_ms(samples))

    titles = sorted(store.query(SECTION_TITLES),
                    key=lambda oid: oid.number)
    target = titles[3 * len(titles) // 4]

    def first_document_ms(into) -> float:
        started = time.perf_counter()
        into.load_text(docs[0])
        return 1000 * (time.perf_counter() - started)

    # the same document into an empty store and into the loaded one:
    # neither document sizes nor one collector pause decide the ratio
    early = statistics.median(
        first_document_ms(new_store(True)) for _ in range(9))
    late = statistics.median(first_document_ms(store) for _ in range(9))
    started = time.perf_counter()
    store.update_text(target, "Edited Heading Words")
    first_update_ms = 1000 * (time.perf_counter() - started)
    started = time.perf_counter()
    store.update_text(target, "Heading Words Edited Again")
    update_ms = 1000 * (time.perf_counter() - started)

    # the counted pass: exact, and slowed by the counting itself
    calls = {"==": 0, "new": 0, "raised": 0, "rolled back": 0}
    plain = {name: vars(Oid).get(name) for name in ("__eq__", "__new__")}
    plain_eq, plain_new = Oid.__eq__, Oid.__new__
    plain_rollback = DocumentLoader._rollback

    def counting_eq(self, other):
        calls["=="] += 1
        return plain_eq(self, other)

    def counting_new(cls, *args):
        calls["new"] += 1
        # an older checkout's Oid is built by __init__ (``--src``)
        return (plain_new(cls, *args) if plain["__new__"] is not None
                else plain_new(cls))

    def counting_init(self, *args):
        calls["raised"] += 1
        Exception.__init__(self, *args)

    def counting_rollback(self, mark):
        calls["rolled back"] += len(self._trail) - mark
        plain_rollback(self, mark)

    def counted_calls(action) -> dict[str, int]:
        calls.update(dict.fromkeys(calls, 0))
        action()
        return dict(calls)

    Oid.__eq__ = counting_eq
    Oid.__new__ = counting_new
    MappingError.__init__ = counting_init
    DocumentLoader._rollback = counting_rollback
    try:
        counted = new_store(True)
        counted.enable_metrics()
        load_calls = counted_calls(
            lambda: [counted.load_text(text) for text in docs])
        counted.update_text(target, "Edited Heading Words")
        update_calls = counted_calls(lambda: counted.update_text(
            target, "Heading Words Edited Again"))
    finally:
        del MappingError.__init__
        DocumentLoader._rollback = plain_rollback
        for name, method in plain.items():
            if method is None:  # inherited from object
                delattr(Oid, name)
            else:
                setattr(Oid, name, method)

    parse, validate, load_tree, live = (
        best[name] for name in ("parse", "validate", "load_tree", "live"))
    whole = parse + validate + live
    rows = [
        ("sgml parse", f"{parse:9.3f} ms/doc"),
        ("sgml validate", f"{validate:9.3f} ms/doc"),
        ("load_tree (no index)", f"{load_tree:9.3f} ms/doc"),
        ("live text index", f"{live - load_tree:9.3f} ms/doc"),
        ("one load_text", f"{whole:9.3f} ms/doc "
                          f"({1000 / whole:.0f} ops/s)"),
        ("late over early", f"{late / early:9.2f} (the first document "
                            f"again: {late:.3f} / {early:.3f} ms)"),
        ("first update_text", f"{first_update_ms:9.3f} ms"),
        ("next update_text", f"{update_ms:9.3f} ms"),
        (f"Oid() / {len(docs)} loads", f"{load_calls['new']:9d}"),
        ("Oid() / update_text", f"{update_calls['new']:9d}"),
        (f"Oid == / {len(docs)} loads", f"{load_calls['==']:9d}"),
        ("Oid == / update_text", f"{update_calls['==']:9d}"),
        ("MappingError raised / load",
         f"{load_calls['raised'] / len(docs):9.2f} "
         f"({load_calls['raised']} in all)"),
        ("objects rolled back / load",
         f"{load_calls['rolled back'] / len(docs):9.2f} "
         f"({load_calls['rolled back']} in all)"),
    ]
    rows += index_shape(counted.text_index, counted.metrics()["counters"],
                        documents=len(docs) + 1)  # + the sample article
    print(f"articles={len(docs)} seed={args.seed} src={args.src}")
    for label, value in rows:
        print(f"{label:<26}{value}")


def index_shape(index, counters: dict,
                documents: int) -> list[tuple[str, str]]:
    """Per document: the rows of the text index's shape that this
    checkout's index can tell.  A stream index posts ``token -> {stream
    -> offsets}``; the older layout posted ``token -> {key ->
    positions}`` (``_groups``) and has no streams."""
    rows = [("keys / doc", index.document_count)]
    postings = getattr(index, "_postings", None)
    if postings is not None:
        rows.append(("streams / doc", len(index._streams)))
        rows.append(("own-stream keys / doc",
                     counters.get("text.own_stream_keys", 0)))
        # the reasons this checkout gives, and any an older one counted
        prefix = "text.own_stream_keys."
        reasons = {"glued_boundary"}.union(
            name[len(prefix):] for name in counters
            if name.startswith(prefix))
        rows += [(f"  {reason} / doc", counters.get(prefix + reason, 0))
                 for reason in sorted(reasons)]
    else:
        postings = getattr(index, "_groups", None)
    if postings is not None:
        rows.append(("stored occurrences / doc", sum(
            len(offsets) for group in postings.values()
            for offsets in group.values())))
        rows.append(("posting entries / doc",
                     sum(map(len, postings.values()))))
    return [(label, f"{total / documents:9.2f} ({total} in all)")
            for label, total in rows]


if __name__ == "__main__":
    main()
