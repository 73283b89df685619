"""Harness-side tracing: spans around calls into the layers' public
functions, self-time accounting, and the staged query sequence that
mirrors ``QueryEngine`` from outside.

Nothing here reaches into ``src/``: a span is recorded by *this* code
around a call into a layer (``<layer>.<call>``), so the yardstick does
not move when a later change adds or removes spans inside the program.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager

from repro.algebra.compile import compile_query
from repro.algebra.execute import execute_plan
from repro.algebra.optimizer import optimize
from repro.cache import CachedArtifacts
from repro.calculus.evaluator import EvalContext
from repro.calculus.inference import infer_types
from repro.calculus.safety import check_safety
from repro.o2sql.parser import parse
from repro.o2sql.translate import to_calculus
from repro.plancheck.verifier import verify_plan

#: The stage sequence of :func:`staged_query`, in call order — what
#: the coverage warning names when it drifts from ``QueryEngine``.
STAGES = ("stats.snapshot", "cache.lookup", "o2sql.parse",
          "o2sql.translate", "calculus.safety", "calculus.inference",
          "algebra.compile", "algebra.optimize", "cache.store",
          "algebra.execute", "stats.feedback")
#: A harness extra inside the op span, left out of the coverage ratio.
NOT_A_STAGE = "plancheck.verify"


class Tracer:
    """Spans ``{id, parent, request, name, start, end}`` kept in memory.

    ``request`` is inherited from the enclosing span, so every span of
    one operation shares its identifier.  Each thread nests its own
    spans (the client threads of ``serve_mixed`` trace concurrently);
    appends and id allocation are atomic under the interpreter lock.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, request: object = None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        record = {
            "id": next(self._ids),
            "parent": parent["id"] if parent else None,
            "request": request if parent is None else parent["request"],
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def durations(self, name: str) -> list[float]:
        """Seconds of every finished span called ``name``, in order of
        start."""
        found = [s for s in self.spans if s["name"] == name]
        found.sort(key=lambda s: s["start"])
        return [s["end"] - s["start"] for s in found]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id → self time: its duration minus the part of that
    interval its direct children cover (their union, so overlapping
    children are not subtracted twice)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    result = {}
    for span in spans:
        covered = 0.0
        reach = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start = max(start, reach)
            end = min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        result[span["id"]] = span["end"] - span["start"] - covered
    return result


def layer_table(spans: list[dict]) -> list[tuple[str, float, float, int]]:
    """``(layer, self seconds, share, spans)`` rows, busiest first; a
    span's layer is its name up to the first dot."""
    own = self_times(spans)
    totals: dict[str, list] = {}
    for span in spans:
        row = totals.setdefault(span["name"].split(".", 1)[0], [0.0, 0])
        row[0] += own[span["id"]]
        row[1] += 1
    whole = sum(row[0] for row in totals.values()) or 1.0
    return sorted(((layer, row[0], row[0] / whole, row[1])
                   for layer, row in totals.items()),
                  key=lambda item: -item[1])


def eval_context(store, registry=None) -> EvalContext:
    """A harness-built evaluation context over ``store``'s instance,
    wired to its current indexes (build it after they exist)."""
    ctx = EvalContext(store.instance, provenance=store.loader.provenance)
    ctx.text_index = store.text_index
    ctx.struct_index = store.struct_index
    ctx.metrics = registry
    return ctx


def staged_query(store, ctx, tracer: Tracer, text: str, registry=None):
    """One query as the call sequence ``QueryEngine`` performs
    (algebra backend, ``structural=True``, optimizer and cost stage on),
    through public callables only and through the store's own plan
    cache, one span per stage.  Returns ``(result, plan)``."""
    span = tracer.span
    with span("stats.snapshot"):
        snapshot = store.stats_manager.snapshot()
    key = store.cache_key(text)
    epoch = store.epoch
    with span("cache.lookup"):
        entry = store.plan_cache.lookup(
            key, metrics=registry, stats_generation=snapshot.generation)
    if entry is None:
        schema = store.instance.schema
        with span("o2sql.parse"):
            node = parse(text)
        with span("o2sql.translate"):
            query = to_calculus(node, schema.roots.keys())
        with span("calculus.safety"):
            check_safety(query)
        with span("calculus.inference"):
            infer_types(query, schema)
        with span("algebra.compile"):
            plan = compile_query(query, schema,
                                 path_semantics=ctx.path_semantics)
        with span("algebra.optimize"):
            plan = optimize(plan, structural=True, query=query,
                            metrics=registry, stats=snapshot, plan_key=key)
        entry = CachedArtifacts(
            query=query, plan=plan, epoch=epoch, key=key, verified=True,
            stats_generation=snapshot.generation)
        with span("cache.store"):
            store.plan_cache.store(key, entry, metrics=registry)
        # not a QueryEngine stage (it verifies per optimizer stage,
        # inside algebra.optimize): the coverage ratio skips this span
        with span("plancheck.verify"):
            faults = verify_plan(plan, query=query, stats=snapshot)
        if faults:
            raise AssertionError(f"final plan fails: {faults[0]}")
    with span("algebra.execute"):
        result = execute_plan(entry.plan, ctx.fork())
    with span("stats.feedback"):
        store.stats_manager.record_execution(
            key, entry.plan.est_rows, len(result))
    return result, entry
