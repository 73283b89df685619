"""The traced run: one set-up under spans, untraced reference passes,
traced passes with counters, then a fixed probe suite on the
workload's own store — and the per-layer metrics derived from them.

Every per-layer timing is a statistic over the spans of one name,
wherever in the run they were recorded; every workload's traced run
produces spans of every name, so each metric exists on each workload
(at that workload's data size).
"""

from __future__ import annotations

import bisect
import itertools
import os
import statistics
import tempfile
import time

from repro import DocumentStore, QueryServer
from repro.algebra.execute import plan_size

from e2e_trace import NOT_A_STAGE, STAGES, Tracer, staged_query
from e2e_workloads import (
    CLASSES,
    HOT,
    PATH_TITLES,
    Pass,
    edit_text,
    load_doc,
    percentile,
    pooled,
    results_dir,
    rows,
)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced_run(workload_cls, seed: int, params: dict, seconds: float,
               probe: dict):
    """Returns ``(metrics, judged passes, tracer, warnings)``."""
    tracer = Tracer()
    workload = workload_cls(seed, params, tracer=tracer)
    judged = [workload.setup()]

    # untraced reference passes and traced passes in turn, so both see
    # the same host weather.  Traced means spans only: the program's
    # counters stay off, so stage timings carry no counting overhead
    server = getattr(workload, "server", None)
    before = server_counters(server)
    first_span = len(tracer.spans)
    reference, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced:
        for passes, how in ((reference, None), (traced, tracer)):
            workload.set_tracer(how)
            passes.append(workload.run_pass(
                sum(p.attempted for p in traced)))
    judged += reference + traced
    pass_spans = tracer.spans[first_span:]
    serve_counts = delta(before, server_counters(server))
    pass_live_loads = len(tracer.durations("session.load_live"))
    workload.set_tracer(None)
    class_p50 = class_latencies(workload, probe["class_repeats"])
    workload.set_tracer(tracer)

    # one counted pass, store.enable_metrics() on from here: with one
    # client the counts repeat exactly, so one pass is enough
    workload.enable_metrics()
    before = workload.counters()
    counted = workload.run_pass()
    judged.append(counted)
    in_pass = delta(before, workload.counters())
    store = workload.store  # ingest: the last pass's store

    operators = class_probe(workload, tracer, judged)
    lookup_us = lookup_probe(store)
    before = workload.counters()
    edits = Pass()
    rng = workload.rng("edits")
    for _ in range(params["edit_rotations"]):
        workload.edit_rotation(edits, rng)
    judged.append(edits)
    in_edits = delta(before, workload.counters())
    probe_counts = serve_probe(workload, server, tracer,
                               probe["serve_calls"], rng, judged)
    if server is None:
        serve_counts = probe_counts  # the one-client probe's server
    snapshot_bytes, sql_counts = reload_probe(workload, tracer, judged)
    if not pass_live_loads:
        _, docs = workload.corpus(probe["live_docs"], salt="live")
        for text in docs:
            load_doc(store, text, tracer, live=True)
    workload.close()

    def ms(name: str, stat=statistics.mean) -> float:
        return stat(tracer.durations(name)) * 1e3

    p50 = statistics.median
    ops, result_rows = counted.attempted, counted.result_rows
    writes = counted.writes + edits.writes
    per_write = {name: in_pass.get(name, 0) + in_edits.get(name, 0)
                 for name in ("structindex.block_rebuilds",
                              "cache.invalidations")}
    live = tracer.durations("session.load_live")
    live = live[:params["articles"]] if pass_live_loads else live
    fifth = max(1, len(live) // 5)
    lookups = in_pass.get("cache.hits", 0) + in_pass.get("cache.misses", 0)
    serve_reads = (tracer.durations("serve.query")
                   or tracer.durations("serve.probe_query"))
    serve_writes = (pooled(traced, "serve.write")
                    or tracer.durations("serve.probe_update"))
    serve_fresh = (pooled(traced, "serve.fresh_read")
                   or tracer.durations("serve.probe_fresh"))
    # stage time per op of the fastest traced pass over op latency of
    # the fastest reference pass: the two halves of the run see
    # different host weather, their best passes the least of it
    op_request = {s["id"]: s["request"] for s in pass_spans
                  if s["name"] == "op"}
    stages = [s for s in pass_spans
              if s["parent"] in op_request and s["name"] != NOT_A_STAGE]
    ends = list(itertools.accumulate(p.attempted for p in traced))
    stage_seconds = [0.0] * len(traced)
    for span in stages:
        which = bisect.bisect_right(ends, op_request[span["parent"]])
        stage_seconds[which] += span["end"] - span["start"]
    coverage = ratio(
        min(seconds / p.op_count
            for seconds, p in zip(stage_seconds, traced)),
        min(p.op_seconds / p.op_count for p in reference))

    metrics = {
        "sgml.parse_ms_per_doc": ms("sgml.parse"),
        "sgml.validate_ms_per_doc": ms("sgml.validate"),
        "mapping.load_ms_per_doc": ms("mapping.load"),
        "text.live_index_ms_per_doc":
            statistics.mean(live) * 1e3 - ms("mapping.load"),
        "session.ingest_late_over_early":
            ratio(sum(live[-fifth:]), sum(live[:fifth])),
        "text.index_build_s": ms("text.index_build") / 1e3,
        "structindex.build_s": ms("structindex.build") / 1e3,
        "structindex.refresh_ms": ms("structindex.refresh", p50),
        "structindex.block_rebuilds_per_write":
            ratio(per_write["structindex.block_rebuilds"], writes),
        "structindex.nodes_scanned_per_result":
            ratio(in_pass.get("structindex.nodes_scanned", 0), result_rows),
        "structindex.fallback_walks":
            in_pass.get("structindex.fallback_walks", 0),
        "text.postings_scanned_per_op":
            ratio(in_pass.get("text.postings_scanned", 0), ops),
        "text.word_probes_per_op":
            ratio(in_pass.get("text.word_probes", 0), ops),
        "oodb.derefs_per_result":
            ratio(in_pass.get("oodb.derefs", 0), result_rows),
        "oodb.objects": store.stats()["objects"],
        "oodb.snapshot_bytes": snapshot_bytes,
        "session.save_s": ms("session.save") / 1e3,
        "session.reload_s": ms("session.reload") / 1e3,
        "o2sql.parse_ms": ms("o2sql.parse", p50),
        "o2sql.translate_ms": ms("o2sql.translate", p50),
        "calculus.safety_ms": ms("calculus.safety", p50),
        "calculus.inference_ms": ms("calculus.inference", p50),
        "algebra.compile_ms": ms("algebra.compile", p50),
        "algebra.optimize_ms": ms("algebra.optimize", p50),
        "plancheck.verify_ms": ms("plancheck.verify", p50),
        "stats.snapshot_ms": ms("stats.recollect", p50),
        "algebra.plan_operators": operators,
        "algebra.execute_ms_per_op": ms("algebra.execute"),
        **{f"query.{name}_p50_ms": value
           for name, value in class_p50.items()},
        "calculus.evaluate_ms_per_op": ms("calculus.evaluate"),
        "cache.hit_ratio": ratio(in_pass.get("cache.hits", 0), lookups),
        "cache.evictions_per_op":
            ratio(in_pass.get("cache.evictions", 0), ops),
        "cache.invalidations_per_write":
            ratio(per_write["cache.invalidations"], writes),
        "cache.lookup_us": lookup_us,
        "session.update_text_ms": ms("session.update_text", p50),
        "session.fresh_read_ms": ms("session.fresh_read", p50),
        "serve.overhead_ms": (ms("serve.probe_query", p50)
                              - ms("session.probe_query", p50)),
        "serve.read_p95_ms": percentile(serve_reads, 0.95) * 1e3,
        "serve.write_p50_ms": p50(serve_writes) * 1e3,
        "serve.fresh_read_p50_ms": p50(serve_fresh) * 1e3,
        "serve.collapse_ratio": ratio(
            serve_counts.get("serve.collapsed", 0),
            serve_counts.get("serve.submitted", 0)),
        "serve.epoch_conflicts_per_write": ratio(
            serve_counts.get("serve.epoch_conflicts", 0),
            serve_counts.get("serve.writes", 0)),
        "serve.escalations": serve_counts.get("serve.escalations", 0),
        "serve.executed_per_read": ratio(
            serve_counts.get("serve.executed", 0),
            serve_counts.get("serve.submitted", 0)),
        "sqlbackend.shred_build_s": ms("sqlbackend.shred_build") / 1e3,
        "sqlbackend.exec_ms_per_op": ms("sqlbackend.execute"),
        "sqlbackend.fallbacks": sql_counts.get("sql.fallbacks", 0),
        "sqlbackend.unsupported": sql_counts.get("sql.unsupported", 0),
        "trace.coverage_ratio": coverage,
        "trace.overhead_ratio": ratio(
            max(pooled(traced, "ops_per_s")),
            max(pooled(reference, "ops_per_s"))),
    }
    warnings = []
    if not 0.85 <= coverage <= 1.15:
        names = sorted({s["name"] for s in stages}, key=stage_order)
        warnings.append(
            f"trace.coverage_ratio {coverage:.3f} outside 0.85-1.15 on "
            f"{workload.name}: the staged calls {' > '.join(names)} no "
            "longer add up to the untraced op (the sequence drifted from "
            "what QueryEngine / load_text / QueryServer do)")
    return metrics, judged, tracer, warnings


def stage_order(name: str) -> int:
    return STAGES.index(name) if name in STAGES else len(STAGES)


def server_counters(server) -> dict:
    """A ``QueryServer``'s own registry (always counting)."""
    return {} if server is None else server.metrics.snapshot()["counters"]


def delta(before: dict, after: dict) -> dict:
    return {name: value - before.get(name, 0)
            for name, value in after.items()}


def class_latencies(workload, repeats: int) -> dict[str, float]:
    """Warm untraced ``store.query`` p50 (ms) per query class."""
    store = workload.store
    result = {}
    for name, text in CLASSES.items():
        store.query(text)
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            store.query(text)
            samples.append(time.perf_counter() - start)
        result[name] = statistics.median(samples) * 1e3
    return result


def class_probe(workload, tracer: Tracer, judged: list) -> int:
    """The seven classes staged cold then warm on the workload's store,
    judged against ``store.query``; returns their summed plan size."""
    store, out = workload.store, Pass()
    operators = 0
    for text in CLASSES.values():
        want = rows(store.query(text))
        store.plan_cache.clear()
        for _ in range(2):
            got, entry = staged_query(store, workload.ctx, tracer, text,
                                      workload.ctx.metrics)
            out.judge(rows(got) == want, text)
        operators += plan_size(entry.plan)
    judged.append(out)
    return operators


def lookup_probe(store) -> float:
    """Plan-cache hit path, µs per lookup."""
    store.query(HOT)
    key = store.cache_key(HOT)
    lookup = store.plan_cache.lookup
    if lookup(key) is None:
        raise AssertionError("warm text missing from the plan cache")
    loops = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(1000):
            lookup(key)
        loops.append((time.perf_counter() - start) / 1000)
    return statistics.median(loops) * 1e6


def serve_probe(workload, server, tracer: Tracer, calls: int, rng,
                judged: list) -> dict:
    """One client: the hot text warm through ``server.query`` against
    ``store.query``, then one rotation of ``server.update_text`` and
    the first read after it — on the workload's server, or on one of
    its own around the workload's store.  Returns the server's
    counters."""
    store, out = workload.store, Pass()
    own = server is None
    if own:
        server = QueryServer(workers=2, collapse=True)
        server.add_tenant("tenant0", store)
    try:
        for _ in range(calls):
            with tracer.span("serve.probe_query"):
                server.query("tenant0", HOT)
            with tracer.span("session.probe_query"):
                store.query(HOT)
        for target in workload.targets:
            with tracer.span("serve.probe_update"):
                server.update_text("tenant0", target, edit_text(rng))
            with tracer.span("serve.probe_fresh"):
                got = server.query("tenant0", HOT).value
            out.judge(rows(got) == workload.expected_hot, "serve fresh read")
        judged.append(out)
        return server_counters(server)
    finally:
        if own:
            server.close()


def reload_probe(workload, tracer: Tracer, judged: list):
    """Save, reload as configured, reload on the SQL backend and run
    the seven classes there; returns ``(snapshot bytes, sql counters)``."""
    store, out, span = workload.store, Pass(), tracer.span
    with tempfile.TemporaryDirectory(dir=results_dir()) as folder:
        path = os.path.join(folder, "snapshot")
        with span("session.save"):
            written = store.save(path)
        with span("session.reload"):
            again = DocumentStore.load(path, backend="algebra",
                                       structural=True)
        want = rows(store.query(PATH_TITLES))
        out.judge(rows(again.query(PATH_TITLES)) == want, "reload")
        sql = DocumentStore.load(path, backend="sql", structural=True)
    sql.build_text_index()
    registry = sql.enable_metrics()
    with span("sqlbackend.shred_build"):
        got = rows(sql.query(PATH_TITLES))
    out.judge(got == want, "sql path_titles")
    for text in CLASSES.values():
        want = rows(store.query(text))
        sql.query(text)
        for _ in range(3):
            with span("sqlbackend.execute"):
                got = rows(sql.query(text))
        out.judge(got == want, f"sql: {text}")
    judged.append(out)
    return written, registry.snapshot()["counters"]
