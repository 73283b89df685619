"""The four closed-loop workloads: seeded inputs, set-up, fixed op
plans and independent oracles.

A workload object is one set-up: ``Workload(seed, params)`` generates
the inputs (the same seed gives the same inputs), ``setup()`` builds
the stores, indexes and oracles and warms what the workload defines as
warm, ``run_pass()`` executes the fixed op plan once and judges every
result, ``save_sample()`` measures the stored bytes.  With a tracer the
same steps run as staged calls into the layers' public functions, one
span each (see ``e2e_trace``).

Only the public API is used: ``repro.DocumentStore``,
``repro.QueryServer`` and the layers' public module functions.  The
load generator is this file — it imports neither
``repro.serve.loadgen`` nor ``benchmarks/conftest.py``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import statistics
import tempfile
import threading
import time
from contextlib import nullcontext
from pathlib import Path

from repro import DocumentStore, QueryServer
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE, article_dtd
from repro.corpus.generator import generate_corpus
from repro.errors import MappingError
from repro.sgml.instance import Element
from repro.sgml.instance_parser import parse_document
from repro.sgml.validator import validation_problems
from repro.sgml.writer import write_document

from e2e_trace import eval_context, staged_query

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS_DIR = ROOT / "bench_results"
SPEC = json.loads((HERE / "spec.json").read_text())

CLASSES: dict[str, str] = SPEC["query_classes"]
PATH_TITLES = CLASSES["path_titles"]
HOT = CLASSES["q3_root_path"]
SECTION_TITLES = "select s.title from a in Articles, s in a.sections"

#: Words the edits draw from: none is searched for by any query class
#: or cold template, so expected results never depend on the edits.
_EDIT_WORDS = ("Revised", "heading", "interim", "working", "notes",
               "outline", "summary", "appendix")
#: Literals of the ``compile_cold`` variants (the generator's title and
#: body vocabulary plus words that match nothing).
_COLD_WORDS = ("SGML", "OODBMS", "Documents", "Queries", "Paths", "Unions",
               "Storage", "Mapping", "Calculus", "Algebra", "Types",
               "Schemas", "structured", "document", "database", "object",
               "complex", "query", "path", "attribute", "schema", "union",
               "tuple", "retrieval", "pattern", "index", "final", "draft",
               "zeugma", "quixotic")


#: How many section titles the edits rotate over.
EDIT_TARGETS = 3

#: What ``--corrupt-oracle`` swaps one expected result for.
CORRUPTED = frozenset({"corrupted"})


class Failure:
    """The outcome of an op that raised (or was refused)."""

    def __init__(self, error: Exception) -> None:
        self.error = error

    def __repr__(self) -> str:
        return f"Failure({self.error!r})"

    def __len__(self) -> int:
        return 0


def rows(result) -> frozenset:
    """A result set as comparable data, independent of the program's
    own value equality."""
    return frozenset(repr(value) for value in result)


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def spanner(tracer):
    """``tracer.span``, or a no-op with the same signature."""
    if tracer is not None:
        return tracer.span
    return lambda name, request=None: nullcontext()


def load_doc(store, text: str, tracer=None, name: str | None = None,
             live: bool = False):
    """``store.load_text(text)`` — traced: the three calls it makes,
    one span each (``live`` names a load that maintains a text index)."""
    if tracer is None:
        return store.load_text(text, name=name)
    with tracer.span("sgml.parse"):
        tree = parse_document(text, store.dtd)
    with tracer.span("sgml.validate"):
        problems = validation_problems(tree, store.dtd)
    if problems:
        raise MappingError("invalid document: " + "; ".join(problems))
    with tracer.span("session.load_live" if live else "session.load_tree"):
        return store.load_tree(tree, name=name, validate=False)


def run_ops(ops, execute, tracer=None, first_request: int = 0):
    """The closed loop: one client, the next op only after the previous
    completed.  Returns ``(records, start, end)``; a record is
    ``(op, start, latency, outcome)``, a raised op a :class:`Failure`."""
    span = spanner(tracer)
    records = []
    begin = time.perf_counter()
    for index, op in enumerate(ops):
        start = time.perf_counter()
        try:
            with span("op", request=first_request + index):
                outcome = execute(op)
        except Exception as error:  # counted as a failed op, not fatal
            outcome = Failure(error)
        records.append((op, start, time.perf_counter() - start, outcome))
    return records, begin, time.perf_counter()


class Pass:
    """What one timed pass (or one judged step outside it) yields."""

    def __init__(self) -> None:
        #: metric -> the samples this pass adds to the run's pool
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.result_rows = 0
        self.writes = 0
        #: summed latency and count of the correct ops (coverage ratio)
        self.op_seconds = 0.0
        self.op_count = 0
        self.first_failure: str | None = None

    def add(self, metric: str, *values: float) -> None:
        self.samples.setdefault(metric, []).extend(values)

    def judge(self, ok: bool, detail) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = str(detail)[:300]
        return ok

    def latency_samples(self, latencies: list[float], wall: float,
                        others: list[float] = ()) -> None:
        """ops_per_s / op_p50_ms / op_p95_ms from the correct ops'
        latencies (seconds) — a failed op is missing from each.
        ``others`` are correct ops outside the latency percentiles
        (the writes of ``serve_mixed``)."""
        self.op_seconds = sum(latencies) + sum(others)
        self.op_count = len(latencies) + len(others)
        if latencies:
            self.add("ops_per_s", (self.attempted - self.failed) / wall)
            self.add("op_p50_ms", statistics.median(latencies) * 1e3)
            self.add("op_p95_ms", percentile(latencies, 0.95) * 1e3)


def timed_passes(workload, seconds: float) -> list:
    """Whole passes of the fixed op plan until ``seconds`` have gone by
    (always at least one): the plan is never cut short, so every pass
    measures the same work."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        passes.append(workload.run_pass())
        if time.perf_counter() >= deadline:
            return passes


def pooled(passes: list, metric: str) -> list[float]:
    """Every sample of ``metric`` the passes added."""
    return [value for p in passes for value in p.samples.get(metric, ())]


class Workload:
    """Shared plumbing; see the module doc for the life cycle."""

    name = ""

    def __init__(self, seed: int, params: dict, tracer=None) -> None:
        self.seed = seed
        self.p = params
        self.set_tracer(tracer)
        #: registries of every store whose metrics were enabled (traced
        #: runs only); counters are summed over them
        self.registries: list = []
        self.metrics_on = False
        self.store = None
        self.ctx = None
        self.targets: list = []
        self.expected_hot: frozenset | None = None
        self.input_bytes = 0
        self.make_inputs()

    def set_tracer(self, tracer) -> None:
        self.tracer = tracer
        self.span = spanner(tracer)

    # -- seeded inputs ------------------------------------------------------

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{purpose}")

    def corpus(self, count: int, salt: str = "corpus", **options):
        """``count`` generated articles as ``(trees, SGML texts)``."""
        seed = self.rng(salt).randrange(1, 1_000_000)
        trees = generate_corpus(count, seed=seed, **options)
        dtd = article_dtd()
        return trees, [write_document(tree, dtd) for tree in trees]

    def make_inputs(self) -> None:
        raise NotImplementedError

    def plan_digest(self) -> str:
        """sha256 over the generated inputs and the op plan."""
        payload = json.dumps(self.plan_data(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def plan_data(self):
        raise NotImplementedError

    # -- building blocks ----------------------------------------------------

    def new_store(self) -> DocumentStore:
        store = DocumentStore(ARTICLE_DTD, backend="algebra",
                              structural=True)
        if self.metrics_on:
            self.registries.append(store.enable_metrics())
        load_doc(store, SAMPLE_ARTICLE, self.tracer, name="my_article")
        return store

    def build_store(self, docs: list[str]) -> DocumentStore:
        """A loaded, text-indexed store.  Its structural index is stale
        (every load dirtied it): the first query rebuilds it, which is
        what ``first_query_s`` is there to show."""
        store = self.new_store()
        for text in docs:
            load_doc(store, text, self.tracer)
        with self.span("text.index_build"):
            store.build_text_index()
        return store

    def build_oracle(self, trees) -> DocumentStore:
        """The independent oracle: the generator's trees (never the SGML
        text) loaded into an index-free ``backend="calculus"`` store, in
        the same order, so oids line up with the store under test."""
        oracle = DocumentStore(ARTICLE_DTD, backend="calculus")
        oracle.load_text(SAMPLE_ARTICLE, name="my_article")
        for tree in trees:
            with self.span("mapping.load"):
                oracle.load_tree(tree, validate=False)
        return oracle

    def expect(self, oracle, text: str) -> frozenset:
        with self.span("calculus.evaluate"):
            return rows(oracle.query(text))

    def pick_targets(self, oracle, salt: str = "targets") -> list:
        """The section-title objects the edits rewrite in turn (seeded;
        from the later-loaded half, so never inside ``my_article``).
        Several, because the cost of an edit follows the size of the
        article around it."""
        titles = sorted(oracle.query(SECTION_TITLES),
                        key=lambda oid: oid.number)
        later = titles[len(titles) // 2:]
        return self.rng(salt).sample(later, min(EDIT_TARGETS, len(later)))

    def query(self, store, text: str):
        """``store.query(text)`` — traced: the staged sequence."""
        if self.tracer is None:
            return store.query(text)
        return staged_query(store, self.ctx, self.tracer, text,
                            self.ctx.metrics)[0]

    def first_query(self, out: Pass, ask, store, expected) -> frozenset:
        """Time and judge the first ``path_titles`` after the last load:
        the structural-index rebuild the loads made due, the compile,
        the execution.  Traced, the rebuild runs first under its own
        span.  Returns the rows (a :class:`Failure` if it raised)."""
        if self.tracer is not None:
            with self.span("structindex.build"):
                store.build_structural_index()
        gc.collect()
        start = time.perf_counter()
        try:
            got = rows(ask(PATH_TITLES))
        except Exception as error:
            got = Failure(error)
        seconds = time.perf_counter() - start
        if out.judge(got == expected, got):
            out.add("first_query_s", seconds)
        return got

    def enable_metrics(self) -> None:
        """Traced runs: count from now on, on every store."""
        self.metrics_on = True
        for store in self.stores():
            self.registries.append(store.enable_metrics())
        if self.store is not None:
            self.ctx = eval_context(self.store, self.store.enable_metrics())

    def stores(self) -> list:
        return [self.store] if self.store is not None else []

    def counters(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for registry in self.registries:
            for name, value in registry.snapshot()["counters"].items():
                total[name] = total.get(name, 0) + value
        return total

    # -- life cycle ---------------------------------------------------------

    def setup(self) -> Pass:
        raise NotImplementedError

    def run_pass(self, first_request: int = 0) -> Pass:
        raise NotImplementedError

    def edit_rotation(self, out: Pass, rng: random.Random) -> None:
        """The edit probe of the traced run.  For each target in turn:
        ``update_text``, the index refresh and the statistics
        re-collection the next read would pay (under their own spans),
        then that read — the first ``q3_root_path`` after the edit."""
        store, span = self.store, self.span
        for target in self.targets:
            text = edit_text(rng)
            try:
                with span("session.update_text"):
                    store.update_text(target, text)
                ok, detail = True, None
            except Exception as error:
                ok, detail = False, error
            if out.judge(ok, detail):
                out.writes += 1
            with span("structindex.refresh"):
                store.struct_index.refresh()
            with span("stats.recollect"):
                store.stats_manager.snapshot()
            try:
                with span("session.fresh_read"):
                    got = rows(self.query(store, HOT))
            except Exception as error:
                got = Failure(error)
            out.judge(got == self.expected_hot, got)

    def save_sample(self, out: Pass) -> None:
        with tempfile.TemporaryDirectory(dir=results_dir()) as folder:
            with self.span("session.save"):
                written = self.store.save(os.path.join(folder, "snapshot"))
        out.add("stored_bytes_per_input_byte", written / self.input_bytes)

    def close(self) -> None:
        """Stop whatever the set-up started."""


def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def edit_text(rng: random.Random) -> str:
    return (f"{rng.choice(_EDIT_WORDS)} {rng.choice(_EDIT_WORDS)} "
            f"{rng.randrange(10 ** 6)}")


def input_bytes(docs: list[str]) -> int:
    return sum(len(text.encode()) for text in [SAMPLE_ARTICLE, *docs])


class _QueryWorkload(Workload):
    """One client calling ``store.query`` over a fixed list of texts."""

    def make_corpus(self) -> None:
        self.trees, self.docs = self.corpus(self.p["articles"])
        self.input_bytes = input_bytes(self.docs)

    def plan_data(self):
        return {"docs": self.docs, "ops": self.ops}

    def setup(self) -> Pass:
        out = Pass()
        self.store = self.build_store(self.docs)
        self.ctx = eval_context(self.store)
        oracle = self.build_oracle(self.trees)
        self.targets = self.pick_targets(oracle)
        self.expected = {text: self.expect(oracle, text)
                         for text in self.oracle_texts()}
        self.expected_hot = self.expected[HOT]
        self.first_query(out, lambda text: self.query(self.store, text),
                         self.store, self.expected[PATH_TITLES])
        return out

    def oracle_texts(self) -> list[str]:
        raise NotImplementedError

    def pass_ops(self) -> list[str]:
        """The texts of the next pass."""
        return self.ops

    def run_pass(self, first_request: int = 0) -> Pass:
        out = Pass()
        records, begin, end = run_ops(
            self.pass_ops(), lambda text: self.query(self.store, text),
            self.tracer, first_request)
        latencies = []
        for text, _, latency, outcome in records:
            if self.judge_query(out, text, outcome):
                latencies.append(latency)
                out.result_rows += len(outcome)
        out.latency_samples(latencies, end - begin)
        return out

    def judge_query(self, out: Pass, text: str, outcome) -> bool:
        if isinstance(outcome, Failure):
            return out.judge(False, outcome)
        return out.judge(rows(outcome) == self.expected[text], text)

    def corrupt_oracle(self) -> None:
        self.expected[self.ops[0]] = CORRUPTED


class ScanWarm(_QueryWorkload):
    name = "scan_warm"

    def make_inputs(self) -> None:
        self.make_corpus()
        # one cycle: short enough to fit inside one host speed level
        self.ops = list(CLASSES.values())
        self.rng("plan").shuffle(self.ops)

    def oracle_texts(self) -> list[str]:
        return list(CLASSES.values())

    def setup(self) -> Pass:
        out = super().setup()
        # warm: every text once, so every timed lookup hits the cache
        for text in CLASSES.values():
            self.judge_query(out, text, self.query(self.store, text))
        return out


class CompileCold(_QueryWorkload):
    name = "compile_cold"

    def make_inputs(self) -> None:
        self.make_corpus()
        rng = self.rng("plan")
        pairs = [(a, b) for a in _COLD_WORDS for b in _COLD_WORDS if a != b]
        templates = list(SPEC["cold_templates"].values())
        variants = self.p["variants"]
        picked = iter(rng.sample(pairs, variants * len(templates)))
        self.ops = []
        for variant in range(variants):
            joiner = "or" if variant % 2 else "and"
            for template in templates:
                first, second = next(picked)
                self.ops.append(template.format(
                    p=f'"{first}" {joiner} "{second}"'))
        self.cursor = 0

    def pass_ops(self) -> list[str]:
        """The next ``variants_per_pass`` variants of every template.
        The cyclic order over all texts carries on from pass to pass —
        more texts than the plan cache holds, so every lookup misses —
        and a pass is short enough to fit between two bursts of host
        contention."""
        size = self.p["variants_per_pass"] * len(SPEC["cold_templates"])
        block = self.ops[self.cursor:self.cursor + size]
        self.cursor = (self.cursor + size) % len(self.ops)
        return block

    def oracle_texts(self) -> list[str]:
        # every ``oracle_every``-th text against the calculus; the rest
        # are held to pass-to-pass equality (see judge_query)
        return [HOT, PATH_TITLES, *self.ops[::self.p["oracle_every"]]]

    def judge_query(self, out: Pass, text: str, outcome) -> bool:
        if isinstance(outcome, Failure):
            return out.judge(False, outcome)
        return out.judge(
            rows(outcome) == self.expected.setdefault(text, rows(outcome)),
            text)


class ServeMixed(Workload):
    name = "serve_mixed"

    def make_inputs(self) -> None:
        p = self.p
        self.tenant_names = [f"tenant{i}" for i in range(p["tenants"])]
        self.tenant_inputs = {
            tenant: self.corpus(p["articles"], salt=f"corpus:{tenant}")
            for tenant in self.tenant_names}
        first = self.tenant_names[0]
        self.input_bytes = input_bytes(self.tenant_inputs[first][1])
        cold = [text for name, text in CLASSES.items()
                if name not in ("q3_root_path", "q2_path_contains")]
        # exact shares, seeded order: with drawn shares the read median
        # moved with the realised hot share from seed to seed
        total = p["ops_per_client"]
        writes = round(total * p["write_share"])
        hot = round((total - writes) * p["hot_fraction"])
        self.client_plans = []
        for client in range(p["clients"]):
            rng = self.rng(f"plan:{client}")
            plan = [["write", edit_text(rng), rng.randrange(EDIT_TARGETS)]
                    for _ in range(writes)]
            plan += [["read", HOT]] * hot
            plan += [["read", cold[index % len(cold)]]
                     for index in range(total - writes - hot)]
            rng.shuffle(plan)
            tenants = [self.tenant_names[index % len(self.tenant_names)]
                       for index in range(total)]
            rng.shuffle(tenants)
            self.client_plans.append(
                [[kind, tenant, *rest]
                 for (kind, *rest), tenant in zip(plan, tenants)])

    def plan_data(self):
        return {"docs": {tenant: docs for tenant, (_, docs)
                         in self.tenant_inputs.items()},
                "ops": self.client_plans}

    def setup(self) -> Pass:
        out = Pass()
        p = self.p
        self.server = QueryServer(workers=p["workers"], collapse=True)
        self.tenant_targets, self.expected, self.last_epoch = {}, {}, {}
        rng = self.rng("setup-edit")
        for tenant in self.tenant_names:
            trees, docs = self.tenant_inputs[tenant]
            store = self.build_store(docs)
            self.server.add_tenant(tenant, store)
            oracle = self.build_oracle(trees)
            targets = self.pick_targets(oracle, salt=f"targets:{tenant}")
            # one edit of each target before the oracles are computed,
            # so expected results do not depend on the timed edits
            for target in targets:
                text = edit_text(rng)
                store.update_text(target, text)
                oracle.update_text(target, text)
            self.tenant_targets[tenant] = targets
            self.expected[tenant] = {
                text: self.expect(oracle, text) for text in CLASSES.values()}
        first = self.tenant_names[0]
        self.store = self.server.tenant(first)
        self.ctx = eval_context(self.store)
        self.targets = self.tenant_targets[first]
        self.expected_hot = self.expected[first][HOT]
        self.first_query(
            out, lambda text: self.server.query(first, text).value,
            self.store, self.expected[first][PATH_TITLES])
        # warm every (tenant, text) and record the epochs seen
        for tenant in self.tenant_names:
            for text in CLASSES.values():
                self.judge_read(out, tenant, text,
                                self.server.query(tenant, text))
        return out

    def stores(self) -> list:
        return [self.server.tenant(t) for t in self.tenant_names]

    def execute(self, op):
        kind, tenant, text, *slot = op
        if kind == "read":
            with self.span("serve.query"):
                return self.server.query(tenant, text)
        with self.span("serve.update_text"):
            targets = self.tenant_targets[tenant]
            return self.server.update_text(
                tenant, targets[slot[0] % len(targets)], text)

    def judge_read(self, out: Pass, tenant: str, text: str, outcome):
        """Judge one read; returns whether it was *fresh* (its epoch is
        newer than the last the harness saw for that tenant and text),
        or ``None`` when it failed."""
        if isinstance(outcome, Failure):
            out.judge(False, outcome)
            return None
        if not out.judge(rows(outcome.value) == self.expected[tenant][text],
                         (tenant, text)):
            return None
        out.result_rows += len(outcome.value)
        seen = self.last_epoch.get((tenant, text), -1)
        self.last_epoch[tenant, text] = max(seen, outcome.epoch)
        return outcome.epoch > seen

    def run_pass(self, first_request: int = 0) -> Pass:
        out = Pass()
        logs: list = [None] * len(self.client_plans)
        barrier = threading.Barrier(len(self.client_plans))

        def client(index: int) -> None:
            barrier.wait()
            logs[index] = run_ops(
                self.client_plans[index], self.execute, self.tracer,
                first_request + index * self.p["ops_per_client"])

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(len(self.client_plans))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=150)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("serve_mixed client did not finish")
        begin = min(log[1] for log in logs)
        end = max(log[2] for log in logs)
        # judged in completion order, which is what "the last epoch the
        # harness saw" means with two clients
        merged = sorted((record for log in logs for record in log[0]),
                        key=lambda record: record[1] + record[2])
        reads, writes, fresh = [], [], []
        for (kind, tenant, text, *_), _, latency, outcome in merged:
            if kind == "write":
                if out.judge(not isinstance(outcome, Failure), outcome):
                    writes.append(latency)
                    out.writes += 1
                continue
            is_fresh = self.judge_read(out, tenant, text, outcome)
            if is_fresh is not None:
                reads.append(latency)
                if is_fresh:
                    fresh.append(latency)
        out.latency_samples(reads, end - begin, writes)
        # per-layer samples (seconds), read by the traced run
        out.add("serve.write", *writes)
        out.add("serve.fresh_read", *fresh)
        return out

    def corrupt_oracle(self) -> None:
        _, tenant, text = next(op for op in self.client_plans[0]
                               if op[0] == "read")
        self.expected[tenant][text] = CORRUPTED

    def close(self) -> None:
        self.server.close()


def count_elements(tree: Element, name: str) -> int:
    found = 1 if tree.name == name else 0
    return found + sum(count_elements(child, name)
                       for child in tree.children
                       if isinstance(child, Element))


class Ingest(Workload):
    name = "ingest"

    def make_inputs(self) -> None:
        self.trees, self.docs = self.corpus(
            self.p["articles"],
            paragraphs_per_body=self.p["paragraphs_per_body"])
        self.input_bytes = input_bytes(self.docs)

    def plan_data(self):
        return {"docs": self.docs}

    def setup(self) -> Pass:
        oracle = self.build_oracle(self.trees)
        self.targets = self.pick_targets(oracle)
        self.expected_titles = self.expect(oracle, PATH_TITLES)
        self.expected_hot = self.expect(oracle, HOT)
        # a second oracle that never runs the engine: title elements
        # counted in the generated trees (+ the sample article's)
        sample = parse_document(SAMPLE_ARTICLE, article_dtd())
        self.title_count = sum(count_elements(tree, "title")
                               for tree in [sample, *self.trees])
        return Pass()

    def run_pass(self, first_request: int = 0) -> Pass:
        out = Pass()
        # untimed: the previous pass's store is not this pass's cost
        self.store = self.ctx = None
        gc.collect()
        # every load maintains the text index live: it exists before
        # the first generated article arrives
        store = self.new_store()
        with self.span("text.index_build"):
            store.build_text_index()
        records, begin, end = run_ops(
            self.docs,
            lambda text: load_doc(store, text, self.tracer, live=True),
            self.tracer, first_request)
        latencies = [latency for _, _, latency, outcome in records
                     if out.judge(not isinstance(outcome, Failure), outcome)]
        out.latency_samples(latencies, end - begin)
        self.store = store
        self.ctx = eval_context(store, store.enable_metrics()
                                if self.metrics_on else None)
        got = self.first_query(out, lambda text: self.query(store, text),
                               store, self.expected_titles)
        out.judge(len(got) == self.title_count,
                  f"{len(got)} titles, {self.title_count} in the trees")
        out.result_rows = len(got)
        self.save_sample(out)
        documents = store.stats()["documents"]
        out.judge(documents == len(self.docs) + 1,
                  f"{documents} documents")
        try:
            store.check()
            out.judge(True, None)
        except Exception as error:
            out.judge(False, error)
        return out

    def corrupt_oracle(self) -> None:
        self.expected_titles = CORRUPTED


WORKLOADS = {cls.name: cls
             for cls in (ScanWarm, CompileCold, ServeMixed, Ingest)}


def frozen(entry: dict, smoke: bool = False) -> dict:
    """A ``spec.json`` parameter block, its ``smoke`` overrides applied
    on request."""
    values = dict(entry)
    overrides = values.pop("smoke")
    if smoke:
        values.update(overrides)
    return values


def params(name: str, smoke: bool = False) -> dict:
    """The frozen parameters of a workload."""
    return frozen(SPEC["workloads"][name], smoke)
