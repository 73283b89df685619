"""The end-to-end O₂SQL engine.

``QueryEngine`` wires the pipeline together: parse → translate to the
calculus → static safety check → type inference against the schema →
evaluation, either with the calculus interpreter, with a compiled and
optimized algebra plan (Section 5.4: path variables as structural-index
range scans by default, as the union-of-plans with
``structural=False``), or —
``backend="sql"`` — with that same plan's maximal relational prefix
emitted as SQL over the instance's shredding
(:mod:`repro.sqlbackend`), the remainder running as plan operators
over the hydrated rows.

Everything before execution is a pure function of the query text, the
schema and the store's data, so it can be memoized: when a
:class:`~repro.cache.plancache.PlanCache` is installed, :meth:`run`
resolves its artifacts through the cache (epoch-guarded, so data and
schema changes force a recompile), :meth:`prepare` returns a
:class:`~repro.cache.prepared.PreparedQuery` handle, and
:meth:`run_many` amortizes the cache lookups over a batch.

Every stage is traced: when a :class:`~repro.observe.trace.Tracer` is
installed on the evaluation context (or handed to :meth:`profile`), the
engine records one span per stage with deterministic annotations (plan
size, union fan-out, result cardinality).  On a cache hit the
compile-side spans are genuinely absent — the trace shows execution
only.  With no tracer installed the stages run undecorated through a
shared no-op tracer — the instrumented path costs one context-manager
entry per *stage*, never per row.

Evaluation state is per call: each run executes against a fork of the
engine's context, so concurrent reads from several threads share plans
and counters but never per-query scratch state.
"""

from __future__ import annotations

from repro.cache import CachedArtifacts, PlanCache, PreparedQuery
from repro.calculus.evaluator import EvalContext, evaluate_query
from repro.calculus.inference import infer_types
from repro.calculus.safety import check_safety
from repro.o2sql.parser import parse
from repro.o2sql.translate import to_calculus
from repro.observe.trace import NULL_TRACER
from repro.oodb.instance import Instance
from repro.oodb.values import SetValue
from repro.paths.enumeration import LIBERAL, RESTRICTED

#: The evaluators a :class:`QueryEngine` runs, the default first.
BACKENDS = ("algebra", "sql", "calculus")


class QueryEngine:
    """Run O₂SQL text against a database instance.

    ``cache`` is an optional :class:`~repro.cache.plancache.PlanCache`.
    A bare engine defaults to no cache (mutating the instance directly
    stays safe); :class:`~repro.session.DocumentStore` always installs
    one and bumps its epoch on every mutation it performs.

    ``backend`` picks the evaluator: ``"algebra"`` (the default, a
    compiled and optimized plan), ``"sql"`` (that plan's relational
    prefix as SQL) or ``"calculus"`` (the interpreter — the semantic
    oracle, and the only backend of the liberal path semantics, which
    the algebra cannot express: Section 5.4 has no transitive-closure
    operator).  The configuration is checked here, once: an unknown
    backend or path semantics, or the liberal semantics on a compiled
    backend, raises :class:`ValueError` instead of failing (or running
    another backend) at the first query.

    ``structural`` names the one plan :meth:`compile` builds for a path
    variable: a structural-index range scan (the default, experiment
    P9; it pays off with a StructuralIndex on ``ctx`` and stays correct
    without one — scans fall back to live walks) or, with ``False``,
    the Section 5.4 union-of-plans, the paper-faithful reference.
    """

    def __init__(self, instance: Instance,
                 path_semantics: str = RESTRICTED,
                 backend: str = "algebra",
                 cache: PlanCache | None = None,
                 structural: bool = True) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; use one of {BACKENDS}")
        if path_semantics not in (RESTRICTED, LIBERAL):
            raise ValueError(
                f"unknown path semantics {path_semantics!r}; use "
                f"{RESTRICTED!r} or {LIBERAL!r}")
        if path_semantics == LIBERAL and backend != "calculus":
            raise ValueError(
                'the liberal path semantics needs backend="calculus" '
                f"(backend={backend!r} compiles to the algebra, which "
                "has no transitive-closure operator: Section 5.4)")
        self.instance = instance
        self.ctx = EvalContext(instance, path_semantics=path_semantics)
        self.backend = backend
        self.cache = cache
        #: The relational backend (``backend="sql"`` only): plans are
        #: still compiled and optimized as usual, then the maximal
        #: relational prefix is emitted as SQL over the instance's
        #: shred; anything the emitter refuses runs as the plan.  The
        #: backend owns the structural index its shred projects (over
        #: the same ``cache`` epoch; cacheless, every run rebuilds it).
        self.sql_backend = None
        if backend == "sql":
            from repro.sqlbackend.backend import SQLBackend
            self.sql_backend = SQLBackend(instance, epoch_source=cache)
        #: Range scans or the union-of-plans (see the class docstring);
        #: part of the plan-cache key.
        self.structural = structural
        #: Optional :class:`~repro.stats.StatisticsManager` (the store
        #: installs one).  When set, executed plans are counted; no
        #: compile and no :meth:`profile` reads a snapshot.
        self.stats = None

    # -- pipeline stages ------------------------------------------------------

    def parse(self, text: str):
        return parse(text)

    def translate(self, text: str):
        """Parse + translate; returns the calculus query."""
        node = self.parse(text)
        return to_calculus(node, self.instance.schema.roots.keys())

    def check(self, text: str) -> dict:
        """Static checks only; returns the inferred variable types."""
        query = self.translate(text)
        check_safety(query)
        return infer_types(query, self.instance.schema)

    # -- the cached front end -------------------------------------------------

    def cache_key(self, text: str) -> tuple:
        return PlanCache.key_for(text, self.backend,
                                 self.ctx.path_semantics, self.structural)

    def artifacts(self, text: str) -> CachedArtifacts:
        """The pipeline artifacts for ``text``, through the cache when
        one is installed (compiling on miss or staleness)."""
        entry, _ = self._artifacts(text, NULL_TRACER, self.ctx.metrics)
        return entry

    def _artifacts(self, text: str, tracer, metrics):
        """Resolve (artifacts, was_cache_hit) for one query text: the
        cache lookup and the text front end (parse → translate →
        safety → inference); everything from the calculus query on is
        :meth:`compile`.

        The epoch is captured *before* compilation starts: if a writer
        bumps it mid-compile, the stored entry is already stale-tagged
        and the next lookup recompiles — never a stale serve.
        """
        cache = self.cache
        key = None
        epoch = 0
        if cache is not None:
            key = self.cache_key(text)
            epoch = cache.epoch
            entry = cache.lookup(key, metrics=metrics)
            if entry is not None:
                return entry, True
        with tracer.span("parse"):
            node = parse(text)
        with tracer.span("translate"):
            query = to_calculus(node, self.instance.schema.roots.keys())
        with tracer.span("safety"):
            check_safety(query)
        with tracer.span("inference"):
            infer_types(query, self.instance.schema)
        entry = self.compile(query, key=key, epoch=epoch, tracer=tracer,
                             metrics=metrics)
        if cache is not None:
            cache.store(key, entry, metrics=metrics)
        return entry, False

    def compile(self, query, key=None, epoch: int = 0,
                tracer=NULL_TRACER, metrics=None) -> CachedArtifacts:
        """The back half of the pipeline, from a calculus query to the
        artifacts :meth:`execute` serves: compile to the algebra →
        optimize (every rewrite stage gated by the plancheck verifier
        under the ``"warn"`` policy — a faulty stage is dropped,
        counted and warned about, and the last verified plan is
        served) → on ``backend="sql"``, emit the relational prefix.
        On the calculus backend the artifacts carry the query alone.

        This is the one definition of the stage sequence: the text
        front end (and through it ``python -m repro.plancheck
        --verify``) ends here, and :mod:`repro.diffcheck`, which
        generates calculus queries, not text, enters here.
        ``key``/``epoch`` tag the artifacts for the plan cache.  No
        statistics snapshot is taken: a plan's shape depends on the
        query and the schema alone.
        """
        plan = None
        if self.backend != "calculus":
            from repro.algebra.compile import compile_query
            from repro.algebra.operators import SharedOp, UnionOp, walk_once
            from repro.algebra.optimizer import optimize
            with tracer.span("compile") as span:
                plan = compile_query(
                    query, self.instance.schema,
                    path_semantics=self.ctx.path_semantics,
                    structural=self.structural)
                plan = optimize(plan, query=query, metrics=metrics,
                                tracer=tracer)
                if span.recording:
                    nodes = walk_once(plan)
                    span.annotate("operators", len(nodes))
                    span.annotate("unions", sum(
                        isinstance(node, UnionOp) for node in nodes))
                    span.annotate("shared", sum(
                        isinstance(node, SharedOp) for node in nodes))
                    span.annotate("verified", True)
        sql_program = None
        if self.sql_backend is not None:
            from repro.errors import SQLUnsupportedError
            with tracer.span("emit.sql") as span:
                try:
                    sql_program = self.sql_backend.compile(
                        plan, metrics=metrics)
                    span.annotate("statements",
                                  len(sql_program.programs))
                except SQLUnsupportedError:
                    # not hybridizable: the entry serves as a plan
                    span.annotate("statements", 0)
                    if metrics is not None:
                        metrics.inc("sql.unsupported")
        return CachedArtifacts(
            query=query, plan=plan, epoch=epoch, key=key,
            verified=plan is not None, sql_program=sql_program)

    # -- execution ------------------------------------------------------------

    def run(self, text: str) -> SetValue:
        """The full pipeline; the result is always a set."""
        result, _, _ = self._run(text, self.ctx.tracer or NULL_TRACER)
        return result

    def prepare(self, text: str) -> PreparedQuery:
        """Compile now, run later (and often).  Installs a plan cache
        on engines that have none yet."""
        if self.cache is None:
            self.cache = PlanCache()
            if self.sql_backend is not None:
                # freshness rides the cache epoch from here on
                self.sql_backend.shred.index.epoch_source = self.cache
        return PreparedQuery(self, text)

    def run_many(self, texts) -> list[SetValue]:
        """Run a batch; artifacts are resolved once per distinct
        normalized text, so the per-query overhead of a large
        homogeneous batch is one cache lookup amortized over all its
        repetitions.  Each text still executes separately (results come
        back in input order)."""
        tracer = self.ctx.tracer or NULL_TRACER
        memo: dict = {}
        results = []
        for text in texts:
            key = self.cache_key(text)
            entry = memo.get(key)
            if entry is None:
                entry, _ = self._artifacts(text, tracer, self.ctx.metrics)
                memo[key] = entry
            results.append(self._run(text, tracer, entry)[0])
        return results

    def _run(self, text: str, tracer, entry: CachedArtifacts | None = None):
        """Run all stages under spans; returns
        ``(result, executed-plan-or-None, emitted-sql-or-None)``.
        ``entry`` is the artifacts a batch already resolved for this
        text; without it they are resolved here, inside the ``query``
        span, so a miss shows its compile-side spans."""
        with tracer.span("query", backend=self.backend) as root:
            if entry is None:
                entry, hit = self._artifacts(text, tracer,
                                             self.ctx.metrics)
                if self.cache is not None:
                    root.annotate("plan_cache", "hit" if hit else "miss")
            result, plan, sql = self._execute(entry, tracer)
            root.annotate("rows", len(result))
            return result, plan, sql

    def execute(self, entry: CachedArtifacts) -> SetValue:
        """Execute compiled artifacts on a fresh context fork — what a
        plan-cache hit does, as often as the caller likes."""
        return self._execute(entry, self.ctx.tracer or NULL_TRACER)[0]

    def _execute(self, entry: CachedArtifacts, tracer):
        """Execute ``entry`` on a fork of the engine's context and
        report what actually ran: the hybrid (SQL-fed) plan when one
        was compiled, the ordinary plan otherwise — including when a
        compiled hybrid *refuses at run time* (non-navigable root,
        path-semantics or enumeration guard), which falls back
        transparently and counts ``sql.fallbacks`` — or, on the
        calculus backend, no plan at all."""
        ctx = self.ctx.fork()
        if entry.plan is None:
            with tracer.span("evaluate"):
                return evaluate_query(entry.query, ctx), None, None
        result = plan = sql = None
        hybrid = entry.sql_program
        if hybrid is not None:
            from repro.errors import SQLUnsupportedError
            try:
                with tracer.span("execute.sql"):
                    result = self.sql_backend.execute(hybrid, ctx)
                plan, sql = hybrid.plan, hybrid.sql
            except SQLUnsupportedError:
                if ctx.metrics is not None:
                    ctx.metrics.inc("sql.fallbacks")
        if plan is None:
            from repro.algebra.execute import execute_plan
            with tracer.span("execute"):
                result = execute_plan(entry.plan, ctx)
            plan = entry.plan
        if self.stats is not None:
            self.stats.record_execution(entry.key, None, len(result))
        return result, plan, sql

    # -- observability --------------------------------------------------------

    def profile(self, text: str):
        """Run ``text`` fully observed; returns an
        :class:`~repro.observe.report.ExplainReport` with the result, the
        executed plan annotated with actual per-operator row counts
        (algebra backend), the stage span tree and a metrics snapshot.

        Observation is scoped to this one query: fresh registry, tracer
        and profiler are installed for the duration and the previous
        observers (if any) are restored afterwards.  The run goes
        through the plan cache like any other — on a warm cache the
        span tree carries no compile-side stages and the ``cache.hits``
        counter appears in the snapshot.
        """
        from repro.observe import (
            ExplainReport,
            MetricsRegistry,
            PlanProfiler,
            Tracer,
            observed,
        )
        metrics = MetricsRegistry()
        tracer = Tracer()
        profiler = PlanProfiler() if self.backend != "calculus" else None
        with observed(self.ctx, metrics=metrics, tracer=tracer,
                      profiler=profiler, layers=self.metered_layers()):
            result, plan, sql = self._run(text, tracer)
        return ExplainReport(text=text, backend=self.backend,
                             result=result, plan=plan, profiler=profiler,
                             metrics=metrics.snapshot(),
                             trace=tracer.last_root, sql=sql)

    explain_analyze = profile

    def metered_layers(self) -> list:
        """Every object besides :attr:`ctx` that counts into a metrics
        registry — the one list :meth:`profile` installs its registry
        on and :meth:`~repro.session.DocumentStore.enable_metrics`
        wires the store's."""
        from repro.observe.profile import metered_layers
        backend = self.sql_backend
        if backend is None:
            return metered_layers(self.ctx, self.stats)
        return metered_layers(self.ctx, self.stats, backend, backend.shred)

    def explain(self, text: str) -> str:
        """The calculus form of the query (one line)."""
        return str(self.translate(text))
