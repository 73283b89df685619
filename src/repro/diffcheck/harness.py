"""Run one query through every backend configuration and compare.

The calculus interpreter is the reference semantics; the algebra
backend is exercised in all optimizer configurations:

* ``unoptimized`` — the raw Section-5.4 compilation;
* ``optimized``   — index rewrite + selection pushdown, no factoring;
* ``factored``    — the full pipeline including the shared-prefix DAG;
* ``structural``  — the full pipeline plus the structural-index
  rewrite (path-variable fan-outs replaced by pre/post interval range
  scans over :mod:`repro.structindex`), executed against a store whose
  structural index is built — this falsifies the scan/join operators,
  the encoding's completeness flags and the index's freshness hooks
  against the calculus reference;
* ``cached``      — the factored plan executed a second time on a
  fresh context fork, i.e. exactly what a prepared/plan-cached query
  re-execution does (this is the configuration that would catch
  cross-run state leaks such as a stale ``SharedOp`` memo);
* ``costed``      — the full pipeline plus the statistics-driven cost
  stage (:mod:`repro.stats`): union branches reordered by estimated
  cost, provably-empty branches pruned statically, unprofitable index
  filters demoted — all under ``verify="raise"``, so a miscosted
  rewrite surfaces as a ``PlanVerificationError`` divergence;
* ``sql``         — the ``structural`` plan hybridized by the
  relational backend (:mod:`repro.sqlbackend`): the maximal
  relational prefix runs as emitted SQL over the store's SQLite
  shredding, the remainder as plan operators over the hydrated rows.
  A *compile-time* refusal or a *runtime guard*
  (:class:`~repro.errors.SQLUnsupportedError`) falls back to plan
  execution — exactly the engine's serving behavior — so refusals
  are exercised but never read as divergences by themselves.

Two outcomes agree when they produce equal result sets, or fail the
same way — wrong-branch navigation is *false, never an error* in both
semantics, so a genuine error must be reproduced by both sides to
count as agreement.  A query that is not range-restricted is refused
by the calculus at evaluation time (:class:`SafetyError`) and by the
compiler at compile time (:class:`CompilationError`); both label the
outcome ``rejected``, so the stage difference never reads as a
divergence (the minimizer routinely produces such intermediates).
:class:`~repro.errors.SQLBackendError` and raw driver errors
(``sqlite3.Error``) coarsen to ``rejected`` too: the *category* of a
relational refusal is stage-independent, and the minimizer must not
chase the exact driver message while shrinking a case.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.calculus.evaluator import evaluate_query
from repro.calculus.formulas import Query
from repro.diffcheck.generator import CorpusSpec
from repro.errors import CompilationError, SafetyError
from repro.oodb.values import SetValue

#: The algebra-side configurations, in comparison order.
ALGEBRA_CONFIGS = ("unoptimized", "optimized", "factored", "structural",
                   "cached", "costed", "sql")

#: The reference configuration name.
REFERENCE = "calculus"


def _error_label(exc: Exception) -> str:
    """Coarse error category; static rejection is stage-independent.

    Relational-backend refusals and raw SQLite driver errors coarsen
    the same way: what matters differentially is *that* the backend
    refused, not the driver's message text."""
    import sqlite3

    from repro.errors import SQLBackendError
    if isinstance(exc, (SafetyError, CompilationError)):
        return "rejected"
    if isinstance(exc, (SQLBackendError, sqlite3.Error)):
        return "rejected"
    return type(exc).__name__


@dataclass
class Outcome:
    """What one configuration produced: a result set or an error."""

    result: SetValue | None = None
    error: str | None = None

    def agrees_with(self, other: "Outcome") -> bool:
        if (self.error is None) != (other.error is None):
            return False
        if self.error is not None:
            return self.error == other.error
        return self.result == other.result

    def render(self, limit: int = 6) -> str:
        if self.error is not None:
            return f"error<{self.error}>"
        rows = list(self.result)
        shown = ", ".join(repr(r) for r in rows[:limit])
        suffix = ", ..." if len(rows) > limit else ""
        return f"{len(rows)} rows {{{shown}{suffix}}}"


@dataclass
class Comparison:
    """The outcome of one differential trial."""

    corpus: CorpusSpec
    query: Query
    outcomes: dict

    @property
    def reference(self) -> Outcome:
        return self.outcomes[REFERENCE]

    def divergent_configs(self) -> list[str]:
        reference = self.reference
        return [name for name in ALGEBRA_CONFIGS
                if name in self.outcomes
                and not self.outcomes[name].agrees_with(reference)]

    @property
    def divergent(self) -> bool:
        return bool(self.divergent_configs())

    def report(self) -> str:
        lines = [f"query: {self.query}", f"over:  {self.corpus}"]
        for name, outcome in self.outcomes.items():
            marker = (" " if name == REFERENCE
                      or outcome.agrees_with(self.reference) else "!")
            lines.append(f"  {marker} {name:<12} {outcome.render()}")
        return "\n".join(lines)


class DiffHarness:
    """Differential comparison over reproducible corpora.

    Stores are built once per :class:`CorpusSpec` and treated as
    read-only afterwards (a full-text index is installed so the
    ``optimized`` configurations exercise the index rewrite).
    ``metrics`` is an optional :class:`repro.observe.MetricsRegistry`;
    progress lands in ``diffcheck.*`` counters.
    """

    def __init__(self, metrics=None,
                 configs: tuple[str, ...] = ALGEBRA_CONFIGS) -> None:
        unknown = [c for c in configs if c not in ALGEBRA_CONFIGS]
        if unknown:
            raise ValueError(f"unknown diffcheck configs: {unknown}")
        self.metrics = metrics
        self.configs = tuple(configs)
        self._stores: dict[CorpusSpec, object] = {}

    # -- stores --------------------------------------------------------------

    def store_for(self, spec: CorpusSpec):
        store = self._stores.get(spec)
        if store is None:
            from repro import DocumentStore
            from repro.corpus import ARTICLE_DTD
            store = DocumentStore(ARTICLE_DTD, backend="algebra")
            for tree in spec.trees():
                store.load_tree(tree, validate=False)
            store.build_text_index()
            # the ``sql`` configuration's relational backend; installed
            # before the structural index is built so the store adopts
            # the backend's index — scans and shred share one encoding,
            # as in a ``backend="sql"`` store
            from repro.sqlbackend.backend import SQLBackend
            store._engine.sql_backend = SQLBackend(
                store.instance, epoch_source=store.plan_cache,
                metrics=self.metrics)
            store.build_structural_index()
            self._stores[spec] = store
            if self.metrics is not None:
                self.metrics.inc("diffcheck.corpora_built")
        return store

    # -- comparison ----------------------------------------------------------

    def compare(self, spec: CorpusSpec, query: Query) -> Comparison:
        store = self.store_for(spec)
        engine = store._engine
        outcomes: dict = {}
        outcomes[REFERENCE] = self._run(
            lambda: evaluate_query(query, engine.ctx.fork()))
        plan = error = None
        try:
            from repro.algebra.compile import compile_query
            from repro.plancheck.verifier import check_plan
            plan = compile_query(query, engine.instance.schema,
                                 path_semantics="restricted")
            # pre-execution static gate: a compiled plan that fails
            # verification is itself a divergence (the label
            # PlanVerificationError is deliberately *not* coarsened to
            # "rejected" — the reference side succeeded)
            check_plan(plan, query=query, stage="compile",
                       metrics=self.metrics)
        except Exception as exc:  # compile failure hits every config
            error = _error_label(exc)
        for name in self.configs:
            if error is not None:
                outcomes[name] = Outcome(error=error)
                continue
            outcomes[name] = self._run(
                lambda name=name: self._execute(name, plan, engine,
                                                query))
        comparison = Comparison(corpus=spec, query=query,
                                outcomes=outcomes)
        if self.metrics is not None:
            self.metrics.inc("diffcheck.queries")
            self.metrics.inc("diffcheck.configs_compared",
                             len(self.configs))
            self.metrics.inc("diffcheck.divergences"
                             if comparison.divergent
                             else "diffcheck.agreements")
        return comparison

    @staticmethod
    def _run(thunk) -> Outcome:
        try:
            return Outcome(result=thunk())
        except Exception as exc:
            return Outcome(error=_error_label(exc))

    @staticmethod
    def _execute(name: str, plan, engine, query=None) -> SetValue:
        """Optimizer calls use ``verify="raise"``: every rewrite stage
        of every configuration is gated by the plancheck verifier, and
        a stage that breaks plan well-formedness surfaces as a
        ``PlanVerificationError`` divergence instead of (or before) a
        wrong result."""
        from repro.algebra.execute import execute_plan
        from repro.algebra.optimizer import optimize
        if name == "unoptimized":
            return execute_plan(plan, engine.ctx.fork())
        if name == "optimized":
            return execute_plan(optimize(plan, factor=False,
                                         verify="raise", query=query),
                                engine.ctx.fork())
        if name == "structural":
            return execute_plan(optimize(plan, structural=True,
                                         verify="raise", query=query),
                                engine.ctx.fork())
        if name == "costed":
            manager = getattr(engine, "stats", None)
            snapshot = manager.snapshot() if manager is not None else None
            return execute_plan(
                optimize(plan, verify="raise", query=query,
                         stats=snapshot),
                engine.ctx.fork())
        if name == "sql":
            from repro.errors import SQLUnsupportedError
            structural = optimize(plan, structural=True,
                                  verify="raise", query=query)
            backend = engine.sql_backend
            try:
                hybrid = backend.compile(structural)
                return backend.execute(hybrid, engine.ctx.fork())
            except SQLUnsupportedError:
                # the engine's serving fallback: run the plan instead
                return execute_plan(structural, engine.ctx.fork())
        factored = optimize(plan, verify="raise", query=query)
        if name == "factored":
            return execute_plan(factored, engine.ctx.fork())
        # cached: the same (factored) plan object re-executed on a fresh
        # fork — the prepared-query path after a cache hit
        execute_plan(factored, engine.ctx.fork())
        return execute_plan(factored, engine.ctx.fork())

    # -- the fuzz loop -------------------------------------------------------

    def sweep(self, cases, on_divergence=None) -> list[Comparison]:
        """Compare every case; returns the divergent comparisons.

        ``on_divergence(case, comparison)`` is invoked as they are
        found (the CLI hooks minimization + serialization in there).
        """
        divergent = []
        for case in cases:
            comparison = self.compare(case.corpus, case.query)
            if comparison.divergent:
                divergent.append(comparison)
                if on_divergence is not None:
                    on_divergence(case, comparison)
        return divergent
