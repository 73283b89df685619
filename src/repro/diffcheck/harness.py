"""Run one query through every served configuration and compare.

The calculus interpreter is the reference semantics.  Against it run
the configurations a :class:`~repro.DocumentStore` actually serves —
one ordinary store each, built the ordinary way (constructor,
``load_tree``, ``build_text_index``), and queried through its engine's
own stage sequence (:meth:`QueryEngine.compile
<repro.o2sql.engine.QueryEngine.compile>` then
:meth:`~repro.o2sql.engine.QueryEngine.execute`):

* ``algebra``    — ``DocumentStore(backend="algebra")``: the
  Section-5.4 compilation, index rewrite, selection pushdown, the
  shared-prefix DAG and the statistics-driven cost stage;
* ``structural`` — ``DocumentStore(backend="algebra",
  structural=True)``: the same pipeline with path-variable fan-outs
  replaced by pre/post interval range scans over
  :mod:`repro.structindex` *and* the cost stage — the configuration
  the e2e benchmark measures.  This falsifies the scan/join operators,
  the encoding's completeness flags and the index's freshness hooks;
* ``sql``        — ``DocumentStore(backend="sql", structural=True)``:
  the structural plan hybridized by :mod:`repro.sqlbackend`.  A
  compile-time refusal or a runtime guard
  (:class:`~repro.errors.SQLUnsupportedError`) falls back to plan
  execution inside the engine, so refusals are exercised but never
  read as divergences by themselves.

Each configuration's artifacts are compiled once and executed **twice**
on fresh context forks; the second outcome (``<config>+rerun``) is what
a plan-cache hit serves, and is what catches cross-run state leaks
such as a stale ``SharedOp`` memo.

The optimizer's ``"warn"`` policy would serve the last verified plan
past a stage the verifier rejects; here the
:class:`~repro.plancheck.PlanVerificationWarning` category is
escalated to an error, so a broken rewrite surfaces as a divergence
instead of (or before) a wrong result.

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

import warnings
from dataclasses import dataclass

from repro.calculus.evaluator import evaluate_query
from repro.calculus.formulas import Query
from repro.diffcheck.generator import CorpusSpec
from repro.errors import CompilationError, SafetyError
from repro.observe import MetricsRegistry
from repro.oodb.values import SetValue
from repro.plancheck import PlanVerificationWarning

#: The served configurations, in comparison order: name → the
#: :class:`~repro.DocumentStore` keywords that select it.
ALGEBRA_CONFIGS = {
    "algebra": {"backend": "algebra"},
    "structural": {"backend": "algebra", "structural": True},
    "sql": {"backend": "sql", "structural": True},
}

#: Outcome-name suffix of a configuration's second execution.
RERUN = "+rerun"

#: The reference configuration name.
REFERENCE = "calculus"


def _error_label(exc: Exception) -> str:
    """Coarse error category; static rejection is stage-independent.

    Relational-backend refusals and raw SQLite driver errors coarsen
    the same way: what matters differentially is *that* the backend
    refused, not the driver's message text."""
    import sqlite3

    from repro.errors import SQLBackendError
    if isinstance(exc, (SafetyError, CompilationError, SQLBackendError,
                        sqlite3.Error)):
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
        return [name for name, outcome in self.outcomes.items()
                if not outcome.agrees_with(reference)]

    @property
    def divergent(self) -> bool:
        return bool(self.divergent_configs())

    def report(self) -> str:
        lines = [f"query: {self.query}", f"over:  {self.corpus}"]
        for name, outcome in self.outcomes.items():
            marker = (" " if name == REFERENCE
                      or outcome.agrees_with(self.reference) else "!")
            lines.append(f"  {marker} {name:<16} {outcome.render()}")
        return "\n".join(lines)


class DiffHarness:
    """Differential comparison over reproducible corpora.

    One store per served configuration is built per
    :class:`CorpusSpec` and treated as read-only afterwards (a
    full-text index is installed so the index rewrite is exercised).
    ``metrics`` is an optional :class:`repro.observe.MetricsRegistry`;
    progress lands in ``diffcheck.*`` counters, the engines' compile
    stages count ``plancheck.*`` there too.
    """

    def __init__(self, metrics=None) -> None:
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self._stores: dict[CorpusSpec, dict] = {}

    # -- stores --------------------------------------------------------------

    def stores_for(self, spec: CorpusSpec) -> dict:
        """``{config name: DocumentStore}`` over ``spec``'s corpus."""
        stores = self._stores.get(spec)
        if stores is None:
            from repro import DocumentStore
            from repro.corpus import ARTICLE_DTD
            trees = list(spec.trees())
            stores = {}
            for name, config in ALGEBRA_CONFIGS.items():
                store = stores[name] = DocumentStore(ARTICLE_DTD, **config)
                for tree in trees:
                    store.load_tree(tree, validate=False)
                store.build_text_index()
            self._stores[spec] = stores
            self.metrics.inc("diffcheck.corpora_built")
        return stores

    # -- comparison ----------------------------------------------------------

    def compare(self, spec: CorpusSpec, query: Query) -> Comparison:
        stores = self.stores_for(spec)
        oracle = stores["algebra"]._engine.ctx
        outcomes = {REFERENCE: self._outcome(
            lambda: evaluate_query(query, oracle.fork()))}
        for name, store in stores.items():
            outcomes[name], outcomes[name + RERUN] = self._serve(
                store._engine, query)
        comparison = Comparison(corpus=spec, query=query,
                                outcomes=outcomes)
        self.metrics.inc("diffcheck.queries")
        self.metrics.inc("diffcheck.configs_compared", len(outcomes) - 1)
        self.metrics.inc("diffcheck.divergences" if comparison.divergent
                         else "diffcheck.agreements")
        return comparison

    @staticmethod
    def _outcome(thunk) -> Outcome:
        try:
            return Outcome(result=thunk())
        except Exception as exc:
            return Outcome(error=_error_label(exc))

    def _serve(self, engine, query: Query) -> tuple[Outcome, Outcome]:
        """Compile once, execute twice — the engine's own stages, with
        a verifier-rejected optimizer stage raised rather than served
        around.  A compile failure is both runs' outcome."""
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", PlanVerificationWarning)
                entry = engine.compile(query, metrics=self.metrics)
        except Exception as exc:
            failed = Outcome(error=_error_label(exc))
            return failed, failed
        return (self._outcome(lambda: engine.execute(entry)),
                self._outcome(lambda: engine.execute(entry)))

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
