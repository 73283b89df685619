"""The high-level facade: :class:`DocumentStore`.

One object that walks the paper end to end — parse a DTD (Figure 1),
map it to a schema (Figure 3), load documents (Figure 2), name
individual documents as persistence roots (``my_article``), and run
extended-O₂SQL queries (Q1–Q6)::

    store = DocumentStore(ARTICLE_DTD)
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    titles = store.query("select t from my_article PATH_p.title(t)")
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from contextlib import contextmanager

from repro.cache import EpochPin, PlanCache, PreparedQuery
from repro.errors import MappingError
from repro.mapping.dtd_to_schema import MappedSchema, map_dtd
from repro.mapping.loader import DocumentLoader
from repro.mapping.text_inverse import document_layout, text_of
from repro.o2sql.engine import QueryEngine
from repro.oodb.display import format_schema
from repro.oodb.store import ObjectStore, atomic_write
from repro.oodb.types import ClassType
from repro.oodb.values import Oid, SetValue
from repro.sgml.dtd_parser import parse_dtd
from repro.sgml.instance import Element
from repro.sgml.instance_parser import parse_document
from repro.sgml.validator import validation_problems
from repro.stats import StatisticsManager
from repro.structindex import StructuralIndex
from repro.text.index import TextIndex


def _root_type(value: object, instance):
    """The declared type of a persistence root (shared by
    :meth:`DocumentStore.define_name` and the :meth:`DocumentStore.load`
    restore path): objects keep their allocation class, everything else
    is inferred structurally against the given instance."""
    if isinstance(value, Oid):
        return ClassType(value.class_name)
    from repro.oodb.typecheck import infer_value_type
    return infer_value_type(value, instance)


class DocumentStore:
    """An SGML document database over the extended O₂ model.

    **Concurrency model** (the contract :mod:`repro.serve` builds on).
    Reads are lock-free: every query executes on a fork of the engine's
    evaluation context (:meth:`~repro.calculus.evaluator.EvalContext.fork`),
    plans and cache entries are immutable once published, and the plan
    cache itself is lock-protected.  Writes (:meth:`load_text`,
    :meth:`load_tree`, :meth:`define_name`, :meth:`update_text`) are
    serialized on one writer lock and run inside :meth:`mutating`, a
    seqlock-style fence: :attr:`write_seq` is odd exactly while a
    mutation is applying.  A reader that samples an even ``write_seq``
    before a query and observes the same value afterwards is guaranteed
    a result consistent with the epoch it pinned — writers never wait
    for readers, and a reader that raced a writer simply retries (see
    ``repro.serve.QueryServer``).  Mutators publish by atomic swap
    wherever a reader could be navigating (persistence roots are
    rebound to freshly built collections; object values are rebound,
    never edited in place), so a torn traversal can at worst observe a
    mix of epochs — which the fence detects — never a crash.
    """

    def __init__(self, dtd_text: str, path_semantics: str = "restricted",
                 backend: str = "algebra",
                 structural: bool = True) -> None:
        self._open_schema(dtd_text)
        self._wire(path_semantics, backend, structural)

    def _open_schema(self, dtd_text: str) -> None:
        """The schema half of construction: DTD → mapped schema → an
        empty instance behind a loader, plus the writer fence.  Done
        once, before :meth:`_wire`, by ``__init__`` and :meth:`load`."""
        self.dtd = parse_dtd(dtd_text)
        problems = self.dtd.check()
        if problems:
            raise MappingError(
                "DTD problems: " + "; ".join(problems))
        self.mapped: MappedSchema = map_dtd(self.dtd)
        self.loader = DocumentLoader(self.mapped)
        self.store = ObjectStore(self.loader.instance)
        self.text_index: TextIndex | None = None
        # the document holding each object an index walk reached
        # without a span (its text is empty), for update_text: the
        # index knows the document of every spanned object
        self._spanless: dict[Oid, Oid] = {}
        self._metrics = None
        #: Writer coordination: mutations serialize on this lock and
        #: run inside :meth:`mutating`, which keeps :attr:`write_seq`
        #: odd for their duration (a seqlock readers validate against).
        self._write_lock = threading.RLock()
        self._write_seq = 0
        self._mutation_depth = 0

    def _wire(self, path_semantics: str, backend: str,
              structural: bool) -> None:
        """Build everything that hangs off :attr:`instance` — cold plan
        cache, engine, statistics, structural index.  Runs exactly once
        per store, over the instance it will serve (``__init__``: the
        empty one; :meth:`load`: the restored one)."""
        #: Prepared-query plan cache; every mutation this facade
        #: performs bumps its epoch, so cached plans are never stale.
        self.plan_cache = PlanCache()
        self._engine = QueryEngine(
            self.instance, path_semantics=path_semantics, backend=backend,
            cache=self.plan_cache, structural=structural)
        #: The counts :meth:`stats` and :meth:`statistics` report:
        #: snapshots follow the plan-cache epoch; executed plans are
        #: counted.
        self.stats_manager = StatisticsManager(
            self.instance, epoch_source=self.plan_cache,
            context=self._engine.ctx)
        self._engine.stats = self.stats_manager
        self.struct_index: StructuralIndex | None = None
        # only plans that read the blocks need them: range scans
        # (``structural``) and the relational backend, whose tables are
        # their projection; the calculus interpreter never does
        if backend == "sql" or (backend == "algebra" and structural):
            self.build_structural_index()

    # -- writer fence (snapshot-epoch serving protocol) -----------------------

    @property
    def write_seq(self) -> int:
        """The seqlock counter: odd exactly while a mutation applies.

        A reader that samples an even value before a query and reads
        the same value afterwards overlapped no writer — its result is
        consistent with the epoch pinned between the two samples."""
        return self._write_seq

    @contextmanager
    def mutating(self):
        """Run one mutation under the writer lock with the seqlock
        held odd.  Reentrant: nested mutators (``load_tree`` calls
        ``define_name``) count as one fence."""
        with self._write_lock:
            self._mutation_depth += 1
            if self._mutation_depth == 1:
                self._write_seq += 1
            try:
                yield
            finally:
                self._mutation_depth -= 1
                if self._mutation_depth == 0:
                    self._write_seq += 1

    @contextmanager
    def excluding_writers(self):
        """Hold the writer lock *without* mutating — the consistency
        fallback a reader takes after repeated seqlock conflicts (it
        briefly blocks writers; it never tears)."""
        with self._write_lock:
            yield

    # -- loading --------------------------------------------------------------

    @property
    def instance(self):
        return self.loader.instance

    @property
    def schema(self):
        return self.mapped.schema

    def load_text(self, document_text: str, name: str | None = None,
                  validate: bool = True) -> Oid:
        """Parse and load one SGML document; optionally register the
        document object under a persistence name (``my_article``)."""
        tree = parse_document(document_text, self.dtd)
        return self.load_tree(tree, name=name, validate=validate)

    def load_tree(self, tree: Element, name: str | None = None,
                  validate: bool = True) -> Oid:
        if validate:
            problems = validation_problems(tree, self.dtd)
            if problems:
                raise MappingError(
                    "invalid document: " + "; ".join(problems))
        with self.mutating():
            oid = self.loader.load(tree)
            if self.text_index is not None:
                # only the new document is walked: the cost of a load
                # does not grow with the corpus
                self._index_documents(self.text_index, [oid])
            if name is not None:
                self._bind_root(name, oid)
            self._publish()
        return oid

    def _documents(self):
        """The loaded documents: the persistence root the loader
        appends each one to."""
        return self.instance.root(self.mapped.root_name)

    def _index_documents(self, index: TextIndex, documents) -> set[Oid]:
        """Index the text of ``documents`` and return the objects their
        walks reach.  Each document is one token stream, every object
        with non-empty text a span of it
        (:meth:`TextIndex.add_document`), from one walk of the
        database (:func:`document_layout`); a document indexed before
        is replaced whole, and an object without a span is remembered
        as the document's (:meth:`update_text` finds its document so).
        An object whose span would cut a word gets a stream of its
        own; ``text.own_stream_keys`` counts them,
        ``text.own_stream_keys.<reason>`` by reason."""
        reasons: Counter[str] = Counter()
        reached: set[Oid] = set()
        for document in documents:
            text, layout = document_layout(document, self.instance)
            spans = []
            # per layout entry: the position in spans of its own span,
            # or else of its nearest ancestor's
            span_of: list[int] = []
            for oid, parent, start, end in layout:
                reached.add(oid)
                enclosing = span_of[parent] if parent >= 0 else -1
                if end > start:
                    spans.append((oid, enclosing, start, end))
                    enclosing = len(spans) - 1
                else:
                    self._spanless[oid] = document
                span_of.append(enclosing)
            reasons += index.add_document(text, spans, document)
        if self._metrics is not None:
            for reason, count in reasons.items():
                self._metrics.inc("text.own_stream_keys", count)
                self._metrics.inc(f"text.own_stream_keys.{reason}", count)
        return reached

    def define_name(self, name: str, value: object) -> None:
        """Register an extra persistence root (an O₂ *name*)."""
        with self.mutating():
            self._bind_root(name, value)
            # a new root changes what identifiers translate to
            self._publish()

    def _bind_root(self, name: str, value: object) -> None:
        self.schema.roots[name] = _root_type(value, self.instance)
        self.instance.set_root(name, value)

    def _publish(self, edited_oid: Oid | None = None) -> None:
        """Make one applied mutation visible: one epoch bump (cached
        plans and statistics go stale) and one structural-index
        notification — a character-data edit of ``edited_oid`` dirties
        only the blocks containing it, anything else all of them.  The
        SQL shred needs no word: it re-projects whichever blocks the
        index rebuilds."""
        self.plan_cache.bump_epoch(metrics=self._metrics)
        index = self.struct_index
        if index is None:
            return
        if edited_oid is None:
            index.note_data_change(epoch=self.plan_cache.epoch)
        else:
            index.note_object_update(edited_oid,
                                     epoch=self.plan_cache.epoch)

    # -- integrity ------------------------------------------------------------

    def check(self) -> None:
        """Typing (Section 5.1) and constraints (Figure 3)."""
        self.instance.check()
        self.mapped.constraints.check_instance(self.instance)

    # -- text indexing (Section 4.1) ------------------------------------------

    def build_text_index(self) -> TextIndex:
        """Index the textual content of every object (oid-keyed).

        The index is built off to the side and published by atomic
        assignment, so concurrent readers see either no index or the
        complete one — never a half-built state.  The store epoch does
        not move: a cached plan stays valid, and its ``contains``
        selects probe the new index on their next run (which is also
        when a union first skips the branches the index proves empty).
        """
        with self._write_lock:
            index = TextIndex()
            reached = self._index_documents(index, self._documents())
            # objects no document reaches (made by hand) stand alone
            for oid in self.instance.all_oids():
                if oid not in reached:
                    content = text_of(oid, self.instance)
                    if content:
                        index.add(oid, content)
            index.metrics = self._metrics
            self.text_index = index
            self._engine.ctx.text_index = index
            # the counts must see the new index — the store epoch did
            # not move, so the memoized statistics snapshot would
            # otherwise stay index-blind until the next data mutation
            self.stats_manager.invalidate()
            return index

    # -- structural indexing (the XPath-accelerator layer, P9) ----------------

    def build_structural_index(self) -> StructuralIndex:
        """Build (or rebuild) the pre/post structural index over every
        persistence root and install it on the evaluation context.

        The index makes the ``structural`` rewrite's range scans hit;
        the facade keeps it fresh afterwards — loads and new names mark
        everything dirty, :meth:`update_text` marks only the blocks
        containing the edited object."""
        with self._write_lock:
            index = self.struct_index
            if index is None:
                # one encoding per root: a relational backend already
                # owns an index over this instance and epoch, so the
                # scans read the very blocks its tables project
                backend = self._engine.sql_backend
                index = (backend.shred.index if backend is not None
                         else StructuralIndex(
                             self.instance,
                             epoch_source=self.plan_cache))
                index.metrics = self._metrics
                self.struct_index = index
                self._engine.ctx.struct_index = index
            index.note_data_change(epoch=self.plan_cache.epoch)
            index.refresh()
            # same as build_text_index: the next snapshot counts the
            # fresh blocks
            self.stats_manager.invalidate()
            return index

    # -- querying -------------------------------------------------------------

    def query(self, text: str) -> SetValue:
        """Run extended O₂SQL; the result is always a set.

        Pipeline artifacts (parse → translate → safety → inference →
        compile) are resolved through :attr:`plan_cache`, so repeating
        a query pays for execution only; any store mutation bumps the
        cache epoch and forces one transparent recompilation.
        """
        return self._engine.run(text)

    def prepare(self, text: str) -> PreparedQuery:
        """Compile ``text`` now and return a reusable handle; see
        :class:`~repro.cache.prepared.PreparedQuery`."""
        return self._engine.prepare(text)

    def query_many(self, texts) -> list[SetValue]:
        """Run a batch of queries (results in input order); cache
        lookups are amortized — one per distinct normalized text."""
        return self._engine.run_many(texts)

    @property
    def epoch(self) -> int:
        """The store's data/schema epoch (bumped by every mutation)."""
        return self.plan_cache.epoch

    def pin_epoch(self) -> EpochPin:
        """Pin the current epoch; the handle's ``stale`` property flips
        on the next mutation (see :class:`repro.cache.EpochPin`)."""
        return self.plan_cache.pin()

    def cache_key(self, text: str) -> tuple:
        """The plan-cache key of ``text`` under this store's engine
        configuration — what :mod:`repro.serve` collapses identical
        in-flight requests on."""
        return self._engine.cache_key(text)

    def explain(self, text: str) -> str:
        return self._engine.explain(text)

    def explain_analyze(self, text: str):
        """Run the query fully observed and return an
        :class:`~repro.observe.report.ExplainReport`: on the algebra
        backend, the executed plan annotated with the *actual* row count
        of every operator; on both backends, the stage span tree
        (parse → translate → safety → inference → compile/evaluate →
        execute) and a deterministic counter snapshot (dereferences,
        index probes, binding enumerations, union fan-out)."""
        return self._engine.explain_analyze(text)

    # -- metrics --------------------------------------------------------------

    def enable_metrics(self):
        """Install a persistent metrics registry on every layer
        (instance, indexes, statistics, evaluation context).  Returns
        the registry; counting starts now and covers all subsequent
        operations."""
        if self._metrics is None:
            from repro.observe import MetricsRegistry
            self._metrics = MetricsRegistry()
        self._wire_metrics()
        return self._metrics

    def _wire_metrics(self) -> None:
        self._engine.ctx.metrics = self._metrics
        for layer in self._engine.metered_layers():
            layer.metrics = self._metrics

    def metrics(self) -> dict:
        """Structured snapshot of the store-wide metrics registry
        (auto-enables metrics on first call)."""
        if self._metrics is None:
            self.enable_metrics()
        return self._metrics.snapshot()

    def reset_metrics(self) -> None:
        if self._metrics is not None:
            self._metrics.reset()

    def check_query(self, text: str) -> dict:
        return self._engine.check(text)

    def lint(self, text: str) -> list:
        """Schema-aware static diagnostics for one query text
        (:mod:`repro.plancheck`): front-end rejections (syntax, unknown
        roots, safety, type errors) come back as *error* diagnostics
        with positions instead of exceptions, and queries that pass get
        *warnings* for statically-empty path atoms, impossible
        comparisons, unused variables and constant predicates.  A query
        with no error diagnostics is guaranteed to execute without
        :class:`~repro.errors.SafetyError`."""
        from repro.plancheck import lint_query
        return lint_query(text, self.schema, metrics=self._metrics)

    def text(self, value: object) -> str:
        """The ``text()`` operator (inverse mapping)."""
        return text_of(value, self.instance)

    # -- inverse mapping (footnote 1 / Section 6) ---------------------------

    def export_document(self, document: Oid | str) -> Element:
        """Rebuild the SGML tree of a loaded (possibly updated)
        document from its database objects."""
        from repro.mapping.inverse import export_document
        if isinstance(document, str):
            document = self.instance.root(document)
        return export_document(self.mapped, self.instance, document,
                               self.loader.id_tokens)

    def export_text(self, document: Oid | str,
                    minimize: bool = False) -> str:
        """The exported tree serialised back to SGML text."""
        from repro.sgml.writer import write_document
        return write_document(self.export_document(document), self.dtd,
                              minimize=minimize)

    def export_dtd(self) -> str:
        """Regenerate DTD text from the mapped schema."""
        from repro.mapping.inverse import schema_to_dtd
        return schema_to_dtd(self.mapped)

    def update_text(self, oid: Oid, new_text: str) -> None:
        """Edit the character data of a #PCDATA-bearing object in the
        database (Section 6's update direction).  The change is visible
        to queries, to ``text()`` and to :meth:`export_document`.

        An existing text index is kept exact: the edited object's
        document is walked again and its stream replaced
        (:meth:`_index_documents`), so an edit costs its own document,
        whatever the corpus holds, and every other key keeps its span.
        The document is the one whose stream holds the object's span,
        or, for an object without one (its text was empty), the one
        whose walk last reached it; an object no document reaches is
        re-indexed alone.  The plan-cache epoch is bumped, so a cached
        index-backed plan re-probes on its recompile.
        """
        from repro.oodb.values import TupleValue
        from repro.mapping.naming import TEXT_FIELD
        with self.mutating():
            value = self.instance.deref(oid)
            if not (isinstance(value, TupleValue)
                    and value.has_attribute(TEXT_FIELD)):
                raise MappingError(
                    f"object {oid!r} carries no character data")
            self.store.update_object(
                oid, value.replace(TEXT_FIELD, new_text))
            index = self.text_index
            if index is not None:
                document = index.document_of(oid)
                if document is None:
                    document = self._spanless.get(oid)
                if document is not None:
                    self._index_documents(index, [document])
                else:
                    index.replace(oid, text_of(oid, self.instance))
            self._publish(edited_oid=oid)

    # -- persistence --------------------------------------------------------

    def save(self, path) -> int:
        """Snapshot the whole database to a file; returns bytes
        written.  The DTD is saved alongside (``<path>.dtd``) so
        :meth:`load` can rebuild the schema.

        Crash-consistent: each file is written beside its destination
        and renamed over it (:func:`repro.oodb.store.atomic_write`), so
        a save that dies midway leaves the previous snapshot loadable.
        The DTD goes first — it is a function of the schema alone, so
        an old snapshot stays readable under the new copy."""
        atomic_write(f"{os.fspath(path)}.dtd", self.export_dtd().encode())
        return self.store.save(path)

    @classmethod
    def load(cls, path, path_semantics: str = "restricted",
             backend: str = "algebra",
             structural: bool = True) -> "DocumentStore":
        """Rebuild a store from :meth:`save` output.

        ``text()`` is read from the database, so it is the saved
        store's, and so is a text index built over the restored
        instance (:meth:`build_text_index`): one stream per document,
        the same spans.  Documents can be re-exported via the inverse
        mapping.

        The snapshot stores *data*, not engine configuration: the
        keywords are the constructor's, so a store restored for a
        differently-configured engine — e.g. the relational
        ``backend="sql"`` — is rebuilt with that configuration.  The
        engine, indexes and shred are built once, over the restored
        instance.
        """
        with open(f"{os.fspath(path)}.dtd") as handle:
            dtd_text = handle.read()
        store = cls.__new__(cls)
        store._open_schema(dtd_text)

        def declare(name: str, value: object, instance) -> None:
            # same inference as define_name — against the *restored*
            # instance, so oids inside collection/tuple roots resolve
            store.schema.roots[name] = _root_type(value, instance)

        store.store = ObjectStore.load(store.schema, path, declare)
        store.loader.instance = store.store.instance
        # a reloaded store starts cold: fresh cache at epoch 0
        store._wire(path_semantics, backend, structural)
        return store

    # -- reporting ------------------------------------------------------------

    def describe_schema(self) -> str:
        """The Figure-3 rendering of the mapped schema."""
        return format_schema(self.schema, self.mapped.constraints)

    def stats(self) -> dict:
        report = {
            "documents": len(self.instance.root(self.mapped.root_name)),
            "objects": self.instance.object_count(),
            "classes": len(self.schema.class_names),
            "bytes": self.store.total_bytes(),
            "epoch": self.plan_cache.epoch,
            "plan_cache": self.plan_cache.stats(),
            "statistics": self.stats_manager.report(),
        }
        if self.struct_index is not None:
            report["struct_index"] = self.struct_index.stats()
        return report

    def statistics(self):
        """The current statistics snapshot (collected lazily,
        recollected after the store's epoch moves or an index is
        built)."""
        return self.stats_manager.snapshot()
