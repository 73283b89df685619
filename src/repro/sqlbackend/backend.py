"""Execute plans against the relational shredding.

:class:`SQLBackend` turns a verified algebra plan into a **hybrid**:
the maximal relational prefix of the plan compiles into SQL statements
(:mod:`repro.sqlbackend.emit`), a :class:`_SQLRowsOp` feed turns the
fetched rows into an ordinary :class:`~repro.algebra.batch.Batch`
(one late column per variable, hydrated from the shred's blocks only
if an operator above reads it), and every operator outside the
relational subset keeps running as plain Python on top — through the
ordinary :func:`repro.algebra.execute.execute_plan`, so projection,
deduplication, profiling and the ``SharedOp`` memo behave identically
to the algebra backend.

The backend *refuses* (raises :class:`SQLUnsupportedError`, so
callers fall back to plan execution) instead of approximating when

* the plan's root is not the standard ``ProjectOp``,
* a touched persistence root is not navigable (its block overflowed
  the index's node budget or holds a suppressed dereference, or a
  dereference chain runs over the cap),
* the program contains structural scans but the context's path
  semantics is not ``restricted``, or its ``max_paths`` budget could
  bite (SQL range scans cannot reproduce the enumeration-limit error
  contract).

Freshness is the structural index's: :meth:`SQLBackend.execute` calls
:meth:`~repro.sqlbackend.shred.Shred.refresh` first, which refreshes
the index and re-inserts only the roots whose blocks it rebuilt —
nothing when the store has not changed.
"""

from __future__ import annotations

import copy
from functools import partial
from typing import Any

from repro.algebra.batch import Batch, Column
from repro.algebra.execute import execute_plan
from repro.algebra.operators import (
    IntervalJoinOp,
    Operator,
    ProjectOp,
    SelectOp,
    SharedOp,
    UnionOp,
)
from repro.errors import SQLExecutionError, SQLUnsupportedError
from repro.oodb.values import TupleValue
from repro.paths.enumeration import RESTRICTED
from repro.paths.steps import Path
from repro.sqlbackend.dialect import Dialect
from repro.sqlbackend.emit import (
    ConstCol,
    Emitter,
    Fragment,
    IntCol,
    PathCol,
    SQLProgram,
    StrCol,
    ValCol,
    _Unsupported,
)
from repro.sqlbackend.shred import Shred
from repro.structindex import StructuralIndex


class HybridPlan:
    """One compiled hybrid: the executable plan + its SQL programs."""

    __slots__ = ("plan", "programs", "head")

    def __init__(self, plan: ProjectOp,
                 programs: list[SQLProgram]) -> None:
        self.plan = plan
        self.programs = programs
        self.head = plan.head

    @property
    def sql(self) -> str:
        """The emitted statement(s), for ``explain_analyze``."""
        return "\n\n".join(p.sql for p in self.programs)

    @property
    def prefilters(self) -> int:
        return sum(p.prefilters for p in self.programs)


class _SQLRowsOp(Operator):
    """The feed operator: one SQL statement, its result set as a
    batch."""

    params = ("backend", "program")

    def __init__(self, backend: "SQLBackend",
                 program: SQLProgram) -> None:
        self.backend = backend
        self.program = program

    def batch(self, ctx: Any) -> Batch:
        return self.backend._fetch(self.program, metrics=ctx.metrics)

    def produces(self) -> frozenset:
        return frozenset(self.program.columns)

    def label(self) -> str:
        variables = ", ".join(
            sorted(str(v) for v in self.program.columns))
        return f"SQLRows [{variables}]"


class SQLBackend:
    """The relational execution engine over one instance's shred.

    The backend creates the structural index its shred projects
    (``shred.index``, following ``epoch_source``); a
    :class:`~repro.session.DocumentStore` serves its scans from that
    same object, so no root is ever encoded twice."""

    def __init__(self, instance: Any, epoch_source: Any = None,
                 dialect: Dialect | None = None,
                 metrics: Any = None) -> None:
        self.instance = instance
        self.metrics = metrics
        self.shred = Shred(
            StructuralIndex(instance, epoch_source=epoch_source),
            dialect=dialect, metrics=metrics)

    # -- compilation ----------------------------------------------------------

    def compile(self, plan: Any, metrics: Any = None) -> HybridPlan:
        """Hybridize a (verified) algebra plan.

        Raises :class:`SQLUnsupportedError` only for a malformed root;
        unsupported *operators* stay in Python instead.  ``metrics``
        overrides the backend's own registry for this compilation (the
        engine passes its per-run registry through)."""
        if metrics is None:
            metrics = self.metrics
        if not isinstance(plan, ProjectOp):
            raise SQLUnsupportedError(
                "plan root is not a projection; refusing to emit")
        emitter = Emitter(self.instance.root_names)
        programs: list[SQLProgram] = []
        memo: dict[int, tuple[str, Any]] = {}

        def feed(fragment: Fragment) -> _SQLRowsOp:
            program = emitter.program(fragment)
            programs.append(program)
            return _SQLRowsOp(self, program)

        def materialize(result: tuple[str, Any]) -> Operator:
            kind, payload = result
            return feed(payload) if kind == "frag" else payload

        def visit(op: Any) -> tuple[str, Any]:
            key = id(op)
            if key in memo:
                return memo[key]
            result = rewrite(op)
            memo[key] = result
            return result

        def rewrite(op: Any) -> tuple[str, Any]:
            if isinstance(op, IntervalJoinOp):
                # scan + vkey prefilter in SQL, the exact recheck atom
                # in Python — the operator's documented fallback path
                try:
                    fragment = emitter.interval_join(op)
                    return ("op", SelectOp(feed(fragment),
                                           op.recheck_atom))
                except _Unsupported:
                    pass
            elif isinstance(op, SharedOp):
                # keep the Python memo wrapper either way, so a shared
                # stream (and its statement) still runs only once
                clone = copy.copy(op)
                try:
                    clone.child = feed(emitter.emit(op.child))
                except _Unsupported:
                    clone.child = materialize(visit(op.child))
                return ("op", clone)
            else:
                try:
                    return ("frag", emitter.emit(op))
                except _Unsupported:
                    pass
            # boundary: this operator runs in Python over its
            # (possibly SQL-fed) child stream
            if isinstance(op, SelectOp):
                kind, payload = visit(op.child)
                if kind == "frag":
                    narrowed = emitter.contains_prefilter(payload,
                                                          op.atom)
                    if narrowed is not None:
                        payload = narrowed
                    child = feed(payload)
                else:
                    child = payload
                clone = copy.copy(op)
                clone.child = child
                return ("op", clone)
            if isinstance(op, UnionOp):
                clone = copy.copy(op)
                clone.branches = [materialize(visit(branch))
                                  for branch in op.branches]
                clone._branch_probes = None
                return ("op", clone)
            if not hasattr(op, "child"):  # pragma: no cover
                raise SQLUnsupportedError(
                    f"cannot hybridize {type(op).__name__}")
            clone = copy.copy(op)
            clone.child = materialize(visit(op.child))
            return ("op", clone)

        child = materialize(visit(plan.child))
        hybrid = HybridPlan(ProjectOp(child, plan.head), programs)
        if metrics is not None:
            metrics.inc("sql.compiles")
            metrics.inc("sql.feeds", len(programs))
            metrics.inc("sql.prefilters", hybrid.prefilters)
        return hybrid

    # -- execution ------------------------------------------------------------

    def execute(self, hybrid: HybridPlan, ctx: Any) -> Any:
        """Refresh the shred, check the guards, run the hybrid plan."""
        self.shred.refresh()
        for program in hybrid.programs:
            self._guard(program, ctx)
        return execute_plan(hybrid.plan, ctx)

    def _guard(self, program: SQLProgram, ctx: Any) -> None:
        for name in program.roots:
            why = self.shred.refused.get(name)
            if why is not None:
                raise SQLUnsupportedError(
                    f"root {name!r} is not navigable: {why}")
        if not program.has_scans:
            return
        if ctx.path_semantics != RESTRICTED:
            raise SQLUnsupportedError(
                "structural SQL scans require restricted path "
                "semantics")
        if ctx.max_paths is not None:
            largest = self.shred.max_root_size(program.roots)
            if largest + 1 > ctx.max_paths:
                raise SQLUnsupportedError(
                    "a shredded root outgrew the enumeration budget; "
                    "only the live walk reproduces the limit error")

    def _fetch(self, program: SQLProgram,
               metrics: Any = None) -> Batch:
        if metrics is None:
            metrics = self.metrics
        try:
            names, rows, blocks = self.shred.execute(program.sql,
                                                     program.params)
        except self.shred.dialect.errors() as exc:
            raise SQLExecutionError(
                f"emitted statement failed: {exc}") from exc
        if metrics is not None:
            metrics.inc("sql.statements")
            metrics.inc("sql.rows_fetched", len(rows))
        position = {name: i for i, name in enumerate(names)}
        return Batch(len(rows), {
            variable: partial(_hydrate, desc, rows, position, blocks)
            for variable, desc in program.columns.items()})


def _hydrate(desc: Any, rows: list, position: dict[str, int],
             blocks: dict) -> Column:
    """One variable's column of a fetched result set, from the SQL
    columns its descriptor names."""
    if isinstance(desc, ConstCol):
        return [desc.value] * len(rows)
    if isinstance(desc, (IntCol, StrCol)):
        at = position[desc.col]
        return [row[at] for row in rows]
    if isinstance(desc, ValCol):
        root, pre, mode = (position[desc.root], position[desc.pre],
                           position[desc.mode])
        # a wrapper (mode "w") is over a tuple field: the node was
        # reached by the AttrStep that names it
        return [
            blocks[row[root]].values[row[pre]] if row[mode] == "n"
            else TupleValue([(
                blocks[row[root]].paths[row[pre]].steps[-1].name,
                blocks[row[root]].values[row[pre]])])
            for row in rows]
    if isinstance(desc, PathCol):
        root, node, depth = (position[desc.root], position[desc.node],
                             position[desc.depth])
        return [Path._unsafe(
            blocks[row[root]].paths[row[node]].steps[row[depth]:])
            for row in rows]
    raise SQLExecutionError(  # pragma: no cover
        f"unknown descriptor {type(desc).__name__}")
