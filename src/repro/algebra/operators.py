"""The operator algebra (Section 5.4).

Operators are streams of variable bindings (environments).  A plan is an
operator tree; executing it yields bindings which the final
:class:`ProjectOp` turns into the query's result set.

The algebra corresponds to a complex-object algebra with the paper's
additions:

* :class:`StepOp` — navigation steps, including *variant-based
  selection* over marked unions (the implicit selectors) and the
  heterogeneous-list view of ordered tuples;
* :class:`UnnestOp` — iteration over lists/sets (with optional position
  binding);
* :class:`MakePathOp` — reconstruction of a path variable's value from
  the compiled navigation template (so paths remain first-class in
  results);
* :class:`UnionOp` — the union of variable-free plans that a
  path/attribute variable compiles into;
* :class:`SharedOp` — a materialized subplan referenced by several
  union branches (the optimizer's common-prefix factoring turns the
  plan *tree* into a DAG; rows are computed once per execution and
  replayed to every other consumer);
* :class:`NegationOp` / :class:`FormulaOp` — boolean combination with
  (⋆)-form subplans, realised by delegating the residual formula to the
  calculus interpreter per row (the paper's "boolean combination of
  queries of the form (⋆)");
* :class:`StructuralScanOp` / :class:`IntervalJoinOp` — the structural
  index rewrite: an unbound path variable's whole union fan-out as one
  pre/post interval range scan (and, joined with a bound variable, two
  bisections) over :mod:`repro.structindex`.

Every class declares its non-child constructor parameters
(:attr:`Operator.params`) and renders its own line
(:meth:`Operator.label`); rebuilding, structural hashing, rendering and
traversal (:func:`walk_once`) are derived from that once, in the base
class — adding an operator touches no generic plan code.
"""

from __future__ import annotations

import inspect
from operator import attrgetter
from typing import Any, Callable, ClassVar, Iterator

from repro.errors import CompilationError, EvaluationError
from repro.calculus.evaluator import (
    Binding,
    EvalContext,
    _auto_deref,
    _select_attribute,
    eval_term,
    satisfy,
)
from repro.calculus.terms import term_variables
from repro.oodb.values import ListValue, Oid, SetValue, TupleValue
from repro.paths.enumeration import RESTRICTED, paths_from
from repro.paths.steps import (
    AttrStep,
    DEREF,
    ElemStep,
    IndexStep,
    Path,
)


_BY_VALUE = frozenset((str, int, bool, type(None)))


def _reader(names: tuple[str, ...]) -> Callable[[Any], tuple]:
    """``op -> (op.<name>, ...)`` — one C call for the usual several
    names (``attrgetter`` returns a bare value for one name and refuses
    none, hence the fallback)."""
    if len(names) > 1:
        return attrgetter(*names)
    return lambda op: tuple([getattr(op, name) for name in names])


class Operator:
    """Base class of plan operators.

    ``rows`` is the public entry point: when a
    :class:`~repro.observe.profile.PlanProfiler` is installed on the
    context it meters the stream (actual row counts, elapsed time per
    node — the EXPLAIN ANALYZE numbers); otherwise the subclass stream
    is returned untouched.  Subclasses implement :meth:`_rows`.

    Every operator also describes itself, once, so generic plan code
    (the optimizer's rewrites and factoring, the verifier, the plan
    renderers) never dispatches on the operator class: a subclass
    declares :attr:`params` and writes :meth:`label`; the base derives
    :meth:`children`, :meth:`with_children`, :meth:`param_key` and
    :meth:`describe` from them.  The declaration is checked against the
    constructor when the class is created.
    """

    #: The constructor's parameters after its input, in order; each is
    #: stored under the attribute of the same name.  The input itself
    #: is read off the constructor: a first parameter ``child`` is one
    #: input operator, ``branches`` a list of them, anything else makes
    #: the operator a leaf.
    params: ClassVar[tuple[str, ...]] = ()
    # derived from the constructor and ``params`` at class creation
    _input: ClassVar[str | None] = None
    _read: ClassVar[Callable[[Any], tuple]]
    child: "Operator"
    branches: list["Operator"]

    #: Estimated output cardinality / total cost, stamped by the
    #: optimizer's cost stage (:mod:`repro.stats`); ``None`` on plans
    #: that were never costed.  ``explain_analyze`` shows ``est_rows``
    #: next to the actual row count.
    est_rows: float | None = None
    est_cost: float | None = None
    #: :class:`repro.stats.CostEvidence` on unions the cost stage
    #: reordered or pruned — the audit record the plancheck verifier's
    #: ``PC-COST`` checks re-validate.  ``None`` everywhere else.
    cost_evidence: Any = None

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        names = list(inspect.signature(cls).parameters)
        cls._input = (names.pop(0) if names[:1] in (["child"], ["branches"])
                      else None)
        cls._read = staticmethod(_reader(cls.params))
        if names != list(cls.params):
            raise TypeError(
                f"{cls.__name__}.params {cls.params!r} does not match "
                f"its constructor parameters {names!r}")

    def rows(self, ctx: EvalContext) -> Iterator[Binding]:
        profiler = ctx.profiler
        if profiler is None:
            return self._rows(ctx)
        return profiler.wrap(self, self._rows(ctx))

    def _rows(self, ctx: EvalContext) -> Iterator[Binding]:
        raise NotImplementedError

    # -- self-description ---------------------------------------------------

    def children(self) -> list["Operator"]:
        if self._input == "child":
            return [self.child]
        return list(self.branches) if self._input == "branches" else []

    def with_children(self, children: list["Operator"]) -> "Operator":
        """This operator over other inputs, rebuilt through the
        constructor: everything stamped on a node after construction
        (estimates, cost evidence, memoized probes, the compiler's
        ``structural_alternative``) stays behind on the original."""
        if self._input is None:
            return self
        construct: Callable[..., Operator] = type(self)
        return construct(
            children[0] if self._input == "child" else list(children),
            *self._read(self))

    def param_key(self) -> tuple:
        """The non-child parameters as a hashable key — strings, ints,
        booleans and ``None`` by value, everything else by identity —
        for the optimizer's structural hashing: the compiler and the
        rewrites reuse the same term/variable objects, so equal keys
        over equal children mean the same subplan."""
        return tuple([
            value if type(value) in _BY_VALUE else id(value)
            for value in self._read(self)])

    def label(self) -> str:
        """The operator's own line of a plan rendering (no subtree)."""
        return type(self).__name__

    def describe(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label()]
        lines.extend(child.describe(indent + 1)
                     for child in self.children())
        return "\n".join(lines)

    # -- dataflow contracts (checked statically by repro.plancheck) --------

    def consumes(self) -> frozenset:
        """Variables this operator requires *bound* in every input row.

        The static half of the operator's dataflow contract: the
        :mod:`repro.plancheck` verifier threads a binding environment
        through the plan and rejects any plan where a consumed variable
        is not produced upstream — the class of bug a broken optimizer
        rewrite (a filter pushed below its producer, a probe detached
        from its binder) introduces.
        """
        return frozenset()

    def produces(self) -> frozenset:
        """Variables this operator binds on every row it yields.

        For :class:`FormulaOp` this is an over-approximation (the
        residual formula may re-yield already-bound variables), which
        is sound for the verifier's purpose: the environment only ever
        *grows* along a plan spine, so over-approximating produces can
        never manufacture an unbound-consumption fault.
        """
        return frozenset()

    def __repr__(self) -> str:  # pragma: no cover
        return self.describe()


def walk_once(plan: Operator,
              stop_at: type[Operator] | tuple[()] = ()) -> list[Operator]:
    """Every distinct operator of the plan DAG, once — shared subplans
    are not re-visited through their other consumers.  Operators of
    class ``stop_at`` are listed but not entered."""
    seen: dict[int, Operator] = {}
    stack = [plan]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            if not isinstance(node, stop_at):
                stack.extend(node.children())
    return list(seen.values())


class SeedOp(Operator):
    """One empty binding — the start of every plan."""

    def _rows(self, ctx: EvalContext) -> Iterator[Binding]:
        yield {}

    def label(self) -> str:
        return "Seed"


class BindOp(Operator):
    """Bind ``var`` to the value of a ground term; rows where the term
    does not evaluate (wrong union branch) are dropped."""

    params = ("variable", "term")

    def __init__(self, child: Operator, variable: Any,
                 term: Any) -> None:
        self.child = child
        self.variable = variable
        self.term = term

    def _rows(self, ctx: EvalContext) -> Iterator[Binding]:
        for row in self.child.rows(ctx):
            try:
                value = eval_term(self.term, row, ctx)
            except EvaluationError:
                continue
            if self.variable in row:
                from repro.oodb.values import equivalent
                if equivalent(row[self.variable], value):
                    yield row
                continue
            extended = dict(row)
            extended[self.variable] = value
            yield extended

    def consumes(self) -> frozenset:
        return frozenset(term_variables(self.term))

    def produces(self) -> frozenset:
        return frozenset((self.variable,))

    def label(self) -> str:
        return f"Bind {self.variable} = {self.term}"


class UnnestOp(Operator):
    """Iterate a collection term, binding the element (and, for lists,
    optionally the position).

    ``mode`` mirrors the calculus construct being compiled, so the
    operator matches its semantics exactly:

    * ``"collection"`` — an ``∈`` atom: lists and sets only, no
      dereferencing, no tuple view;
    * ``"positions"`` — a variable ``[I]`` step: auto-dereference, then
      lists or the (marker-skipping) heterogeneous-list view of ordered
      tuples — never sets;
    * ``"set"`` — a ``{X}`` step: auto-dereference, then sets only.
    """

    params = ("collection_term", "element_var", "index_var", "mode")

    def __init__(self, child: Operator, collection_term: Any,
                 element_var: Any, index_var: Any = None,
                 mode: str = "collection") -> None:
        if mode not in ("collection", "positions", "set"):
            raise CompilationError(f"unknown unnest mode {mode!r}")
        self.child = child
        self.collection_term = collection_term
        self.element_var = element_var
        self.index_var = index_var
        self.mode = mode

    def _resolve(self, collection: Any, ctx: EvalContext) -> Any:
        if self.mode == "collection":
            if isinstance(collection, (ListValue, SetValue)):
                return collection
            return None
        collection = _auto_deref(collection, ctx)
        if self.mode == "set":
            return collection if isinstance(collection, SetValue) \
                else None
        # positions
        if isinstance(collection, TupleValue):
            if (collection.is_marked
                    and isinstance(collection.marked_value, TupleValue)):
                collection = collection.marked_value
            return collection.as_heterogeneous_list()
        if isinstance(collection, ListValue):
            return collection
        return None

    def _rows(self, ctx: EvalContext) -> Iterator[Binding]:
        for row in self.child.rows(ctx):
            try:
                collection = eval_term(self.collection_term, row, ctx)
            except EvaluationError:
                continue
            collection = self._resolve(collection, ctx)
            if collection is None:
                continue
            for position, element in enumerate(collection):
                extended = dict(row)
                extended[self.element_var] = element
                if self.index_var is not None:
                    if self.index_var in row:
                        if row[self.index_var] != position:
                            continue
                    else:
                        extended[self.index_var] = position
                yield extended

    def consumes(self) -> frozenset:
        return frozenset(term_variables(self.collection_term))

    def produces(self) -> frozenset:
        produced = {self.element_var}
        if self.index_var is not None:
            produced.add(self.index_var)
        return frozenset(produced)

    def label(self) -> str:
        position = (f" @{self.index_var}" if self.index_var is not None
                    else "")
        return (f"Unnest {self.element_var}{position} in "
                f"{self.collection_term}")


class StepOp(Operator):
    """One navigation step from ``source_var`` into ``out_var``.

    ``kind`` ∈ {attr, attr_by_var, index, index_by_var, deref}.
    ``attr`` applies the implicit union selector and auto-dereferences;
    ``index`` uses the heterogeneous-list view on ordered tuples (this is
    the paper's variant-based selection over heterogeneous collections).
    """

    params = ("source_var", "kind", "argument", "out_var")

    def __init__(self, child: Operator, source_var: Any, kind: str,
                 argument: Any, out_var: Any) -> None:
        self.child = child
        self.source_var = source_var
        self.kind = kind
        self.argument = argument
        self.out_var = out_var

    def _rows(self, ctx: EvalContext) -> Iterator[Binding]:
        for row in self.child.rows(ctx):
            source = row.get(self.source_var)
            if source is None and self.source_var not in row:
                continue
            for value in self._apply(source, row, ctx):
                extended = dict(row)
                extended[self.out_var] = value
                yield extended

    def _apply(self, source: Any, row: Binding,
               ctx: EvalContext) -> list:
        if self.kind == "deref":
            if isinstance(source, Oid):
                return [ctx.instance.deref(source)]
            return []
        if self.kind in ("attr", "attr_by_var"):
            attribute = (self.argument if self.kind == "attr"
                         else row.get(self.argument))
            if not isinstance(attribute, str):
                return []
            base = _auto_deref(source, ctx)
            return _select_attribute(base, attribute)
        if self.kind in ("index", "index_by_var"):
            index = (self.argument if self.kind == "index"
                     else row.get(self.argument))
            if not isinstance(index, int):
                return []
            base = _auto_deref(source, ctx)
            if isinstance(base, TupleValue):
                if (base.is_marked
                        and isinstance(base.marked_value, TupleValue)):
                    base = base.marked_value
                base = base.as_heterogeneous_list()
            if isinstance(base, ListValue) and 0 <= index < len(base):
                return [base[index]]
            return []
        raise CompilationError(f"unknown step kind {self.kind!r}")

    def consumes(self) -> frozenset:
        needed = {self.source_var}
        if self.kind in ("attr_by_var", "index_by_var"):
            needed.add(self.argument)
        return frozenset(needed)

    def produces(self) -> frozenset:
        return frozenset((self.out_var,))

    def label(self) -> str:
        return (f"Step {self.out_var} = {self.source_var}"
                f".{self.kind}({self.argument})")


class MakePathOp(Operator):
    """Reconstruct a path variable's first-class value.

    ``template`` is a list of instructions:
    ``('attr', name)``, ``('index', i)``, ``('index_from', var)``,
    ``('deref',)``, ``('elem_from', var)``.
    """

    params = ("template", "out_var")

    def __init__(self, child: Operator, template: list,
                 out_var: Any) -> None:
        self.child = child
        self.template = template
        self.out_var = out_var

    def _rows(self, ctx: EvalContext) -> Iterator[Binding]:
        for row in self.child.rows(ctx):
            steps = []
            valid = True
            for instruction in self.template:
                kind = instruction[0]
                if kind == "attr":
                    steps.append(AttrStep(instruction[1]))
                elif kind == "index":
                    steps.append(IndexStep(instruction[1]))
                elif kind == "index_from":
                    position = row.get(instruction[1])
                    if not isinstance(position, int):
                        valid = False
                        break
                    steps.append(IndexStep(position))
                elif kind == "deref":
                    steps.append(DEREF)
                elif kind == "elem_from":
                    steps.append(ElemStep(row.get(instruction[1])))
                else:
                    raise CompilationError(
                        f"unknown template instruction {instruction!r}")
            if not valid:
                continue
            extended = dict(row)
            extended[self.out_var] = Path(steps)
            yield extended

    def consumes(self) -> frozenset:
        needed = set()
        for instruction in self.template:
            if instruction[0] in ("index_from", "elem_from"):
                needed.add(instruction[1])
        return frozenset(needed)

    def produces(self) -> frozenset:
        return frozenset((self.out_var,))

    def label(self) -> str:
        rendered = "".join(
            f".{part[1]}" if part[0] == "attr"
            else f"[{part[1]}]" if part[0] in ("index", "index_from")
            else "->" if part[0] == "deref"
            else "{...}"
            for part in self.template)
        return f"MakePath {self.out_var} = {rendered or 'ε'}"


class SelectOp(Operator):
    """Filter by a ground atom (delegated to the calculus atom
    semantics, preserving wrong-branch-is-false)."""

    params = ("atom",)

    def __init__(self, child: Operator, atom: Any) -> None:
        self.child = child
        self.atom = atom

    def _rows(self, ctx: EvalContext) -> Iterator[Binding]:
        for row in self.child.rows(ctx):
            for _ in satisfy(self.atom, row, ctx):
                yield row
                break

    def consumes(self) -> frozenset:
        return frozenset(self.atom.free_variables())

    def label(self) -> str:
        return f"Select {self.atom}"


class NegationOp(Operator):
    """Anti-filter: keep rows where the subformula has no witness."""

    params = ("formula",)

    def __init__(self, child: Operator, formula: Any) -> None:
        self.child = child
        self.formula = formula

    def _rows(self, ctx: EvalContext) -> Iterator[Binding]:
        for row in self.child.rows(ctx):
            if not any(True for _ in satisfy(self.formula, row, ctx)):
                yield row

    def consumes(self) -> frozenset:
        # compile.py only emits NegationOp once every free variable of
        # the negated subformula is bound (safety); an unbound variable
        # here would silently change semantics, so the verifier insists.
        return frozenset(self.formula.free_variables())

    def label(self) -> str:
        return f"AntiFilter ¬({self.formula})"


class FormulaOp(Operator):
    """Generality fallback: satisfy an arbitrary residual formula per
    row via the calculus interpreter (used for quantifiers the purely
    algebraic operators do not cover)."""

    params = ("formula",)

    def __init__(self, child: Operator, formula: Any) -> None:
        self.child = child
        self.formula = formula

    def _rows(self, ctx: EvalContext) -> Iterator[Binding]:
        for row in self.child.rows(ctx):
            yield from satisfy(self.formula, row, ctx)

    def produces(self) -> frozenset:
        # The interpreter extends rows with witnesses for the formula's
        # free variables.  Claiming all of them is a sound
        # over-approximation for the dataflow pass: the environment only
        # ever *grows* along an operator chain, and any variable the
        # interpreter leaves unbound would already fail dynamically.
        return frozenset(self.formula.free_variables())

    def label(self) -> str:
        return f"Formula {self.formula}"


class UnionOp(Operator):
    """Union of alternative plans (the (⋆)-elimination product).

    Before a branch runs, its index probes are consulted: a branch
    gated by an :class:`IndexFilterOp` whose candidate set is *empty*
    cannot yield a row, so the branch is skipped without touching the
    store (``algebra.branches_pruned``).  Only oid-covered filters
    participate — see :attr:`IndexFilterOp.oid_only`.
    """

    def __init__(self, branches: list[Operator]) -> None:
        if not branches:
            raise CompilationError("union of zero plans")
        self.branches = branches
        # branch -> gating IndexFilterOps, computed on first execution
        # (the plan is immutable by then; recomputation is benign)
        self._branch_probes: list[list[IndexFilterOp]] | None = None

    def _probes(self) -> list[list["IndexFilterOp"]]:
        probes = self._branch_probes
        if probes is None:
            probes = [gating_index_filters(branch)
                      for branch in self.branches]
            self._branch_probes = probes
        return probes

    def _rows(self, ctx: EvalContext) -> Iterator[Binding]:
        metrics = ctx.metrics
        if metrics is not None:
            # the (⋆)-elimination fan-out of Section 5.4, per execution
            metrics.inc("algebra.union_fanout", len(self.branches))
        for branch, probes in zip(self.branches, self._probes()):
            pruned = False
            for probe in probes:
                candidates = probe.candidate_set(ctx)
                if candidates is not None and not candidates:
                    pruned = True
                    break
            if pruned:
                if metrics is not None:
                    metrics.inc("algebra.branches_pruned")
                continue
            yield from branch.rows(ctx)

    def label(self) -> str:
        return f"Union ({len(self.branches)} branches)"


def gating_index_filters(branch: Operator) -> list["IndexFilterOp"]:
    """The oid-covered IndexFilterOps every row of ``branch`` must pass.

    Walks the branch spine (through shared nodes) but not into nested
    unions — those prune their own branches.
    """
    return [node for node in walk_once(branch, stop_at=UnionOp)
            if isinstance(node, IndexFilterOp) and node.oid_only]


class SharedOp(Operator):
    """A subplan referenced by several consumers — the DAG node the
    optimizer's common-prefix factoring introduces.

    The first consumer in an execution streams the child and records
    the rows; later consumers replay the recorded stream
    (``algebra.subplan_hits`` / ``algebra.rows_saved``).  The memo
    table is **per execution**: :func:`repro.algebra.execute.execute_plan`
    installs ``ctx.shared_memo`` for the duration of one run, so a plan
    cached across epochs (PR 2) never replays stale rows and concurrent
    runs never share state.  Replaying the same binding dicts is safe
    because operators extend rows by copying, never in place.
    """

    params = ("ref_count", "shared_id")

    def __init__(self, child: Operator, ref_count: int = 1,
                 shared_id: int = 0) -> None:
        self.child = child
        #: number of consumers in the factored plan (display only)
        self.ref_count = ref_count
        #: 1-based label shown in plan renderings (``Shared[2] ×3``)
        self.shared_id = shared_id

    def _rows(self, ctx: EvalContext) -> Iterator[Binding]:
        memo = getattr(ctx, "shared_memo", None)
        if memo is None:
            # bare execution outside execute_plan: no memo, stream through
            yield from self.child.rows(ctx)
            return
        metrics = ctx.metrics
        cached = memo.get(id(self))
        if cached is not None:
            if metrics is not None:
                metrics.inc("algebra.subplan_hits")
                metrics.inc("algebra.rows_saved", len(cached))
            yield from cached
            return
        if metrics is not None:
            metrics.inc("algebra.subplan_misses")
        rows: list[Binding] = []
        for row in self.child.rows(ctx):
            rows.append(row)
            yield row
        # publish only complete streams: an abandoned generator leaves no
        # entry, so the next consumer recomputes instead of replaying a
        # truncated prefix
        memo[id(self)] = rows

    def param_key(self) -> tuple:
        # a shared node is already a merge point: never merged again
        return (id(self),)

    def label(self) -> str:
        return f"Shared[{self.shared_id}] ×{self.ref_count}"


_NO_CANDIDATES = object()  # "probe not yet run" (None = "no pruning")


class IndexFilterOp(Operator):
    """Optimizer product: prune rows whose variable cannot satisfy a
    ``contains`` pattern, using the full-text index, then re-check
    exactly.

    The candidate set is probed once per plan object and memoized —
    sound because a plan never outlives its compilation epoch: the plan
    cache recompiles after any data change, so a fresh plan re-probes
    the (incrementally maintained) index.

    ``oid_only`` records a compile-time fact: every value the filtered
    variable can bind is an oid (all candidate types are classes).
    Oids are exactly what the index covers, so under ``oid_only`` an
    *empty* candidate set means the filter passes nothing — which lets
    :class:`UnionOp` skip the whole branch before it runs.
    """

    params = ("variable", "pattern", "recheck_atom", "oid_only")

    def __init__(self, child: Operator, variable: Any, pattern: Any,
                 recheck_atom: Any, oid_only: bool = False) -> None:
        self.child = child
        self.variable = variable
        self.pattern = pattern
        self.recheck_atom = recheck_atom
        self.oid_only = oid_only
        self._candidates = _NO_CANDIDATES

    def candidate_set(self, ctx: EvalContext) -> Any:
        """The memoized index probe (``None`` = no index or no pruning
        possible; see :meth:`repro.text.TextIndex.candidates`)."""
        index = getattr(ctx, "text_index", None)
        if index is None:
            return None
        if self._candidates is _NO_CANDIDATES:
            self._candidates = index.candidates(self.pattern)
        return self._candidates

    def _rows(self, ctx: EvalContext) -> Iterator[Binding]:
        metrics = ctx.metrics
        candidates = self.candidate_set(ctx)
        if getattr(ctx, "text_index", None) is None:
            # no index available: behave like a plain select
            for row in self.child.rows(ctx):
                if metrics is not None:
                    metrics.inc("algebra.contains_rechecks")
                for _ in satisfy(self.recheck_atom, row, ctx):
                    yield row
                    break
            return
        for row in self.child.rows(ctx):
            value = row.get(self.variable)
            if candidates is not None and isinstance(value, Oid):
                if value not in candidates:
                    if metrics is not None:
                        metrics.inc("algebra.index_pruned")
                    continue
            if metrics is not None:
                metrics.inc("algebra.contains_rechecks")
            for _ in satisfy(self.recheck_atom, row, ctx):
                yield row
                break

    def consumes(self) -> frozenset:
        return frozenset({self.variable}
                         | set(self.recheck_atom.free_variables()))

    def label(self) -> str:
        return f"IndexFilter {self.variable} contains {self.pattern}"


class StructuralScanOp(Operator):
    """Valuate an unbound path variable by one structural range scan.

    Replaces the whole union-of-plans fan-out rooted at ``source_var``:
    for each input row, the valuation of ``path_var`` is the set of
    concrete paths from the row's source value, and ``out_var`` the
    value each path reaches.  When the structural index
    (:mod:`repro.structindex`) holds a *complete* occurrence of the
    source, that set is the contiguous pre range of the occurrence's
    subtree (``structindex.range_scans``); otherwise the operator falls
    back to the live walk the calculus itself uses
    (``structindex.fallback_walks``) — identical pairs either way, so
    the rewrite is an execution-strategy change only.
    """

    params = ("source_var", "path_var", "out_var")

    def __init__(self, child: Operator, source_var: Any,
                 path_var: Any, out_var: Any) -> None:
        self.child = child
        self.source_var = source_var
        self.path_var = path_var
        self.out_var = out_var

    def _pairs(self, source: Any, ctx: EvalContext) -> Any:
        index = getattr(ctx, "struct_index", None)
        if index is not None and ctx.path_semantics == RESTRICTED:
            located = index.locate(source)
            if located is not None:
                block, pre = located
                if ctx.metrics is not None:
                    ctx.metrics.inc("structindex.range_scans")
                    ctx.metrics.inc("structindex.nodes_scanned",
                                    block.subtree_size(pre))
                return block.relative_pairs(pre, ctx.max_paths)
            if ctx.metrics is not None:
                ctx.metrics.inc("structindex.fallback_walks")
        return paths_from(source, ctx.instance, ctx.path_semantics,
                          ctx.max_paths)

    def _rows(self, ctx: EvalContext) -> Iterator[Binding]:
        for row in self.child.rows(ctx):
            source = row.get(self.source_var)
            if source is None and self.source_var not in row:
                continue
            for path, value in self._pairs(source, ctx):
                extended = dict(row)
                extended[self.path_var] = path
                extended[self.out_var] = value
                yield extended

    def consumes(self) -> frozenset:
        return frozenset((self.source_var,))

    def produces(self) -> frozenset:
        return frozenset((self.path_var, self.out_var))

    def label(self) -> str:
        return (f"StructuralScan {self.path_var}, {self.out_var} "
                f"⇐ subtree({self.source_var})")


class StructuralAttrScanOp(StructuralScanOp):
    """A structural scan fused with the attribute selection that
    follows it — the accelerator's real workhorse.

    ``PATH_p.title(t)`` does not need to enumerate the subtree and try
    ``.title`` on every node: the block's per-name AttrStep slice knows
    exactly where ``title`` attributes live, and
    :meth:`~repro.structindex.Block.attr_candidates` widens those
    positions to every holder a selection can reach (auto-dereference
    chains, marked unions, semantics-blocked oids).  Each candidate is
    then put through the *same* selection logic as :class:`StepOp`
    (``_auto_deref`` + ``_select_attribute``), so the fusion changes
    only which nodes are tried, never what a trial means.

    ``attr`` is a fixed attribute name; alternatively ``attr_var`` is
    an unbound attribute variable (the Section-5.4 fan-out over every
    candidate name), bound per row to the name that matched.  Binds
    ``path_var`` (path to the holder), ``out_var`` (the holder) and
    ``value_var`` (the selected value).  Sources without a usable
    occurrence fall back to the live walk, identically filtered.
    """

    params = ("source_var", "path_var", "out_var", "attr", "attr_var",
              "value_var")

    def __init__(self, child: Operator, source_var: Any,
                 path_var: Any, out_var: Any, attr: Any,
                 attr_var: Any, value_var: Any) -> None:
        super().__init__(child, source_var, path_var, out_var)
        self.attr = attr
        self.attr_var = attr_var
        self.value_var = value_var

    def _rows(self, ctx: EvalContext) -> Iterator[Binding]:
        index = getattr(ctx, "struct_index", None)
        usable = index is not None and ctx.path_semantics == RESTRICTED
        metrics = ctx.metrics
        for row in self.child.rows(ctx):
            source = row.get(self.source_var)
            if source is None and self.source_var not in row:
                continue
            located = index.locate(source) if usable else None
            if located is not None:
                block, pre = located
                if (ctx.max_paths is None
                        or block.subtree_size(pre) <= ctx.max_paths):
                    if metrics is not None:
                        metrics.inc("structindex.range_scans")
                    depth = len(block.paths[pre].steps)
                    candidates = block.attr_candidates(pre, self.attr)
                    if metrics is not None:
                        metrics.inc("structindex.nodes_scanned",
                                    len(candidates))
                    for position in candidates:
                        path = Path._unsafe(
                            block.paths[position].steps[depth:])
                        yield from self._emit(
                            row, path, block.values[position], ctx)
                    continue
                # subtree larger than max_paths: only the live walk
                # reproduces the enumeration-limit error contract
            if usable and metrics is not None:
                metrics.inc("structindex.fallback_walks")
            for path, node in paths_from(source, ctx.instance,
                                         ctx.path_semantics,
                                         ctx.max_paths):
                yield from self._emit(row, path, node, ctx)

    def _emit(self, row: Binding, path: Any, node: Any,
              ctx: EvalContext) -> Iterator[Binding]:
        base = _auto_deref(node, ctx)
        if self.attr is not None:
            names = (self.attr,)
        else:
            if not isinstance(base, TupleValue):
                return
            names = [name for name, _ in base.fields]
            if (base.is_marked
                    and isinstance(base.marked_value, TupleValue)):
                for name, _ in base.marked_value.fields:
                    if name not in names:
                        names.append(name)
        for name in names:
            for value in _select_attribute(base, name):
                extended = dict(row)
                extended[self.path_var] = path
                extended[self.out_var] = node
                if self.attr_var is not None:
                    extended[self.attr_var] = name
                extended[self.value_var] = value
                yield extended

    def produces(self) -> frozenset:
        produced = {self.path_var, self.out_var, self.value_var}
        if self.attr_var is not None:
            produced.add(self.attr_var)
        return frozenset(produced)

    def label(self) -> str:
        selector = (f".{self.attr}" if self.attr is not None
                    else f".{self.attr_var}")
        return (f"StructuralAttrScan {self.path_var}, {self.out_var}"
                f"{selector} ⇒ {self.value_var} "
                f"⇐ subtree({self.source_var})")


class IntervalJoinOp(Operator):
    """A structural scan whose output is equated with an already-bound
    variable — the ancestor/descendant interval join.

    Fuses ``Select (out ≡ probe)`` into the scan: instead of
    enumerating the subtree and filtering, probe the block's secondary
    slice for the row's ``probe_var`` value and bisect its (pre-sorted)
    positions into the subtree interval
    (``structindex.interval_probes`` / ``structindex.interval_hits``).
    Probes outside the slices' equality domain (collections) and
    sources without a complete occurrence fall back to scan + the exact
    recheck atom, preserving ``≡`` semantics bit-for-bit.
    """

    params = ("source_var", "path_var", "out_var", "probe_var",
              "recheck_atom")

    def __init__(self, child: Operator, source_var: Any,
                 path_var: Any, out_var: Any, probe_var: Any,
                 recheck_atom: Any) -> None:
        self.child = child
        self.source_var = source_var
        self.path_var = path_var
        self.out_var = out_var
        self.probe_var = probe_var
        self.recheck_atom = recheck_atom

    def _rows(self, ctx: EvalContext) -> Iterator[Binding]:
        index = getattr(ctx, "struct_index", None)
        usable = index is not None and ctx.path_semantics == RESTRICTED
        metrics = ctx.metrics
        for row in self.child.rows(ctx):
            source = row.get(self.source_var)
            if source is None and self.source_var not in row:
                continue
            matches = None
            if usable and self.probe_var in row:
                located = index.locate(source)
                if located is not None:
                    block, pre = located
                    matches = block.matches_in(pre, row[self.probe_var])
            if matches is not None:
                if metrics is not None:
                    metrics.inc("structindex.interval_probes")
                    metrics.inc("structindex.interval_hits",
                                len(matches))
                for path, value in matches:
                    extended = dict(row)
                    extended[self.path_var] = path
                    extended[self.out_var] = value
                    yield extended
                continue
            # fallback: full scan + exact atom recheck (= SelectOp over
            # StructuralScanOp, which itself falls back to the live walk)
            if usable and metrics is not None:
                metrics.inc("structindex.fallback_walks")
            for path, value in paths_from(
                    source, ctx.instance, ctx.path_semantics,
                    ctx.max_paths):
                extended = dict(row)
                extended[self.path_var] = path
                extended[self.out_var] = value
                for _ in satisfy(self.recheck_atom, extended, ctx):
                    yield extended
                    break

    def consumes(self) -> frozenset:
        return frozenset((self.source_var, self.probe_var))

    def produces(self) -> frozenset:
        return frozenset((self.path_var, self.out_var))

    def label(self) -> str:
        return (f"IntervalJoin {self.out_var} ≡ {self.probe_var} "
                f"in subtree({self.source_var}), path {self.path_var}")


class ProjectOp(Operator):
    """Final projection/deduplication on the head variables."""

    params = ("head",)
    #: Candidate types per variable, recorded by the compiler for the
    #: index rewrite and the verifier's ``PC-TYPE`` replay.
    var_types: dict | None = None

    def __init__(self, child: Operator, head: list) -> None:
        self.child = child
        self.head = list(head)

    def with_children(self, children: list[Operator]) -> Operator:
        rebuilt = ProjectOp(children[0], self.head)
        rebuilt.var_types = self.var_types
        return rebuilt

    def param_key(self) -> tuple:
        # the constructor copies the head list: key on its variables
        return tuple(id(variable) for variable in self.head)

    def _rows(self, ctx: EvalContext) -> Iterator[Binding]:
        seen: set = set()
        for row in self.child.rows(ctx):
            projected = {variable: row[variable] for variable in self.head
                         if variable in row}
            if len(projected) != len(self.head):
                continue
            key = tuple(repr(projected[variable])
                        for variable in self.head)
            if key not in seen:
                seen.add(key)
                yield projected

    def consumes(self) -> frozenset:
        return frozenset(self.head)

    def label(self) -> str:
        names = ", ".join(str(v) for v in self.head)
        return f"Project [{names}]"
