"""The operator algebra (Section 5.4).

Operators map column batches to column batches
(:mod:`repro.algebra.batch`): :meth:`Operator.batch` asks the
operator's input for *its* whole batch and returns one
:class:`~repro.algebra.batch.Batch` — the rows it produces, as the
columns it adds over (an index vector into) its input's rows.  A plan
is an operator DAG; executing it is one ``batch`` call on the final
:class:`ProjectOp`, whose distinct head columns are the query's result
set.  No dict, generator frame or copy exists per row: filters build
one index vector, expanding operators one index vector plus their own
columns, the structural operators loop once per *source* over the
index arrays.  The operators whose meaning is a calculus term or
ground atom (:class:`BindOp`, :class:`UnnestOp`, :class:`SelectOp`,
the :class:`IntervalJoinOp` fallback) compute it with a column kernel
(:mod:`repro.algebra.kernels`), which goes to the interpreter only
for the shapes it has no kernel for;
:class:`NegationOp` and :class:`FormulaOp`, whose meaning is a whole
formula, hand ``satisfy`` one environment per row by design.

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

import functools
import inspect
from bisect import bisect_left
from itertools import chain, repeat
from operator import attrgetter, itemgetter, sub
from typing import Any, Callable, ClassVar, Iterable

from repro.errors import CompilationError, EvaluationError
from repro.algebra.batch import MISSING, Batch, Column, Late, concat
from repro.algebra.kernels import (
    _count,
    _holds,
    atom_kernel,
    contains_kernel,
    contains_pattern,
    memoized_probe,
    term_kernel,
)
from repro.calculus.evaluator import (
    EvalContext,
    _auto_deref,
    _select_attribute,
    satisfy,
)
from repro.calculus.terms import Variable, term_variables
from repro.oodb.values import (
    ListValue,
    Oid,
    SetValue,
    TupleValue,
    equivalent,
)
from repro.paths.enumeration import RESTRICTED, paths_from
from repro.paths.steps import (
    AttrStep,
    DEREF,
    ElemStep,
    IndexStep,
    Path,
)


_BY_VALUE = frozenset((str, int, bool, type(None)))
_COLLECTIONS = frozenset((ListValue, SetValue))


def _reader(names: tuple[str, ...]) -> Callable[[Any], tuple]:
    """``op -> (op.<name>, ...)`` — one C call for the usual several
    names (``attrgetter`` returns a bare value for one name and refuses
    none, hence the fallback)."""
    if len(names) > 1:
        return attrgetter(*names)
    return lambda op: tuple([getattr(op, name) for name in names])


def _metered(produce: Callable[[Any, EvalContext], Batch]
             ) -> Callable[[Any, EvalContext], Batch]:
    """``produce`` behind the profiler hook: with a
    :class:`~repro.observe.profile.PlanProfiler` on the context the
    call is timed and its ``batch.size`` counted (the EXPLAIN ANALYZE
    numbers); otherwise it is just made."""
    @functools.wraps(produce)
    def batch(self: Any, ctx: EvalContext) -> Batch:
        profiler = ctx.profiler
        if profiler is None:
            return produce(self, ctx)
        return profiler.wrap(self, produce, ctx)
    return batch


class Operator:
    """Base class of plan operators.

    A subclass implements :meth:`batch`: ask the input operator(s) for
    their batch, return one :class:`~repro.algebra.batch.Batch`.  The
    method is wrapped at class creation so that a
    :class:`~repro.observe.profile.PlanProfiler` installed on the
    context meters every call (actual row counts, elapsed time per
    node — the EXPLAIN ANALYZE numbers); without one the call goes
    straight through.

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
    #: The operator's term or atom kernel
    #: (:mod:`repro.algebra.kernels`), chosen when it first executes.
    _kernel: Any = None

    def _chosen(self, choose: Callable[..., Any], *about: Any) -> Any:
        """The kernel ``choose(*about)``, chosen once per operator."""
        kernel = self._kernel
        if kernel is None:
            kernel = self._kernel = choose(*about)
        return kernel

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
        if "batch" in cls.__dict__:
            setattr(cls, "batch", _metered(cls.__dict__["batch"]))

    def batch(self, ctx: EvalContext) -> Batch:
        """The operator's output over the whole input.  What it may
        assume of its input batch: every variable in :meth:`consumes`
        is there (the verifier's dataflow contract) though possibly
        with holes; columns have no order, only names; a column it
        does not ask for costs nothing."""
        raise NotImplementedError

    # -- self-description ---------------------------------------------------

    def children(self) -> list["Operator"]:
        if self._input == "child":
            return [self.child]
        return list(self.branches) if self._input == "branches" else []

    def with_children(self, children: list["Operator"]) -> "Operator":
        """This operator over other inputs, rebuilt through the
        constructor: everything stamped on a node after construction
        (estimates, cost evidence, memoized probes) stays behind on the
        original."""
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

    def batch(self, ctx: EvalContext) -> Batch:
        return Batch(1, {})

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

    def batch(self, ctx: EvalContext) -> Batch:
        source = self.child.batch(ctx)
        if not source.size:
            return source
        variable, term = self.variable, self.term
        rebinds = source.has(variable)
        if (isinstance(term, Variable) and source.total(term)
                and not rebinds):
            # an alias: the same column under another name
            return source.derive(
                {variable: functools.partial(source.column, term)})
        bound = source.column(variable) if rebinds else None
        kernel = self._chosen(term_kernel, term)
        keep = []
        values = []
        for row, value in enumerate(kernel(source, ctx)):
            if value is MISSING:
                continue
            if bound is not None and bound[row] is not MISSING:
                # already bound: the row survives if the values agree
                if not equivalent(bound[row], value):
                    continue
                value = bound[row]
            keep.append(row)
            values.append(value)
        return source.select(keep, {variable: values})

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
      dereferencing, no tuple view, no position;
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

    def _items(self, collection: Any, ctx: EvalContext) -> tuple:
        """The elements a ``positions``/``set`` step iterates: none
        when it reaches no list (or tuple, for positions) or set."""
        collection = _auto_deref(collection, ctx)
        if self.mode == "set":
            return collection.items if isinstance(collection, SetValue) \
                else ()
        # positions
        if isinstance(collection, TupleValue):
            if (collection.is_marked
                    and isinstance(collection.marked_value, TupleValue)):
                collection = collection.marked_value
            return collection.as_heterogeneous_list().items
        if isinstance(collection, ListValue):
            return collection.items
        return ()

    def batch(self, ctx: EvalContext) -> Batch:
        source = self.child.batch(ctx)
        if not source.size:
            return source
        index_var = self.index_var
        bound = (source.column(index_var)
                 if index_var is not None and source.has(index_var)
                 else None)
        collections = self._chosen(term_kernel, self.collection_term)(
            source, ctx)
        if self.mode == "collection":
            # an ∈ atom: a list's or set's items as they are
            found = [value.items if type(value) in _COLLECTIONS else ()
                     for value in collections]
        else:
            found = [() if value is MISSING else self._items(value, ctx)
                     for value in collections]
        if bound is None:
            # whole columns: the items one after the other, and an
            # index vector built only if an inherited column is read
            lengths = list(map(len, found))
            columns: dict[Any, Late] = {
                self.element_var: list(chain.from_iterable(found))}
            if index_var is not None:
                columns[index_var] = list(
                    chain.from_iterable(map(range, lengths)))
            return source.derive(
                columns, lambda: list(chain.from_iterable(
                    map(repeat, range(len(lengths)), lengths))),
                sum(lengths))
        index: list[int] = []
        elements: Column = []
        positions: Column = []
        for row, items in enumerate(found):
            at = bound[row]
            if at is MISSING:
                elements.extend(items)
                index.extend(repeat(row, len(items)))
                if index_var is not None:
                    positions.extend(range(len(items)))
                continue
            # position already bound: only the element at it
            for position, element in enumerate(items):
                if at == position:
                    elements.append(element)
                    index.append(row)
                    positions.append(at)
        columns = {self.element_var: elements}
        if index_var is not None:
            columns[index_var] = positions
        return source.derive(columns, index)

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

    def batch(self, ctx: EvalContext) -> Batch:
        source = self.child.batch(ctx)
        if not source.size:
            return source
        if not source.has(self.source_var):
            return source.select([])
        arguments: Iterable[Any] = repeat(self.argument)
        if self.kind in ("attr_by_var", "index_by_var"):
            arguments = (source.column(self.argument)
                         if source.has(self.argument)
                         else repeat(MISSING))
        keep = []
        values = []
        for row, (start, argument) in enumerate(
                zip(source.column(self.source_var), arguments)):
            if start is MISSING:
                continue
            for value in self._apply(start, argument, ctx):
                keep.append(row)
                values.append(value)
        return source.select(keep, {self.out_var: values})

    def _apply(self, source: Any, argument: Any,
               ctx: EvalContext) -> list:
        """The 0 or 1 values the step reaches from ``source``;
        ``argument`` is the attribute name / position, resolved."""
        if self.kind == "deref":
            if isinstance(source, Oid):
                return [ctx.instance.deref(source)]
            return []
        if self.kind in ("attr", "attr_by_var"):
            if not isinstance(argument, str):
                return []
            base = _auto_deref(source, ctx)
            return _select_attribute(base, argument)
        if self.kind in ("index", "index_by_var"):
            if not isinstance(argument, int):
                return []
            base = _auto_deref(source, ctx)
            if isinstance(base, TupleValue):
                if (base.is_marked
                        and isinstance(base.marked_value, TupleValue)):
                    base = base.marked_value
                base = base.as_heterogeneous_list()
            if (isinstance(base, ListValue)
                    and 0 <= argument < len(base)):
                return [base[argument]]
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

    def batch(self, ctx: EvalContext) -> Batch:
        source = self.child.batch(ctx)
        if not source.size:
            return source
        # per instruction: the fixed step, or the column a step is
        # made from row by row
        fixed: list[Any] = []
        varying: dict[int, tuple[Callable[[Any], Any], Column]] = {}
        keep = list(range(source.size))
        for slot, instruction in enumerate(self.template):
            kind = instruction[0]
            fixed.append(None)
            if kind == "attr":
                fixed[slot] = AttrStep(instruction[1])
            elif kind == "index":
                fixed[slot] = IndexStep(instruction[1])
            elif kind == "deref":
                fixed[slot] = DEREF
            elif kind in ("index_from", "elem_from"):
                column = (source.column(instruction[1])
                          if source.has(instruction[1])
                          else [MISSING] * source.size)
                if kind == "index_from":
                    # rows without an integer position are dropped
                    keep = [row for row in keep
                            if isinstance(column[row], int)]
                    varying[slot] = (IndexStep, column)
                else:
                    varying[slot] = (_elem_step, column)
            else:
                raise CompilationError(
                    f"unknown template instruction {instruction!r}")

        def paths() -> Column:
            if not varying:
                return [Path(fixed)] * len(keep)
            built = []
            for row in keep:
                steps = list(fixed)
                for slot, (make, column) in varying.items():
                    steps[slot] = make(column[row])
                built.append(Path(steps))
            return built

        return source.select(keep, {self.out_var: paths})

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


def _elem_step(value: Any) -> ElemStep:
    return ElemStep(None if value is MISSING else value)


class SelectOp(Operator):
    """Filter by a ground atom (the calculus atom semantics,
    wrong-branch-is-false included, as its kernel computes them).

    A ``contains(X, <constant pattern>)`` select is the index-backed
    filter of Section 4.1: ``pattern`` is that pattern (``None`` on any
    other atom) and ``probe(ctx)`` its memoized
    :meth:`repro.text.TextIndex.probe` — ``(keys, exact)``,
    ``(None, False)`` without an index or when no pruning is possible —
    issued once per plan object and index
    (:func:`~repro.algebra.kernels.memoized_probe`) and read by the
    select's kernel, by the :class:`UnionOp` above it and by nothing
    else.

    ``oid_only`` records a compile-time fact the compiler's last pass
    sets: every value the subject can bind is an oid (a variable whose
    candidate types are all classes).  Oids are exactly what the index
    covers, so under ``oid_only`` an *empty* key set means the filter
    passes nothing — which lets :class:`UnionOp` skip the whole branch
    before it runs (:meth:`proves_empty`) and the cost stage prune it
    statically.
    """

    params = ("atom", "oid_only")

    def __init__(self, child: Operator, atom: Any,
                 oid_only: bool = False) -> None:
        self.child = child
        self.atom = atom
        self.oid_only = oid_only
        self.pattern = contains_pattern(atom)
        self.probe = (None if self.pattern is None
                      else memoized_probe(self.pattern))

    def batch(self, ctx: EvalContext) -> Batch:
        source = self.child.batch(ctx)
        if not source.size:
            return source
        if self.probe is None:
            kernel = self._chosen(atom_kernel, self.atom)
        else:
            kernel = self._chosen(contains_kernel, self.atom, self.probe)
        return source.select(kernel(source, ctx))

    def proves_empty(self, ctx: EvalContext) -> bool:
        """Under ``oid_only``: no indexed key can satisfy the pattern,
        and the index vouches for every key it holds — an index marked
        stale proves nothing about the keys indexed before the mark."""
        keys, _ = self.probe(ctx)
        return (keys is not None and not keys
                and not ctx.text_index.stale)

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

    def batch(self, ctx: EvalContext) -> Batch:
        source = self.child.batch(ctx)
        if not source.size:
            return source
        formula = self.formula
        return source.select(
            [row for row, env in enumerate(source.envs(self.consumes()))
             if not _holds(formula, env, ctx)])

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

    def batch(self, ctx: EvalContext) -> Batch:
        source = self.child.batch(ctx)
        if not source.size:
            return source
        formula = self.formula
        # the interpreter sees the formula's free variables the row
        # already binds, and extends them with its witnesses
        index = []
        witnesses = []
        for row, env in enumerate(
                source.envs(formula.free_variables())):
            for witness in satisfy(formula, env, ctx):
                index.append(row)
                witnesses.append(witness)
        names: dict[Any, None] = {}
        for witness in witnesses:
            names.update(dict.fromkeys(witness))
        columns = {name: [witness.get(name, MISSING)
                          for witness in witnesses]
                   for name in names if not source.total(name)}
        holes = [name for name, column in columns.items()
                 if any(value is MISSING for value in column)]
        extended = source.derive(columns, index)
        extended.holes = frozenset(holes)
        return extended

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
    gated by a ``contains`` :class:`SelectOp` that
    :meth:`~SelectOp.proves_empty` cannot yield a row, so the branch is
    skipped without touching the store (``algebra.branches_pruned``).
    Only oid-covered selects participate — see
    :attr:`SelectOp.oid_only`.
    """

    def __init__(self, branches: list[Operator]) -> None:
        if not branches:
            raise CompilationError("union of zero plans")
        self.branches = branches
        # branch -> gating selects, computed on first execution (the
        # plan is immutable by then; recomputation is benign)
        self._branch_probes: list[list[SelectOp]] | None = None

    def _probes(self) -> list[list[SelectOp]]:
        probes = self._branch_probes
        if probes is None:
            probes = [gating_index_filters(branch)
                      for branch in self.branches]
            self._branch_probes = probes
        return probes

    def batch(self, ctx: EvalContext) -> Batch:
        metrics = ctx.metrics
        if metrics is not None:
            # the (⋆)-elimination fan-out of Section 5.4, per execution
            metrics.inc("algebra.union_fanout", len(self.branches))
        parts = []
        for branch, gates in zip(self.branches, self._probes()):
            if any(gate.proves_empty(ctx) for gate in gates):
                if metrics is not None:
                    metrics.inc("algebra.branches_pruned")
                continue
            parts.append(branch.batch(ctx))
        return concat(parts)

    def label(self) -> str:
        return f"Union ({len(self.branches)} branches)"


def gating_index_filters(branch: Operator) -> list[SelectOp]:
    """The oid-covered ``contains`` selects every row of ``branch``
    must pass.

    Walks the branch spine (through shared nodes) but not into nested
    unions — those prune their own branches.
    """
    return [node for node in walk_once(branch, stop_at=UnionOp)
            if isinstance(node, SelectOp) and node.oid_only]


class SharedOp(Operator):
    """A subplan referenced by several consumers — the DAG node the
    optimizer's common-prefix factoring introduces.

    The first consumer in an execution computes the child's batch;
    later consumers are handed the same :class:`Batch` object
    (``algebra.subplan_hits`` / ``algebra.rows_saved``) — safe because
    columns are never mutated, and what one consumer gathers from it
    is cached for the next.  The memo table is **per execution**:
    :func:`repro.algebra.execute.execute_plan` installs
    ``ctx.shared_memo`` for the duration of one run, so a plan cached
    across epochs (PR 2) never replays stale rows and concurrent runs
    never share state.
    """

    params = ("ref_count", "shared_id")

    def __init__(self, child: Operator, ref_count: int = 1,
                 shared_id: int = 0) -> None:
        self.child = child
        #: number of consumers in the factored plan (display only)
        self.ref_count = ref_count
        #: 1-based label shown in plan renderings (``Shared[2] ×3``)
        self.shared_id = shared_id

    def batch(self, ctx: EvalContext) -> Batch:
        memo = getattr(ctx, "shared_memo", None)
        if memo is None:
            # bare execution outside execute_plan: nothing to share
            return self.child.batch(ctx)
        metrics = ctx.metrics
        cached: Batch | None = memo.get(id(self))
        if cached is not None:
            if metrics is not None:
                metrics.inc("algebra.subplan_hits")
                metrics.inc("algebra.rows_saved", cached.size)
            return cached
        if metrics is not None:
            metrics.inc("algebra.subplan_misses")
        computed = memo[id(self)] = self.child.batch(ctx)
        return computed

    def param_key(self) -> tuple:
        # a shared node is already a merge point: never merged again
        return (id(self),)

    def label(self) -> str:
        return f"Shared[{self.shared_id}] ×{self.ref_count}"


class _Scan:
    """One execution of a structural operator: the runs the three of
    them share, and their output batch.

    The output is a list of *runs* ``(block, rows, pres, counts,
    positions)`` in input row order.  Over a block: input rows
    ``rows`` were located at the pre ranks ``pres`` of ``block``, row
    ``rows[k]`` continues into ``counts[k]`` output rows, and
    ``positions`` holds one pre rank of the block per output row.  Of
    the live walk (``block`` and ``pres`` are ``None``): one input row,
    and ``positions`` are the walk's ``(path, value)`` pairs.  The
    batch's index vector and its path and node columns are derived from
    the runs on first use: a query that only reads what the scan
    *reaches* builds neither the index vector nor a :class:`Path`, and
    one that reads the path builds one per row
    (:meth:`~repro.structindex.Block.path`).
    """

    def __init__(self, op: "StructuralScanOp | IntervalJoinOp",
                 source: Batch, ctx: EvalContext) -> None:
        self.op = op
        self.source = source
        self.ctx = ctx
        index = getattr(ctx, "struct_index", None)
        self.struct_index = (
            index if ctx.path_semantics == RESTRICTED else None)
        self.runs: list[tuple[Any, list[int], Any, list[int], list]] = []
        self.range_scans = self.nodes_scanned = self.fallback_walks = 0

    def sources(self) -> list[tuple[int, Any, Any]]:
        """``(row, source value, located)`` for the rows that bind the
        operator's source variable; ``located`` is a complete indexed
        occurrence ``(block, pre)`` of the source or ``None`` — one
        :meth:`~repro.structindex.StructuralIndex.locate_all` for the
        whole batch."""
        source, variable = self.source, self.op.source_var
        if not source.has(variable):
            return []
        values = source.column(variable)
        if source.total(variable):
            rows: Iterable[int] = range(len(values))
        else:
            rows = [row for row, value in enumerate(values)
                    if value is not MISSING]
            values = list(map(values.__getitem__, rows))
        located: Iterable[Any] = (
            self.struct_index.locate_all(values)
            if self.struct_index is not None and values else repeat(None))
        return list(zip(rows, values, located))

    def stretches(self, limit: int | None = None
                  ) -> list[tuple[Any, list[int], list]]:
        """The sources in row order, as ``(block, rows, pres)`` for each
        maximal stretch of consecutive sources located in one block,
        and ``(None, [row], [source value])`` for a source the index
        does not serve: unlocated, or (with a ``limit``) its subtree
        has more than ``limit`` nodes."""
        stretches: list[tuple[Any, list[int], list]] = []
        current = rows = pres = None
        for row, value, located in self.sources():
            if located is not None:
                block, pre = located
                if limit is None or block.end[pre] - pre <= limit:
                    if block is not current:
                        current, rows, pres = block, [], []
                        stretches.append((block, rows, pres))
                    rows.append(row)
                    pres.append(pre)
                    continue
            stretches.append((None, [row], [value]))
            current = None
        return stretches

    def live_pairs(self, start: Any) -> Any:
        """The live walk's ``(path, value)`` pairs — what serves a
        source the index cannot."""
        if self.struct_index is not None:
            self.fallback_walks += 1
        ctx = self.ctx
        return paths_from(start, ctx.instance, ctx.path_semantics,
                          ctx.max_paths)

    def add_live(self, row: int, pairs: list) -> None:
        self.runs.append((None, [row], None, [len(pairs)], pairs))

    def _index(self) -> list[int]:
        index: list[int] = []
        for _, rows, _, counts, _ in self.runs:
            index.extend(chain.from_iterable(map(repeat, rows, counts)))
        return index

    def _paths(self) -> Column:
        built: Column = []
        for block, _, pres, counts, positions in self.runs:
            if block is None:
                built.extend(map(itemgetter(0), positions))
                continue
            # each path is relative to the level of its row's source
            depths = chain.from_iterable(map(
                repeat, map(block.level.__getitem__, pres), counts))
            built.extend(map(block.path, positions, depths))
        return built

    def _nodes(self) -> Column:
        nodes: Column = []
        for block, _, _, _, positions in self.runs:
            nodes.extend(map(itemgetter(1), positions) if block is None
                         else map(block.values.__getitem__, positions))
        return nodes

    def result(self, columns: dict[Any, Late]) -> Batch:
        """Count what the loop did, hand out the batch."""
        metrics = self.ctx.metrics
        if metrics is not None and self.range_scans:
            metrics.inc("structindex.range_scans", self.range_scans)
            # present (possibly 0) whenever a range scan ran
            metrics.inc("structindex.nodes_scanned", self.nodes_scanned)
        _count(self.ctx, "structindex.fallback_walks",
               self.fallback_walks)
        columns[self.op.path_var] = self._paths
        columns[self.op.out_var] = self._nodes
        return self.source.derive(
            columns, self._index,
            sum(len(run[4]) for run in self.runs))


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

    def batch(self, ctx: EvalContext) -> Batch:
        source = self.child.batch(ctx)
        if not source.size:
            return source
        scan = _Scan(self, source, ctx)
        max_paths = ctx.max_paths
        for block, rows, pres in scan.stretches():
            if block is None:
                scan.add_live(rows[0], list(scan.live_pairs(pres[0])))
                continue
            stops = list(map(block.end.__getitem__, pres))
            counts = list(map(sub, stops, pres))
            scan.range_scans += len(rows)
            scan.nodes_scanned += sum(counts)
            if max_paths is not None and max(counts) > max_paths:
                # the live walk's enumeration-limit contract
                raise EvaluationError(
                    f"path enumeration exceeded {max_paths} paths")
            scan.runs.append((block, rows, pres, counts, list(
                chain.from_iterable(map(range, pres, stops)))))
        return scan.result({})

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
    :meth:`~repro.structindex.Block.selections` widens those
    positions to every holder a selection can reach (auto-dereference
    chains, marked unions, semantics-blocked oids).  Each candidate is
    put through the *same* selection logic as :class:`StepOp`
    (``_auto_deref`` + :meth:`TupleValue.select`, :meth:`_select`), so the
    fusion changes only which nodes are tried, never what a trial
    means — and it is tried once per block, not once per scan:
    :meth:`~repro.structindex.Block.selections` keeps every selection
    of the block sorted by holder, so one source costs two bisections
    and three slice copies.  The memo cannot go stale because a block
    never changes: any edit it could see publishes a new block.

    ``attr`` is a fixed attribute name; alternatively ``attr_var`` is
    an unbound attribute variable (the Section-5.4 fan-out over every
    candidate name), bound per row to the name that matched.  Binds
    ``path_var`` (path to the holder), ``out_var`` (the holder) and
    ``value_var`` (the selected value).  Sources without a usable
    occurrence fall back to the live walk, identically filtered.
    ``structindex.nodes_scanned`` counts the holders a slice reads.
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

    def batch(self, ctx: EvalContext) -> Batch:
        source = self.child.batch(ctx)
        if not source.size:
            return source
        scan = _Scan(self, source, ctx)
        attr = self.attr
        trial = functools.partial(self._select, ctx=ctx)
        selected: Column = []
        names: Column = []
        # only the live walk reproduces the enumeration-limit error
        # contract: an oversized subtree is walked
        for block, rows, pres in scan.stretches(ctx.max_paths):
            if block is None:
                pairs: Column = []
                for pair in scan.live_pairs(pres[0]):
                    for name, value in trial(pair[1]):
                        pairs.append(pair)
                        names.append(name)
                        selected.append(value)
                scan.add_live(rows[0], pairs)
                continue
            # the whole stretch at once: two bisections per source
            # into the block's selections, then their slices joined
            holders, held_names, held_values = block.selections(
                attr, trial)
            los = list(map(bisect_left, repeat(holders), pres))
            his = list(map(bisect_left, repeat(holders),
                           map(block.end.__getitem__, pres), los))
            slices = list(map(slice, los, his))
            read = list(chain.from_iterable(
                map(holders.__getitem__, slices)))
            scan.range_scans += len(rows)
            scan.nodes_scanned += (len(read) if attr is not None else sum(
                map(len, map(set, map(holders.__getitem__, slices)))))
            if self.attr_var is not None:
                names.extend(chain.from_iterable(
                    map(held_names.__getitem__, slices)))
            selected.extend(chain.from_iterable(
                map(held_values.__getitem__, slices)))
            scan.runs.append(
                (block, rows, pres, list(map(sub, his, los)), read))
        columns: dict[Any, Late] = {self.value_var: selected}
        if self.attr_var is not None:
            columns[self.attr_var] = names
        return scan.result(columns)

    def _select(self, node: Any, ctx: EvalContext
                ) -> list[tuple[str, Any]]:
        """``(attribute name, selected value)`` for every selection
        the operator makes on ``node`` — :class:`StepOp`'s ``attr``
        logic, over the fixed name or every name the holder carries."""
        base = _auto_deref(node, ctx)
        if self.attr is not None:
            names = [self.attr]
        elif isinstance(base, TupleValue):
            names = base.selectable_names()
        else:
            return []
        return [(name, value) for name in names
                for value in _select_attribute(base, name)]

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

    def batch(self, ctx: EvalContext) -> Batch:
        source = self.child.batch(ctx)
        if not source.size:
            return source
        scan = _Scan(self, source, ctx)
        probes = (source.column(self.probe_var)
                  if source.has(self.probe_var)
                  else [MISSING] * source.size)
        probed = hits = 0
        for row, start, located in scan.sources():
            matches = None
            if probes[row] is not MISSING and located is not None:
                block, pre = located
                matches = block.matches_in(pre, probes[row])
            if matches is not None:
                probed += 1
                hits += len(matches)
                scan.runs.append(
                    (block, [row], [pre], [len(matches)], matches))
                continue
            # fallback: full scan + exact atom recheck (= SelectOp over
            # StructuralScanOp, which itself falls back to the live walk)
            scan.add_live(row, list(scan.live_pairs(start)))
        self._recheck(scan, ctx)
        if probed and ctx.metrics is not None:
            ctx.metrics.inc("structindex.interval_probes", probed)
            ctx.metrics.inc("structindex.interval_hits", hits)
        return scan.result({})

    def _recheck(self, scan: _Scan, ctx: EvalContext) -> None:
        """Keep, of the pairs the live walk added, those on which the
        recheck atom holds — one kernel call over all of them."""
        live = [at for at, run in enumerate(scan.runs)
                if run[0] is None and run[4]]
        if not live:
            return
        kernel = self._chosen(atom_kernel, self.recheck_atom)
        pairs = [pair for at in live for pair in scan.runs[at][4]]
        candidates = scan.source.derive(
            {self.path_var: list(map(itemgetter(0), pairs)),
             self.out_var: list(map(itemgetter(1), pairs))},
            [scan.runs[at][1][0] for at in live
             for _ in scan.runs[at][4]])
        kept = set(kernel(candidates, ctx))
        slot = 0
        for at in live:
            _, rows, _, _, walked = scan.runs[at]
            checked = [pair for number, pair in enumerate(walked, slot)
                       if number in kept]
            scan.runs[at] = (None, rows, None, [len(checked)], checked)
            slot += len(walked)
    def consumes(self) -> frozenset:
        return frozenset((self.source_var, self.probe_var))

    def produces(self) -> frozenset:
        return frozenset((self.path_var, self.out_var))

    def label(self) -> str:
        return (f"IntervalJoin {self.out_var} ≡ {self.probe_var} "
                f"in subtree({self.source_var}), path {self.path_var}")


class ProjectOp(Operator):
    """Final projection/deduplication on the head variables: the
    output batch holds the head columns only, one row per distinct
    head value (first occurrence, in input order) — the one place a
    plan de-duplicates, and where late columns the head names are
    finally built."""

    params = ("head",)
    #: Candidate types per variable, recorded by the compiler (which
    #: reads ``oid_only`` off them) for the verifier's ``PC-TYPE``
    #: replay.
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

    def batch(self, ctx: EvalContext) -> Batch:
        source = self.child.batch(ctx)
        head = self.head
        if not all(source.has(variable) for variable in head):
            return Batch(0, {variable: [] for variable in head})
        columns = [source.column(variable) for variable in head]
        holes = not all(source.total(variable) for variable in head)
        # one key per row that binds the whole head: the value itself
        # under a one-variable head, else the tuple of values
        keys: Column
        if len(head) == 1:
            keys = columns[0]
            if holes:
                keys = [key for key in keys if key is not MISSING]
        else:
            keys = list(zip(*columns)) if head else [()] * source.size
            if holes:
                keys = [key for key in keys
                        if not any(value is MISSING for value in key)]
        try:
            distinct = list(dict.fromkeys(keys))
        except TypeError:
            # a key that does not hash (a head bound to a raw host
            # list): SetValue's equality-scan de-duplication
            distinct = list(SetValue(keys))
        if len(head) == 1:
            return Batch(len(distinct), {head[0]: distinct})
        transposed: Iterable[Any] = (zip(*distinct) if distinct
                                     else repeat(()))
        return Batch(len(distinct), {
            variable: list(column)
            for variable, column in zip(head, transposed)})

    def consumes(self) -> frozenset:
        return frozenset(self.head)

    def label(self) -> str:
        names = ", ".join(str(v) for v in self.head)
        return f"Project [{names}]"
