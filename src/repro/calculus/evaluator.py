"""Evaluation of calculus queries over an instance (Section 5.2).

The evaluator is a binding-propagation engine: formulas are satisfied by
*extending* a variable binding, and atoms play two roles —

* **binders** — path predicates enumerate concrete paths (under the
  restricted or liberal semantics) and bind the data/path/attribute
  variables on them; ``X = t`` and ``X ∈ t`` with ground right sides bind
  ``X``;
* **checkers** — fully ground atoms are simply tested.

Conjunctions are evaluated by a greedy ordering: at each step the first
conjunct whose requirements are met runs.  A conjunction in which no
conjunct can make progress is not range-restricted; this raises
:class:`~repro.errors.SafetyError` (the static analysis in
:mod:`repro.calculus.safety` reports the same situation before
evaluation).

Union values are handled with the *implicit selector* semantics of
Sections 4.2 / 5.3: an attribute selection on a marked value silently
skips the marker when the payload carries the attribute, and an atom
over a branch lacking the attribute is **false** (never an error) when
the navigation started from a variable.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import EvaluationError, QueryError, SafetyError
from repro.calculus.formulas import (
    And,
    Atom,
    Eq,
    Exists,
    Forall,
    Formula,
    Implies,
    In,
    Not,
    Or,
    PathAtom,
    Pred,
    Query,
    Subset,
)
from repro.calculus.functions import FunctionRegistry, default_registry
from repro.calculus.terms import (
    AttName,
    AttVar,
    Bind,
    Const,
    DataVar,
    Deref,
    FunTerm,
    Index,
    ListTerm,
    MethodTerm,
    Name,
    PathApply,
    PathVar,
    Sel,
    SetBind,
    SetTerm,
    TupleTerm,
    term_variables,
)
from repro.oodb.instance import Instance
from repro.oodb.values import (
    UNSELECTED,
    ListValue,
    Oid,
    SetValue,
    TupleValue,
    equivalent,
)
from repro.paths.enumeration import RESTRICTED, paths_from
from repro.paths.steps import Path

Binding = dict


class EvalContext:
    """Everything evaluation needs besides the formula itself.

    ``provenance`` is accepted and ignored: ``text()`` is read from the
    database (:mod:`repro.mapping.text_inverse`).  The name stays only
    because the benchmark harness still passes it.
    """

    def __init__(self, instance: Instance,
                 registry: FunctionRegistry | None = None,
                 provenance: dict | None = None,
                 path_semantics: str = RESTRICTED,
                 max_paths: int | None = 200_000) -> None:
        self.instance = instance
        self.registry = registry or default_registry()
        self.path_semantics = path_semantics
        self.max_paths = max_paths
        #: Optional full-text index used by the algebra optimizer.
        self.text_index = None
        #: Optional pre/post structural index (repro.structindex) used
        #: by the structural rewrite's scan/join operators.
        self.struct_index = None
        #: Observability hooks (repro.observe) — ``None`` means disabled;
        #: every instrumentation site guards with one ``is not None`` test.
        self.metrics = None
        self.tracer = None
        self.profiler = None
        #: Per-execution memo of SharedOp streams (the DAG factoring of
        #: the algebra optimizer).  ``None`` = no execution in flight;
        #: :func:`repro.algebra.execute.execute_plan` installs a dict
        #: for the duration of one run and clears it afterwards, so
        #: cached plans never replay rows across runs.
        self.shared_memo = None

    def root_value(self, name: str) -> object:
        return self.instance.root(name)

    def fork(self) -> "EvalContext":
        """A per-call evaluation context.

        Shares the instance and function registry; copies
        the observer and index wiring as of the fork.  Each concurrent
        query evaluates in its own fork, so per-query mutable state
        (the nested-query memo, the evaluation-depth flag) never leaks
        between threads while counters still land in the one shared
        registry.
        """
        clone = EvalContext(self.instance, registry=self.registry,
                            path_semantics=self.path_semantics,
                            max_paths=self.max_paths)
        clone.text_index = self.text_index
        clone.struct_index = self.struct_index
        clone.metrics = self.metrics
        clone.tracer = self.tracer
        clone.profiler = self.profiler
        return clone


def evaluate_query(query: Query, ctx: EvalContext) -> SetValue:
    """Evaluate ``{x̄ | φ}``; the result is always a set (Section 5.2).

    One head variable → a set of its values; several → a set of ordered
    tuples with one attribute per variable.

    Nested queries are *closed* (no free variables), so their results
    are memoized for the duration of the outermost evaluation — without
    this, ``Q1 - Q2`` would re-evaluate Q2 once per Q1 element.
    """
    outermost = not getattr(ctx, "_evaluating", False)
    if outermost:
        ctx._evaluating = True
        ctx._nested_cache = {}
    try:
        cache = getattr(ctx, "_nested_cache", None)
        if cache is not None and not outermost:
            cached = cache.get(id(query))
            if cached is not None:
                return cached[1]
        results: list = []
        seen: set = set()
        metrics = ctx.metrics
        for binding in satisfy(query.formula, {}, ctx):
            if metrics is not None:
                metrics.inc("calculus.bindings")
            row = _project(query, binding)
            if row not in seen:
                seen.add(row)
                results.append(row)
        result_set = SetValue(results)
        if cache is not None and not outermost:
            # hold the query object so its id cannot be recycled
            cache[id(query)] = (query, result_set)
        return result_set
    finally:
        if outermost:
            ctx._evaluating = False
            ctx._nested_cache = {}


def _project(query: Query, binding: Binding):
    values = []
    for variable in query.head:
        if variable not in binding:
            raise SafetyError(
                f"head variable {variable} was never bound — the formula "
                "is not range-restricted")
        values.append(binding[variable])
    if len(values) == 1:
        return values[0]
    return TupleValue([(str(v), value)
                       for v, value in zip(query.head, values)])


# ---------------------------------------------------------------------------
# Term evaluation
# ---------------------------------------------------------------------------


def eval_term(term, binding: Binding, ctx: EvalContext):
    """Evaluate a ground (under ``binding``) term to a value."""
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Name):
        return ctx.root_value(term.name)
    if isinstance(term, (DataVar, PathVar, AttVar)):
        if term in binding:
            return binding[term]
        raise EvaluationError(f"unbound variable {term}")
    if isinstance(term, AttName):
        return term.name
    if isinstance(term, TupleTerm):
        return TupleValue([
            (_attr_name(attribute, binding), eval_term(sub, binding, ctx))
            for attribute, sub in term.fields])
    if isinstance(term, ListTerm):
        return ListValue(
            eval_term(sub, binding, ctx) for sub in term.items)
    if isinstance(term, SetTerm):
        return SetValue(
            eval_term(sub, binding, ctx) for sub in term.items)
    if isinstance(term, FunTerm):
        arguments = [eval_term(sub, binding, ctx)
                     for sub in term.arguments]
        if not ctx.registry.has_function(term.function):
            # fall back to O₂ method dispatch when the first argument is
            # an object (the paper carries methods "for the sake of
            # completeness"; footnote 3 even allows paths through them)
            from repro.errors import InstanceError, QueryTypeError
            if arguments and isinstance(arguments[0], Oid):
                try:
                    return ctx.instance.call_method(
                        term.function, arguments[0], *arguments[1:])
                except InstanceError as exc:
                    raise QueryTypeError(
                        f"{term.function!r} is neither an interpreted "
                        f"function nor a method of "
                        f"{arguments[0].class_name}: {exc}") from exc
            # a name that is neither a function nor a method is a static
            # mistake — raise loudly instead of "atom is false"
            raise QueryTypeError(
                f"unknown function or method {term.function!r}")
        function = ctx.registry.function(term.function)
        return function(ctx, *arguments)
    if isinstance(term, MethodTerm):
        arguments = [eval_term(sub, binding, ctx)
                     for sub in term.arguments]
        receiver = arguments[0]
        if not isinstance(receiver, Oid):
            raise EvaluationError(
                f"method {term.method!r} needs an object receiver")
        return ctx.instance.call_method(
            term.method, receiver, *arguments[1:])
    if isinstance(term, PathApply):
        root = eval_term(term.root, binding, ctx)
        matches = list(_match_path(
            root, term.path.components, binding, ctx, frozenset()))
        if not matches:
            if isinstance(term.root, Name):
                # Section 4.2: implicit selection is for variables only;
                # wrong-branch access on a named instance is a hard
                # runtime type error.
                from repro.errors import WrongBranchAccess
                raise WrongBranchAccess(
                    f"named instance {term.root} has no component "
                    f"{term.path}")
            raise EvaluationError(
                f"path {term.path} does not apply "
                f"(evaluating data term {term})")
        first_binding, value = matches[0]
        if len(matches) > 1:
            raise EvaluationError(
                f"path {term.path} is ambiguous in a data term "
                f"({len(matches)} matches); use a path predicate")
        unbound = [v for v in term.path.variables()
                   if v not in binding]
        if unbound:
            raise EvaluationError(
                f"data term {term} has unbound path variables {unbound}")
        return value
    if isinstance(term, Query):
        return evaluate_query(term, ctx)
    raise EvaluationError(f"cannot evaluate term {term!r}")


def _attr_name(attribute, binding: Binding) -> str:
    if isinstance(attribute, AttName):
        return attribute.name
    if isinstance(attribute, AttVar):
        if attribute in binding:
            return binding[attribute]
        raise EvaluationError(f"unbound attribute variable {attribute}")
    raise EvaluationError(f"bad attribute term {attribute!r}")


def _is_ground(term, binding: Binding) -> bool:
    return all(v in binding for v in term_variables(term))


# ---------------------------------------------------------------------------
# Path matching — the heart of the path predicate
# ---------------------------------------------------------------------------


def _match_path(current, components, binding: Binding, ctx: EvalContext,
                derefed: frozenset) -> Iterator[tuple[Binding, object]]:
    """Yield (extended binding, reached value) for every instantiation of
    the component sequence from ``current``.

    ``derefed`` tracks the implicit dereferences performed by attribute /
    index selections (for the restricted semantics these do not count —
    only path-variable valuations are restricted, per Section 5.2)."""
    if not components:
        yield binding, current
        return
    head, rest = components[0], components[1:]

    if isinstance(head, PathVar):
        if head in binding:
            bound_path = binding[head]
            if not isinstance(bound_path, Path):
                return
            try:
                reached = bound_path.apply(current, ctx.instance)
            except EvaluationError:
                return
            yield from _match_path(reached, rest, binding, ctx, derefed)
            return
        metrics = ctx.metrics
        for concrete, reached in paths_from(
                current, ctx.instance, ctx.path_semantics,
                ctx.max_paths):
            if metrics is not None:
                metrics.inc("calculus.paths_enumerated")
            extended = dict(binding)
            extended[head] = concrete
            yield from _match_path(reached, rest, extended, ctx, derefed)
        return

    if isinstance(head, Sel):
        attribute = head.attribute
        base = _auto_deref(current, ctx)
        if base is None:
            return
        if isinstance(attribute, AttName):
            for target in _select_attribute(base, attribute.name):
                yield from _match_path(target, rest, binding, ctx, derefed)
            return
        # attribute variable
        if attribute in binding:
            for target in _select_attribute(base, binding[attribute]):
                yield from _match_path(target, rest, binding, ctx, derefed)
            return
        if isinstance(base, TupleValue):
            # An unbound attribute variable values over exactly the
            # names a ground selection would accept — including the
            # payload attributes an implicit union selector reaches
            # (Section 5.3).  Anything else would make ``.A ∧ A = 'x'``
            # differ from ``.x``, and the calculus disagree with the
            # schema-path expansion the algebra compiles (Section 5.4).
            for field_name in base.selectable_names():
                for target in _select_attribute(base, field_name):
                    extended = dict(binding)
                    extended[attribute] = field_name
                    yield from _match_path(
                        target, rest, extended, ctx, derefed)
        return

    if isinstance(head, Index):
        base = _auto_deref(current, ctx)
        if base is None:
            return
        if isinstance(base, TupleValue):
            # Positional access skips the marker of a union value (the
            # "Important Omissions" sugar: Letters[I](Y)[J]·to indexes
            # the letter tuple, not its one-field wrapper).
            if base.is_marked and isinstance(base.marked_value,
                                             TupleValue):
                base = base.marked_value
            base = base.as_heterogeneous_list()
        if not isinstance(base, ListValue):
            return
        if isinstance(head.index, int):
            if 0 <= head.index < len(base):
                yield from _match_path(
                    base[head.index], rest, binding, ctx, derefed)
            return
        variable = head.index
        if variable in binding:
            bound = binding[variable]
            if isinstance(bound, int) and 0 <= bound < len(base):
                yield from _match_path(
                    base[bound], rest, binding, ctx, derefed)
            return
        for position, element in enumerate(base):
            extended = dict(binding)
            extended[variable] = position
            yield from _match_path(element, rest, extended, ctx, derefed)
        return

    if isinstance(head, Deref):
        if isinstance(current, Oid):
            yield from _match_path(
                ctx.instance.deref(current), rest, binding, ctx, derefed)
        return

    if isinstance(head, Bind):
        variable = head.variable
        if variable in binding:
            if equivalent(binding[variable], current):
                yield from _match_path(current, rest, binding, ctx, derefed)
            return
        extended = dict(binding)
        extended[variable] = current
        yield from _match_path(current, rest, extended, ctx, derefed)
        return

    if isinstance(head, SetBind):
        base = _auto_deref(current, ctx)
        if not isinstance(base, SetValue):
            return
        variable = head.variable
        if variable in binding:
            if binding[variable] in base:
                yield from _match_path(
                    binding[variable], rest, binding, ctx, derefed)
            return
        for element in base:
            extended = dict(binding)
            extended[variable] = element
            yield from _match_path(element, rest, extended, ctx, derefed)
        return

    raise EvaluationError(f"unknown path component {head!r}")


def _auto_deref(value, ctx: EvalContext):
    """Selections transparently cross the object boundary.

    The paper's examples write ``X ·title`` for an object-valued ``X``;
    the implicit dereference is structural (imposed by the query shape),
    so it does not count against the restricted path-variable semantics.
    """
    seen = 0
    while isinstance(value, Oid):
        value = ctx.instance.deref(value)
        seen += 1
        if seen > 16:
            raise EvaluationError("dereference chain too deep")
    return value


def _select_attribute(base, attribute: str) -> list:
    """Attribute selection with implicit union selectors
    (:meth:`TupleValue.select`) as 0 or 1 target values: no match is
    *false*, not an error (Section 5.3: "We will assume that each atom
    where this occurs is false.")."""
    if not isinstance(base, TupleValue):
        return []
    selected = base.select(attribute)
    return [] if selected is UNSELECTED else [selected]


# ---------------------------------------------------------------------------
# Formula satisfaction
# ---------------------------------------------------------------------------


def satisfy(formula: Formula, binding: Binding,
            ctx: EvalContext) -> Iterator[Binding]:
    """Yield every extension of ``binding`` satisfying ``formula``."""
    if isinstance(formula, And):
        yield from _satisfy_and(list(formula.conjuncts), binding, ctx)
        return
    if isinstance(formula, Or):
        for disjunct in formula.disjuncts:
            yield from satisfy(disjunct, binding, ctx)
        return
    if isinstance(formula, Not):
        free = formula.child.free_variables()
        unbound = [v for v in free if v not in binding]
        if unbound:
            raise SafetyError(
                f"negation over unbound variables {unbound}")
        for _ in satisfy(formula.child, binding, ctx):
            return
        yield binding
        return
    if isinstance(formula, Exists):
        seen: set = set()
        quantified = set(formula.variables)
        for inner in satisfy(formula.body, binding, ctx):
            projected = {variable: value
                         for variable, value in inner.items()
                         if variable not in quantified}
            key = tuple(sorted(
                ((str(type(v).__name__), str(v), repr(val))
                 for v, val in projected.items())))
            if key not in seen:
                seen.add(key)
                yield projected
        return
    if isinstance(formula, Forall):
        if not isinstance(formula.body, Implies):
            raise SafetyError(
                "∀ must quantify an implication "
                "(Forall(vars, Implies(range, condition)))")
        antecedent = formula.body.antecedent
        consequent = formula.body.consequent
        for inner in satisfy(antecedent, binding, ctx):
            if not any(True for _ in satisfy(consequent, inner, ctx)):
                return
        yield binding
        return
    if isinstance(formula, Implies):
        raise SafetyError("implication is only allowed under ∀")
    if isinstance(formula, Atom):
        yield from _satisfy_atom(formula, binding, ctx)
        return
    raise QueryError(f"unknown formula {formula!r}")


def _satisfy_and(conjuncts: list[Formula], binding: Binding,
                 ctx: EvalContext) -> Iterator[Binding]:
    if not conjuncts:
        yield binding
        return
    index = _pick_ready(conjuncts, binding)
    if index is None:
        raise SafetyError(
            "no conjunct can make progress — formula is not "
            f"range-restricted; stuck on: "
            f"{'; '.join(str(c) for c in conjuncts)}")
    chosen = conjuncts[index]
    remaining = conjuncts[:index] + conjuncts[index + 1:]
    for extended in satisfy(chosen, binding, ctx):
        yield from _satisfy_and(remaining, extended, ctx)


def _pick_ready(conjuncts: list[Formula], binding: Binding) -> int | None:
    """The first conjunct that can run under the current binding."""
    # Pass 1: fully ground conjuncts (cheap checkers) run first.
    for index, conjunct in enumerate(conjuncts):
        if all(v in binding for v in conjunct.free_variables()):
            return index
    # Pass 2: binders whose requirements are met.
    for index, conjunct in enumerate(conjuncts):
        if _can_bind(conjunct, binding):
            return index
    return None


def _can_bind(formula: Formula, binding: Binding) -> bool:
    if isinstance(formula, PathAtom):
        return _is_ground(formula.root, binding)
    if isinstance(formula, Eq):
        left_ground = _is_ground(formula.left, binding)
        right_ground = _is_ground(formula.right, binding)
        if left_ground and isinstance(formula.right,
                                      (DataVar, PathVar, AttVar)):
            return True
        if right_ground and isinstance(formula.left,
                                       (DataVar, PathVar, AttVar)):
            return True
        return left_ground and right_ground
    if isinstance(formula, In):
        if not _is_ground(formula.collection, binding):
            return False
        return True  # element may be a variable or pattern to bind
    if isinstance(formula, Subset):
        return (_is_ground(formula.left, binding)
                and _is_ground(formula.right, binding))
    if isinstance(formula, Pred):
        return all(_is_ground(a, binding) for a in formula.arguments)
    if isinstance(formula, (And, Or)):
        children = (formula.conjuncts if isinstance(formula, And)
                    else formula.disjuncts)
        return all(_can_bind(child, binding) or all(
            v in binding for v in child.free_variables())
            for child in children)
    if isinstance(formula, Not):
        return all(v in binding for v in formula.free_variables())
    if isinstance(formula, (Exists, Forall)):
        body = formula.body
        if isinstance(formula, Forall):
            if not isinstance(body, Implies):
                return False
            return _can_bind_quantified(body.antecedent, binding,
                                        set(formula.variables))
        return _can_bind_quantified(body, binding, set(formula.variables))
    return False


def _can_bind_quantified(body: Formula, binding: Binding,
                         quantified: set) -> bool:
    conjuncts = (list(body.conjuncts) if isinstance(body, And)
                 else [body])
    simulated = dict(binding)
    progress = True
    while progress and conjuncts:
        progress = False
        for index, conjunct in enumerate(conjuncts):
            free = conjunct.free_variables()
            if (all(v in simulated for v in free)
                    or _can_bind(conjunct, simulated)):
                for variable in free:
                    simulated[variable] = True
                del conjuncts[index]
                progress = True
                break
    return not conjuncts


def _satisfy_atom(atom: Atom, binding: Binding,
                  ctx: EvalContext) -> Iterator[Binding]:
    if ctx.metrics is not None:
        ctx.metrics.inc("calculus.atoms")
    if isinstance(atom, PathAtom):
        root = eval_term(atom.root, binding, ctx)
        seen: set = set()
        for extended, _ in _match_path(
                root, atom.path.components, binding, ctx, frozenset()):
            key = id(extended) if extended is binding else tuple(
                sorted((str(v), repr(val))
                       for v, val in extended.items()))
            if key not in seen:
                seen.add(key)
                yield extended
        return
    if isinstance(atom, Eq):
        yield from _satisfy_eq(atom, binding, ctx)
        return
    if isinstance(atom, In):
        yield from _satisfy_in(atom, binding, ctx)
        return
    if isinstance(atom, Subset):
        left = eval_term(atom.left, binding, ctx)
        right = eval_term(atom.right, binding, ctx)
        if isinstance(left, SetValue) and isinstance(right, SetValue):
            if left.issubset(right):
                yield binding
        return
    if isinstance(atom, Pred):
        predicate = ctx.registry.predicate(atom.predicate)
        try:
            arguments = [eval_term(a, binding, ctx)
                         for a in atom.arguments]
        except EvaluationError:
            return  # wrong-branch access: the atom is false
        if predicate(ctx, *arguments):
            yield binding
        return
    raise QueryError(f"unknown atom {atom!r}")


def _satisfy_eq(atom: Eq, binding: Binding,
                ctx: EvalContext) -> Iterator[Binding]:
    left_ground = _is_ground(atom.left, binding)
    right_ground = _is_ground(atom.right, binding)
    if left_ground and right_ground:
        try:
            left = eval_term(atom.left, binding, ctx)
            right = eval_term(atom.right, binding, ctx)
        except EvaluationError:
            return  # e.g. wrong-branch path application: atom is false
        if equivalent(left, right):
            yield binding
        return
    if left_ground and isinstance(atom.right, (DataVar, PathVar, AttVar)):
        variable, ground_term = atom.right, atom.left
    elif right_ground and isinstance(atom.left,
                                     (DataVar, PathVar, AttVar)):
        variable, ground_term = atom.left, atom.right
    else:
        raise SafetyError(f"equality {atom} cannot be evaluated")
    try:
        value = eval_term(ground_term, binding, ctx)
    except EvaluationError:
        return
    extended = dict(binding)
    extended[variable] = value
    yield extended


def _satisfy_in(atom: In, binding: Binding,
                ctx: EvalContext) -> Iterator[Binding]:
    try:
        collection = eval_term(atom.collection, binding, ctx)
    except EvaluationError:
        return
    if not isinstance(collection, (SetValue, ListValue)):
        return
    element = atom.element
    if _is_ground(element, binding):
        if collection.has_equivalent(eval_term(element, binding, ctx)):
            yield binding
        return
    if isinstance(element, (DataVar, PathVar, AttVar)):
        for member in collection.items:
            extended = dict(binding)
            extended[element] = member
            yield extended
        return
    raise SafetyError(
        f"membership {atom}: element pattern is not supported")
