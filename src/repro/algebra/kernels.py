"""Column kernels — how an operator evaluates a calculus term or atom.

An operator whose meaning is a calculus term (:class:`BindOp`,
:class:`UnnestOp`) or a ground atom (:class:`SelectOp`, the
:class:`IntervalJoinOp` fallback) does not call the interpreter
itself.  It asks this module, once, for a
*kernel*:

* :func:`term_kernel` — ``(source: Batch, ctx) -> Column``: the term's
  value per row, :data:`MISSING` where it does not evaluate;
* :func:`atom_kernel` — ``(source: Batch, ctx) -> list[int]``: the row
  numbers (ascending) on which the atom holds.

The kernel is chosen from the *shape* of the term or atom.  The
**generic** kernel is the general case: one environment per row
(:meth:`Batch.envs`, over just the variables the term or atom
mentions) handed to ``eval_term`` / ``satisfy`` — the calculus
interpreter, which stays the semantic oracle.  Every execution of it is
counted as ``algebra.kernel_generic.<shape>``, so ``explain_analyze``
says why a term or filter was interpreted.  Two shapes have a kernel
that computes the same column without the interpreter:

* an **attribute path** ``x.a1.….an`` from a bound variable is one
  loop over the root column that never calls the interpreter: per
  step it dereferences (through :meth:`Instance.deref`, so
  ``oodb.derefs`` counts the same) while the value is an oid, at most
  16 times as ``_auto_deref`` allows, and then selects with
  :meth:`TupleValue.select` — the one attribute-selection rule the
  interpreter and the navigation operators share;
* ``contains(subject, <constant pattern expression>)`` under the
  built-in ``contains`` reads the full-text index: an oid whose indexed
  text is current (:meth:`TextIndex.current`) is decided by membership
  in the probed key set when the index calls the probe exact (on an
  index that is not stale, one lookup in the key set decides an oid
  it lists), and masked by it before the exact check otherwise; every
  other value is turned into text and matched as the predicate
  would.

A specialised kernel must return, element for element, what the
generic one does (``tests/algebra/test_kernels.py``).
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Callable

from repro.errors import EvaluationError
from repro.algebra.batch import MISSING, Batch, Column
from repro.calculus.evaluator import EvalContext, eval_term, satisfy
from repro.calculus.formulas import Eq, In, PathAtom, Pred, Subset
from repro.calculus.functions import _as_text
from repro.calculus.functions import _contains as BUILTIN_CONTAINS
from repro.calculus.terms import (
    AttName,
    Const,
    Name,
    PathApply,
    Sel,
    Variable,
    term_variables,
)
from repro.oodb.values import Oid, TupleValue
from repro.text.patterns import PatternExpr

TermKernel = Callable[[Batch, EvalContext], Column]
AtomKernel = Callable[[Batch, EvalContext], list[int]]
#: ``ctx -> (keys, exact)``, the answer of :meth:`TextIndex.probe`
#: (``(None, False)`` without an index), issued once per plan object.
Probe = Callable[[EvalContext], tuple[Any, bool]]


def _count(ctx: EvalContext, name: str, amount: int) -> None:
    """Add a batch's worth to a counter (a counter nothing was added
    to stays absent from the snapshot, as when counting by one)."""
    if amount and ctx.metrics is not None:
        ctx.metrics.inc(name, amount)


# -- terms ------------------------------------------------------------------


def term_kernel(term: Any) -> TermKernel:
    """The kernel computing ``term`` per row of a batch."""
    if isinstance(term, Variable):
        return _variable(term)
    if isinstance(term, PathApply):
        components = term.path.components
        if isinstance(term.root, Name):
            shape = "name_root"
        elif not isinstance(term.root, Variable):
            shape = "computed_root"
        elif all(isinstance(component, Sel)
                 and isinstance(component.attribute, AttName)
                 for component in components):
            return _attribute_path(
                term.root,
                [component.attribute.name for component in components])
        elif any(isinstance(component, Sel)
                 and not isinstance(component.attribute, AttName)
                 for component in components):
            shape = "att_variable"
        else:
            shape = "path_component"
    else:
        shape = type(term).__name__.lower()
    return _generic_term(term, shape)


def _variable(variable: Any) -> TermKernel:
    """A plain variable is its column, untouched."""
    def kernel(source: Batch, ctx: EvalContext) -> Column:
        if source.has(variable):
            return source.column(variable)
        return [MISSING] * source.size
    return kernel


def _generic_term(term: Any, shape: str) -> TermKernel:
    """``eval_term`` per row; a row on which it raises
    :class:`EvaluationError` (an unbound variable, a wrong union
    branch) holds :data:`MISSING`."""
    variables = term_variables(term)
    counter = "algebra.kernel_generic." + shape

    def kernel(source: Batch, ctx: EvalContext) -> Column:
        _count(ctx, counter, 1)
        values = []
        for env in source.envs(variables):
            try:
                values.append(eval_term(term, env, ctx))
            except EvaluationError:
                values.append(MISSING)
        return values
    return kernel


def _attribute_path(root: Any, names: list[str]) -> TermKernel:
    """``root.a1.….an``: per step the interpreter's implicit
    dereference and :meth:`TupleValue.select`, over the root column.
    A step that selects nothing, or a seventeenth dereference in a
    row (where ``_auto_deref`` raises :class:`EvaluationError`),
    leaves :data:`MISSING` — where ``eval_term`` raises."""
    def kernel(source: Batch, ctx: EvalContext) -> Column:
        if not source.has(root):
            return [MISSING] * source.size
        deref = ctx.instance.deref
        values = []
        for value in source.column(root):
            # a MISSING root is no tuple: the first step selects nothing
            for name in names:
                hops = 0
                while type(value) is Oid:
                    value = deref(value)
                    hops += 1
                    if hops > 16:
                        value = MISSING
                if type(value) is not TupleValue:
                    value = MISSING
                    break
                value = value.select(name, MISSING)
                if value is MISSING:
                    break
            values.append(value)
        return values
    return kernel


# -- atoms ------------------------------------------------------------------


def contains_pattern(atom: Any) -> PatternExpr | None:
    """The pattern of a ``contains(subject, <constant pattern
    expression>)`` atom — the shape the full-text index answers —
    else ``None``."""
    if (isinstance(atom, Pred) and atom.predicate == "contains"
            and len(atom.arguments) == 2):
        pattern = atom.arguments[1]
        if (isinstance(pattern, Const)
                and isinstance(pattern.value, PatternExpr)):
            return pattern.value
    return None


def atom_kernel(atom: Any) -> AtomKernel:
    """The kernel filtering a batch by ``atom``."""
    pattern = contains_pattern(atom)
    if pattern is not None:
        return contains_kernel(atom, memoized_probe(pattern))
    if isinstance(atom, Pred):
        shape = ("non_const_pattern" if atom.predicate == "contains"
                 and len(atom.arguments) == 2 else "predicate")
    else:
        shape = {Eq: "equality", In: "membership", Subset: "subset",
                 PathAtom: "path_atom"}.get(type(atom), "formula")
    return _generic_atom(atom, shape)


def _holds(formula: Any, env: dict, ctx: EvalContext) -> bool:
    """Does the calculus find a witness for ``formula`` under
    ``env``?"""
    for _ in satisfy(formula, env, ctx):
        return True
    return False


def _generic_atom(atom: Any, shape: str) -> AtomKernel:
    """Keep the rows under whose environment ``satisfy`` finds a
    witness for the atom."""
    variables = atom.free_variables()
    counter = "algebra.kernel_generic." + shape

    def kernel(source: Batch, ctx: EvalContext) -> list[int]:
        _count(ctx, counter, 1)
        return [row for row, env in enumerate(source.envs(variables))
                if _holds(atom, env, ctx)]
    return kernel


def memoized_probe(pattern: PatternExpr) -> Probe:
    """The index probe for ``pattern``, issued on first use and kept
    together with the index that answered it.  A plan never outlives
    its compilation epoch and any data change starts a new one, but
    :meth:`DocumentStore.build_text_index` publishes a new index within
    an epoch: a context holding another index than the one remembered
    is probed afresh."""
    memo: tuple[Any, tuple[Any, bool]] | None = None

    def probe(ctx: EvalContext) -> tuple[Any, bool]:
        nonlocal memo
        index = ctx.text_index
        if index is None:
            return None, False
        if memo is None or memo[0] is not index:
            memo = (index, index.probe(pattern))  # one assignment
        return memo[1]
    return probe


def contains_kernel(atom: Pred, probe: Probe) -> AtomKernel:
    """``contains(subject, <constant pattern>)`` over the subject's
    column, reading ``probe`` — the memoized index probe for the
    atom's pattern, which a :class:`SelectOp` shares with the union
    gate above it.

    An oid the index holds current text for is looked up in the probed
    key set: that decides it when the probe is exact
    (``algebra.contains_index_answered``), and drops it when it is not
    listed either way (``algebra.index_pruned``).  When the probe is
    trusted and the index holds every subject of the column, the
    column is decided whole, by two membership maps.  What is left — oids
    behind an inexact probe, oids the index cannot vouch for, strings,
    values — is turned into text the way the predicate does and
    matched, one tokenizer pass each (``algebra.contains_rechecks``).
    A registry whose ``contains`` is not the built-in one gets the
    generic kernel: the index knows nothing of another predicate.
    """
    subject_kernel = term_kernel(atom.arguments[0])
    generic = _generic_atom(atom, "custom_predicate")
    holds_on_text = atom.arguments[1].value.holds_on_text

    def kernel(source: Batch, ctx: EvalContext) -> list[int]:
        registry = ctx.registry
        if not (registry.has_predicate("contains") and
                registry.predicate("contains") is BUILTIN_CONTAINS):
            return generic(source, ctx)
        keys, exact = probe(ctx)
        current = ctx.text_index.current() if keys is not None else ()
        # on an index that is not stale every probed key is current:
        # one lookup decides a listed oid, and an unlisted one is
        # not in the keys
        trusted = (exact and keys is not None
                   and not ctx.text_index.stale)
        column = subject_kernel(source, ctx)
        try:
            whole = trusted and all(map(current.__contains__, column))
        except TypeError:  # a subject that does not hash: no oid
            whole = False
        if whole:
            # the index holds every subject (its keys are oids): the
            # whole column is decided by membership, in C
            kept = list(compress(range(len(column)),
                                 map(keys.__contains__, column)))
            _count(ctx, "algebra.contains_index_answered", len(column))
            _count(ctx, "algebra.index_pruned", len(column) - len(kept))
            return kept
        kept = []
        answered = pruned = rechecks = 0
        for row, value in enumerate(column):
            if type(value) is Oid:
                if trusted and value in keys:
                    answered += 1
                    kept.append(row)
                    continue
                if value in current:
                    if trusted or value not in keys:
                        pruned += 1
                        answered += exact
                        continue
                    if exact:
                        answered += 1
                        kept.append(row)
                        continue
            text = _as_text(ctx, value)
            if isinstance(text, str):  # anything else: the atom is false
                rechecks += 1
                if holds_on_text(text):
                    kept.append(row)
        _count(ctx, "algebra.contains_index_answered", answered)
        _count(ctx, "algebra.index_pruned", pruned)
        _count(ctx, "algebra.contains_rechecks", rechecks)
        return kept
    return kernel
