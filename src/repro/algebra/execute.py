"""Plan execution: one :meth:`~repro.algebra.operators.Operator.batch`
call on the plan's root, whose distinct head columns become the result
set."""

from __future__ import annotations

from repro.errors import SafetyError
from repro.calculus.evaluator import EvalContext
from repro.oodb.values import SetValue, TupleValue
from repro.algebra.operators import (
    Operator,
    ProjectOp,
    SharedOp,
    UnionOp,
    walk_once,
)


def execute_plan(plan: ProjectOp, ctx: EvalContext) -> SetValue:
    """Run a compiled plan; the result shape matches
    :func:`repro.calculus.evaluator.evaluate_query`.

    The call owns the lifetime of the shared-subplan memo: a factored
    (DAG-shaped) plan computes each :class:`SharedOp` batch once per
    ``execute_plan`` call, and the memo is dropped afterwards — also
    when an operator raises — so cached plans re-read current data on
    their next run.  Unless it runs inside one, the call is also an
    outermost evaluation for the interpreter's memo of closed nested
    queries (:func:`~repro.calculus.evaluator.evaluate_query`): a
    kernel that hands ``Q2`` of ``Q1 - Q2`` to the interpreter
    evaluates it once per run, not once per row.
    """
    if not isinstance(plan, ProjectOp):
        raise SafetyError("a plan must be rooted at a ProjectOp")
    # nested execute_plan calls (a FormulaOp falling back into a
    # sub-plan) reuse the outer run's memo
    owns_memo = getattr(ctx, "shared_memo", None) is None
    if owns_memo:
        ctx.shared_memo = {}
    outermost = not getattr(ctx, "_evaluating", False)
    if outermost:
        ctx._evaluating, ctx._nested_cache = True, {}
    try:
        batch = plan.batch(ctx)
    finally:
        if owns_memo:
            ctx.shared_memo = None
        if outermost:
            ctx._evaluating, ctx._nested_cache = False, {}
    # the projection de-duplicated: its rows are the result's elements
    head = plan.head
    if len(head) == 1:
        return SetValue.of_distinct(batch.column(head[0]))
    names = [str(variable) for variable in head]
    columns = [batch.column(variable) for variable in head]
    return SetValue.of_distinct(
        TupleValue(zip(names, values))
        for values in (zip(*columns) if head else [()] * batch.size))


def plan_size(plan: Operator) -> int:
    """Number of distinct operators in the plan DAG (for
    tests/benchmarks); a shared subplan counts once."""
    return len(walk_once(plan))


def count_unions(plan: Operator) -> int:
    """Number of distinct UnionOp nodes (the variable-elimination
    fan-out)."""
    return sum(1 for node in walk_once(plan)
               if isinstance(node, UnionOp))


def count_shared(plan: Operator) -> int:
    """Number of SharedOp nodes (the factoring's merge points)."""
    return sum(1 for node in walk_once(plan)
               if isinstance(node, SharedOp))
