"""Plan execution."""

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
    (DAG-shaped) plan computes each :class:`SharedOp` stream once per
    ``execute_plan`` call, and the memo is dropped afterwards so cached
    plans re-read current data on their next run.
    """
    if not isinstance(plan, ProjectOp):
        raise SafetyError("a plan must be rooted at a ProjectOp")
    head = plan.head
    results = []
    seen: set = set()
    unhashable: list = []
    # nested execute_plan calls (a FormulaOp falling back into a
    # sub-plan) reuse the outer run's memo
    owns_memo = getattr(ctx, "shared_memo", None) is None
    if owns_memo:
        ctx.shared_memo = {}
    try:
        for row in plan.rows(ctx):
            if len(head) == 1:
                value = row[head[0]]
            else:
                value = TupleValue([(str(variable), row[variable])
                                    for variable in head])
            try:
                duplicate = value in seen
            except TypeError:
                # unhashable result value: equality-scan fallback
                duplicate = any(value == prior for prior in unhashable)
                if not duplicate:
                    unhashable.append(value)
            else:
                if not duplicate:
                    seen.add(value)
            if not duplicate:
                results.append(value)
    finally:
        if owns_memo:
            ctx.shared_memo = None
    return SetValue(results)


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
