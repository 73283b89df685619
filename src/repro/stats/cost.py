"""The cost model: ``estimate(op, stats) -> (rows, cost)``.

Estimates are computed bottom-up over the plan DAG, memoized by node
identity so a :class:`~repro.algebra.operators.SharedOp` subtree is
costed once (its production cost is amortized over its consumers —
exactly how execution amortizes it).

The numbers are *relative*, not wall-clock: ``rows`` predicts the
cardinality of the operator's output stream, ``cost`` the total work of
draining it (child cost + per-row work × the operator class's learned
unit cost).  The cost stage only ever compares estimates against each
other — branch ordering, provable-empty pruning — so monotonicity
matters and absolute calibration does not.

What makes the estimates data-driven rather than guesses:

* a :class:`~repro.algebra.operators.SeedOp` chain seeded from a class
  extent or persistence root starts at the *measured* cardinality
  (``Statistics.class_cardinalities`` / ``root_cardinalities``);
* a constant-pattern ``contains``
  :class:`~repro.algebra.operators.SelectOp` is bounded by its
  pattern's posting-list sizes (0 = provably empty, the pruning hook);
* structural scans multiply by measured subtree/attribute densities
  from the structural index;
* per-operator-class unit costs are EMA-learned from profiled runs
  (:meth:`repro.stats.manager.StatisticsManager.ingest_profile`).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.calculus.formulas import Eq
from repro.calculus.terms import Const, Name
from repro.algebra.operators import (
    BindOp,
    FormulaOp,
    IntervalJoinOp,
    MakePathOp,
    NegationOp,
    Operator,
    ProjectOp,
    SeedOp,
    SelectOp,
    SharedOp,
    StepOp,
    StructuralAttrScanOp,
    StructuralScanOp,
    UnionOp,
    UnnestOp,
    walk_once,
)
from repro.stats.statistics import DEFAULT_SELECTIVITY, Statistics


class Estimate(NamedTuple):
    """Predicted output cardinality and total work of one operator."""

    rows: float
    cost: float


#: Relative per-row base cost of an interpreted residual formula — the
#: calculus fallback is an order of magnitude heavier than a native
#: operator's row handling.
_FORMULA_ROW_COST = 10.0


def _statically_false(atom: object) -> bool:
    """The compiler's dead-branch marker (``Select (0 = 1)``)."""
    if not isinstance(atom, Eq):
        return False
    left, right = atom.left, atom.right
    if not (isinstance(left, Const) and isinstance(right, Const)):
        return False
    try:
        return bool(left.value != right.value)
    except Exception:  # pragma: no cover - exotic constant values
        return False


def _unnest_cardinality(node: UnnestOp, stats: Statistics) -> float:
    """Fan-out of one unnest: a named persistence root iterates its
    measured collection size; everything else gets the structural
    fan-out average."""
    term = node.collection_term
    if (isinstance(term, Name)
            and term.name in stats.root_cardinalities):
        return float(max(1, stats.root_cardinality(term.name)))
    return stats.avg_fanout()


def estimate(plan: Operator, stats: Statistics,
             memo: dict[int, Estimate] | None = None) -> Estimate:
    """The (rows, cost) estimate of ``plan`` under ``stats``.

    ``memo`` (id-keyed) may be shared across calls to cost several
    branches of one DAG consistently; shared subtrees are costed once.
    """
    if memo is None:
        memo = {}
    done = memo.get(id(plan))
    if done is not None:
        return done
    result = _estimate_node(plan, stats, memo)
    memo[id(plan)] = result
    return result


def _estimate_node(node: Operator, stats: Statistics,
                   memo: dict[int, Estimate]) -> Estimate:
    unit = stats.unit_cost(type(node).__name__)
    if isinstance(node, SeedOp):
        return Estimate(1.0, 1.0)
    if isinstance(node, UnionOp):
        rows = 0.0
        cost = float(len(node.branches))
        for branch in node.branches:
            child = estimate(branch, stats, memo)
            rows += child.rows
            cost += child.cost
        return Estimate(rows, cost)
    if isinstance(node, SharedOp):
        inner = estimate(node.child, stats, memo)
        refs = max(1, node.ref_count)
        # one production amortized over the consumers, plus a replay
        return Estimate(inner.rows, inner.cost / refs + inner.rows)
    child = estimate(node.children()[0], stats, memo)
    rows, cost = child.rows, child.cost
    if isinstance(node, UnnestOp):
        out = rows * _unnest_cardinality(node, stats)
        return Estimate(out, cost + rows * unit + out)
    if isinstance(node, SelectOp):
        if _statically_false(node.atom):
            return Estimate(0.0, cost + rows * unit)
        bound = stats.candidate_upper_bound(node.pattern)
        if bound is None:
            out = rows * DEFAULT_SELECTIVITY
        elif node.oid_only:
            out = min(rows, float(bound))
        else:
            total = max(1, stats.document_count)
            out = rows * min(1.0, bound / total)
        return Estimate(out, cost + rows * unit)
    if isinstance(node, NegationOp):
        return Estimate(rows * DEFAULT_SELECTIVITY,
                        cost + rows * _FORMULA_ROW_COST * unit)
    if isinstance(node, FormulaOp):
        return Estimate(rows, cost + rows * _FORMULA_ROW_COST * unit)
    if isinstance(node, StructuralAttrScanOp):
        out = rows * stats.attr_density(node.attr)
        return Estimate(out, cost + rows * unit + out)
    if isinstance(node, StructuralScanOp):
        out = rows * stats.avg_subtree_size()
        return Estimate(out, cost + rows * unit + out)
    if isinstance(node, IntervalJoinOp):
        # two bisections per row, a handful of matches each
        return Estimate(rows, cost + rows * 2.0 * unit + rows)
    if isinstance(node, (BindOp, StepOp, MakePathOp)):
        return Estimate(rows, cost + rows * unit)
    if isinstance(node, ProjectOp):
        return Estimate(rows, cost + rows * unit)
    return Estimate(rows, cost + rows * unit)  # pragma: no cover


def annotate_estimates(plan: Operator, stats: Statistics,
                       memo: dict[int, Estimate] | None = None) -> Estimate:
    """Stamp ``est_rows``/``est_cost`` on every node of the plan DAG
    (the EXPLAIN ANALYZE ``est_rows`` column); returns the root
    estimate."""
    if memo is None:
        memo = {}
    for node in walk_once(plan):
        node.est_rows, node.est_cost = estimate(node, stats, memo)
    return estimate(plan, stats, memo)
