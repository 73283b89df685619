"""The row model: ``estimate(op, stats) -> rows``.

Estimates are computed bottom-up over the plan DAG, memoized by node
identity so a :class:`~repro.algebra.operators.SharedOp` subtree is
estimated once.

``rows`` predicts the cardinality of the operator's output stream —
the ``est=`` column ``explain_analyze`` prints beside the actual
count.  Nothing else reads an estimate: no plan is chosen or pruned by
one.

What makes the estimates data-driven rather than guesses:

* a :class:`~repro.algebra.operators.SeedOp` chain seeded from a class
  extent or persistence root starts at the *measured* cardinality
  (``Statistics.class_cardinalities`` / ``root_cardinalities``);
* a constant-pattern ``contains``
  :class:`~repro.algebra.operators.SelectOp` is bounded by its
  pattern's posting-list sizes;
* structural scans multiply by measured subtree/attribute densities
  from the structural index.
"""

from __future__ import annotations

from repro.calculus.formulas import Eq
from repro.calculus.terms import Const, Name
from repro.algebra.operators import (
    NegationOp,
    Operator,
    SeedOp,
    SelectOp,
    SharedOp,
    StructuralAttrScanOp,
    StructuralScanOp,
    UnionOp,
    UnnestOp,
)
from repro.stats.statistics import DEFAULT_SELECTIVITY, Statistics


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
             memo: dict[int, float] | None = None) -> float:
    """The estimated output rows of ``plan`` under ``stats``.

    ``memo`` (id-keyed) may be shared across calls to estimate several
    nodes of one DAG consistently; shared subtrees are estimated once.
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
                   memo: dict[int, float]) -> float:
    if isinstance(node, SeedOp):
        return 1.0
    if isinstance(node, UnionOp):
        return sum(estimate(branch, stats, memo)
                   for branch in node.branches)
    if isinstance(node, SharedOp):
        return estimate(node.child, stats, memo)
    rows = estimate(node.children()[0], stats, memo)
    if isinstance(node, UnnestOp):
        return rows * _unnest_cardinality(node, stats)
    if isinstance(node, SelectOp):
        if _statically_false(node.atom):
            return 0.0
        bound = stats.candidate_upper_bound(node.pattern)
        if bound is None:
            return rows * DEFAULT_SELECTIVITY
        if node.oid_only:
            return min(rows, float(bound))
        total = max(1, stats.document_count)
        return rows * min(1.0, bound / total)
    if isinstance(node, NegationOp):
        return rows * DEFAULT_SELECTIVITY
    if isinstance(node, StructuralAttrScanOp):
        return rows * stats.attr_density(node.attr)
    if isinstance(node, StructuralScanOp):
        return rows * stats.avg_subtree_size()
    # a formula, an interval join, a bind/step/path or a projection
    # passes its input's cardinality through
    return rows
