"""The static plan verifier — a dataflow pass over algebra plans.

Every operator declares a dataflow contract
(:meth:`~repro.algebra.operators.Operator.consumes` /
:meth:`~repro.algebra.operators.Operator.produces`); the verifier
threads a binding environment bottom-up through the plan DAG and
rejects any plan in which

* a consumed variable is not guaranteed bound by the operators below it
  (the signature bug of a broken rewrite: a filter pushed under its
  producer, an interval-join probe detached from its binder),
* the :class:`~repro.algebra.operators.SharedOp` memo structure is
  cyclic or replay-inconsistent (two distinct shared nodes with one id),
* a structural operator violates its shape invariants (a scan binding
  the variable it scans from, an attribute scan with both — or neither —
  of a fixed name and an attribute variable, an interval join whose
  recheck atom is not the fused ``out ≡ probe`` equality),
* the root projection does not bind its head, or does not match the
  query head it was compiled from,
* a union the cost stage reordered or pruned carries inconsistent
  :class:`~repro.stats.CostEvidence` — the kept+pruned indices do not
  partition the original branches, or a pruned branch lacks
  re-checkable zero evidence (``PC-COST``).

The pass is *sound for its contracts*, not a full type system: an
operator may over-approximate ``produces()`` (see
:class:`~repro.algebra.operators.FormulaOp`), which can only mask an
unbound-consumption fault one dynamic step earlier, never invent one —
exactly the right polarity for a gate that must stay silent on every
correct plan.  When the compiler recorded candidate types for the head
variables (``plan.var_types``), compile-time type facts embedded in
operators (``SelectOp.oid_only``) are replayed against them.

:func:`verify_plan` returns the fault list; :func:`check_plan` raises
:class:`~repro.errors.PlanVerificationError` when it is non-empty.
:func:`verify_structural_index` checks the pre/post encoding invariants
of a built :class:`~repro.structindex.StructuralIndex` (pre order,
interval nesting, subtree ends recomputed from the parent array,
sorted occurrence slices that point at their values).
"""

from __future__ import annotations

from typing import Any, Union

from repro.algebra.operators import (
    IntervalJoinOp,
    Operator,
    ProjectOp,
    SeedOp,
    SelectOp,
    SharedOp,
    StructuralAttrScanOp,
    StructuralScanOp,
    UnionOp,
    walk_once,
)
from repro.calculus.formulas import Eq, Query
from repro.calculus.terms import Const
from repro.errors import PlanVerificationError
from repro.oodb.types import ClassType
from repro.oodb.values import Oid
from repro.paths.steps import AttrStep, DerefStep, Step
from repro.plancheck.diagnostics import PlanFault


class _TopEnv:
    """The environment of a statically *dead* stream.

    The compiler encodes an impossible union branch as
    ``Select (0 = 1)`` over the branch plan: no row ever flows above
    it, so every consumption above is vacuously satisfied.  ``_TOP``
    is the lattice top — it absorbs unions with itself and satisfies
    every membership test."""

    def __contains__(self, variable: object) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover
        return "<every variable (dead stream)>"


_TOP = _TopEnv()

#: A binding environment: the set of bound variables, or the dead-
#: stream top element.
Env = Union[frozenset, _TopEnv]


def _statically_false(atom: object) -> bool:
    """The compiler's dead-branch marker: an equality over unequal
    constants (canonically ``0 = 1``)."""
    if not isinstance(atom, Eq):
        return False
    left, right = atom.left, atom.right
    if not (isinstance(left, Const) and isinstance(right, Const)):
        return False
    try:
        return bool(left.value != right.value)
    except Exception:  # pragma: no cover - exotic constant values
        return False


def _minus(consumed: frozenset, env: Env) -> frozenset:
    if env is _TOP:
        return frozenset()
    return consumed - env


def _extend(env: Env, produced: frozenset) -> Env:
    if env is _TOP:
        return _TOP
    return env | produced


def _meet(envs: list[Env]) -> Env:
    """Greatest lower bound across union branches: a union row comes
    from *some* branch, so only the intersection of the live branches
    is guaranteed (dead branches contribute nothing — and constrain
    nothing)."""
    live = [env for env in envs if env is not _TOP]
    if not live:
        return _TOP
    return frozenset.intersection(*live)


def verify_plan(plan: Operator, query: Query | None = None,
                stage: str | None = None,
                metrics: Any = None,
                stats: Any = None) -> list[PlanFault]:
    """Run every static check over ``plan``; returns the faults found.

    ``query`` (the calculus form) enables the head-match check;
    ``stage`` tags faults with the optimizer stage they appeared after;
    ``metrics`` receives ``plancheck.verifications`` /
    ``plancheck.faults`` counters; ``stats`` (the snapshot the cost
    stage read) lets the ``PC-COST`` check re-derive zero evidence.
    """
    faults: list[PlanFault] = []
    nodes = walk_once(plan)
    _check_sharing(nodes, stage, faults)
    envs: dict[int, Env] = {}
    active: set[int] = set()
    _env_of(plan, envs, active, stage, faults)
    _check_root(plan, nodes, query, envs, stage, faults)
    _check_cost(nodes, stats, stage, faults)
    if metrics is not None:
        metrics.inc("plancheck.verifications")
        if faults:
            metrics.inc("plancheck.faults", len(faults))
    return faults


def check_plan(plan: Operator, query: Query | None = None,
               stage: str | None = None,
               metrics: Any = None,
               stats: Any = None) -> None:
    """:func:`verify_plan`, raising on any fault."""
    faults = verify_plan(plan, query=query, stage=stage, metrics=metrics,
                         stats=stats)
    if faults:
        where = f" after stage {stage!r}" if stage else ""
        summary = "; ".join(f"{f.code}: {f.message}" for f in faults[:3])
        if len(faults) > 3:
            summary += f"; ... ({len(faults)} faults)"
        raise PlanVerificationError(
            f"plan failed static verification{where}: {summary}",
            faults=faults)


# -- the dataflow pass ------------------------------------------------------


def _env_of(node: Operator, envs: dict[int, Env], active: set[int],
            stage: str | None, faults: list[PlanFault]) -> Env:
    """Variables guaranteed bound in every row ``node`` yields.

    Memoized by object identity so shared DAG nodes are visited once;
    ``active`` guards against cycles (a cyclic plan cannot execute —
    report it instead of recursing forever).
    """
    key = id(node)
    done = envs.get(key)
    if done is not None:
        return done
    if key in active:
        faults.append(PlanFault(
            "PC-CYCLE", "plan graph is cyclic", node.label(), stage,
            hint="a rewrite linked an operator below itself"))
        envs[key] = frozenset()
        return envs[key]
    active.add(key)
    try:
        children = node.children()
        if children:
            env = _meet([_env_of(child, envs, active, stage, faults)
                         for child in children])
        else:
            env = frozenset()
            if not isinstance(node, SeedOp):
                faults.append(PlanFault(
                    "PC-LEAF", "leaf operator is not a Seed",
                    node.label(), stage))
        unbound = _minus(node.consumes(), env)
        if unbound:
            names = ", ".join(sorted(str(v) for v in unbound))
            faults.append(PlanFault(
                "PC-UNBOUND",
                f"operator consumes unbound variable(s) {names}",
                node.label(), stage,
                hint="a rewrite moved this operator below the "
                     "operator that binds them"))
        _check_shape(node, stage, faults)
        if isinstance(node, SelectOp) and _statically_false(node.atom):
            # the compiler's dead-branch marker: no row ever flows
            # above this node, so everything above it is vacuous
            env = _TOP
        else:
            env = _extend(env, node.produces())
        envs[key] = env
        return env
    finally:
        active.discard(key)


# -- per-operator shape invariants ------------------------------------------


def _check_shape(node: Operator, stage: str | None,
                 faults: list[PlanFault]) -> None:
    if isinstance(node, StructuralAttrScanOp):
        fixed = node.attr is not None
        variable = node.attr_var is not None
        if fixed == variable:
            faults.append(PlanFault(
                "PC-ATTRSCAN",
                "attribute scan needs exactly one of a fixed attribute "
                "name and an attribute variable",
                node.label(), stage))
        if node.value_var in (node.path_var, node.out_var):
            faults.append(PlanFault(
                "PC-ATTRSCAN",
                "attribute scan value variable collides with its "
                "path/holder variable", node.label(), stage))
    if isinstance(node, StructuralScanOp):
        produced = [node.path_var, node.out_var]
        if node.source_var in produced:
            faults.append(PlanFault(
                "PC-SCAN",
                "structural scan binds the variable it scans from",
                node.label(), stage,
                hint="source_var must stay distinct from "
                     "path_var/out_var"))
        if node.path_var is node.out_var:
            faults.append(PlanFault(
                "PC-SCAN", "structural scan path and output variables "
                "coincide", node.label(), stage))
    if isinstance(node, IntervalJoinOp):
        if node.probe_var in (node.out_var, node.path_var,
                              node.source_var):
            faults.append(PlanFault(
                "PC-JOIN",
                "interval-join probe variable collides with the "
                "scan's own variables", node.label(), stage,
                hint="the probe must be bound upstream, not by the "
                     "join itself"))
        atom = node.recheck_atom
        expected = {node.out_var, node.probe_var}
        if not (isinstance(atom, Eq)
                and set(atom.free_variables()) <= expected):
            faults.append(PlanFault(
                "PC-JOIN",
                "interval-join recheck atom is not the fused "
                "out ≡ probe equality", node.label(), stage))


def _check_sharing(nodes: list[Operator], stage: str | None,
                   faults: list[PlanFault]) -> None:
    """SharedOp replay consistency: ids unique per node object, sane
    reference counts.  (Acyclicity is the dataflow pass's job — it
    visits the same graph anyway.)"""
    by_id: dict[int, SharedOp] = {}
    for node in nodes:
        if isinstance(node, SharedOp):
            other = by_id.get(node.shared_id)
            if other is not None and other is not node:
                faults.append(PlanFault(
                    "PC-SHARED",
                    f"two distinct shared nodes carry id "
                    f"{node.shared_id}", node.label(), stage,
                    hint="factoring must mint one wrapper per merged "
                         "subtree"))
            by_id.setdefault(node.shared_id, node)
            if node.ref_count < 1:
                faults.append(PlanFault(
                    "PC-SHARED",
                    f"shared node has ref_count {node.ref_count}",
                    node.label(), stage))
            if isinstance(node.child, SharedOp):
                faults.append(PlanFault(
                    "PC-SHARED", "shared node directly wraps another "
                    "shared node", node.label(), stage))


def _check_root(plan: Operator, nodes: list[Operator],
                query: Query | None, envs: dict[int, Env],
                stage: str | None, faults: list[PlanFault]) -> None:
    if not isinstance(plan, ProjectOp):
        faults.append(PlanFault(
            "PC-ROOT", "plan root is not a projection",
            plan.label(), stage))
        return
    child_env = envs.get(id(plan.child), frozenset())
    unbound = [v for v in plan.head if v not in child_env]
    if unbound:
        names = ", ".join(str(v) for v in unbound)
        faults.append(PlanFault(
            "PC-HEAD",
            f"projection head variable(s) {names} are not bound by "
            "the plan", plan.label(), stage))
    if query is not None and tuple(plan.head) != tuple(query.head):
        faults.append(PlanFault(
            "PC-HEAD",
            f"projection head {list(plan.head)} does not match the "
            f"query head {list(query.head)}", plan.label(), stage))
    if plan.var_types:
        _check_types(nodes, plan.var_types, stage, faults)


def _check_types(nodes: list[Operator], var_types: dict,
                 stage: str | None, faults: list[PlanFault]) -> None:
    """Replay compile-time type facts embedded in operators against the
    compiler's recorded candidate types."""
    for node in nodes:
        if not (isinstance(node, SelectOp) and node.oid_only):
            continue
        subject = (node.atom.arguments[0] if node.pattern is not None
                   else None)
        types = var_types.get(subject)
        if not types or not all(isinstance(tp, ClassType)
                                for tp in types):
            faults.append(PlanFault(
                "PC-TYPE",
                f"select on {subject} claims oid-only but it is not a "
                "constant-pattern contains on a variable whose "
                "candidate types are all classes",
                node.label(), stage,
                hint="oid_only lets unions prune whole branches; "
                     "a non-class candidate makes that unsound"))


# -- cost-evidence checks ---------------------------------------------------


def _check_cost(nodes: list[Operator], stats: Any, stage: str | None,
                faults: list[PlanFault]) -> None:
    """Re-validate every :class:`~repro.stats.CostEvidence` record.

    The cost stage may only *permute* a union's branches and *remove*
    branches it can prove empty — so the evidence's kept order plus its
    pruned indices must partition the original branch list, and every
    pruned entry must carry zero evidence the verifier can re-derive.
    When ``stats`` is the same snapshot generation the stage costed
    against, the posting-size bound is recomputed and must still be 0.
    """
    for node in nodes:
        evidence = node.cost_evidence
        if evidence is None:
            continue

        def fault(message: str, hint: str | None = None) -> None:
            faults.append(PlanFault("PC-COST", message,
                                    node.label(), stage, hint=hint))

        if not isinstance(node, UnionOp):
            fault("cost evidence attached to a non-union operator")
            continue
        accounted = sorted(list(evidence.order)
                           + list(evidence.pruned))
        if accounted != list(range(evidence.original)):
            fault(f"kept order {list(evidence.order)} + pruned "
                  f"{sorted(evidence.pruned)} do not partition the "
                  f"{evidence.original} original branches",
                  hint="the cost stage may only permute branches and "
                       "remove provably empty ones")
            continue
        if len(node.branches) != len(evidence.order):
            fault(f"union has {len(node.branches)} branches but the "
                  f"evidence keeps {len(evidence.order)}")
            continue
        for index, (kind, detail) in sorted(evidence.pruned.items()):
            if kind != "empty_candidates":
                fault(f"pruned branch {index} carries unverifiable "
                      f"evidence kind {kind!r}",
                      hint="only posting-size zero proofs justify "
                           "static pruning")
                continue
            if (stats is not None
                    and stats.generation == evidence.generation
                    and stats.candidate_upper_bound(detail) != 0):
                fault(f"pruned branch {index}'s pattern is no longer "
                      "provably empty under the same statistics "
                      "generation")


# -- structural-index invariants --------------------------------------------


def verify_structural_index(index: Any) -> list[PlanFault]:
    """Check the pre/post encoding invariants of every built block.

    These are the facts :class:`~repro.algebra.operators.StructuralScanOp`
    and :class:`~repro.algebra.operators.IntervalJoinOp` rely on: the
    arrays are in pre order, every subtree is the contiguous pre
    interval ``[pre, end[pre])`` (so ``end`` and ``level`` carry the
    post rank), and the occurrence and attribute slices are sorted
    positions pointing at their values and steps.
    """
    faults: list[PlanFault] = []
    for name, block in index.blocks.items():
        _verify_block(name, block, faults)
    return faults


def _verify_block(name: str, block: Any,
                  faults: list[PlanFault]) -> None:
    def fault(message: str) -> None:
        faults.append(PlanFault("PC-INDEX", message, f"block {name!r}"))

    n = block.size
    for label, array in (("level", block.level),
                         ("parent", block.parent), ("end", block.end),
                         ("steps", block.steps),
                         ("complete", block.complete)):
        if len(array) != n:
            fault(f"array {label} has {len(array)} entries, expected {n}")
            return
    if n == 0:
        return
    if (block.parent[0] != -1 or block.level[0] != 0
            or block.steps[0] is not None):
        fault("block origin is not a level-0, parentless, stepless root")
    open_nodes = [0]
    for i in range(1, n):
        parent = block.parent[i]
        if not (0 <= parent < i):
            fault(f"node {i} has non-preceding parent {parent}")
            return
        # pre order: the parent is an ancestor-or-self of node i - 1
        while open_nodes and open_nodes[-1] != parent:
            open_nodes.pop()
        if not open_nodes:
            fault(f"node {i} follows its parent {parent}'s subtree "
                  "(not pre order)")
            return
        open_nodes.append(i)
        step = block.steps[i]
        if not isinstance(step, Step):
            fault(f"node {i} has no path step")
            return
        if ((type(step) is DerefStep)
                != (type(block.values[parent]) is Oid)):
            fault(f"node {i}: a dereference step must lead from an "
                  "oid, and an oid's child is its dereference")
            return
        if block.level[i] != block.level[parent] + 1:
            fault(f"node {i} is not one level below its parent")
            return
    # each subtree ends after its last descendant: one reverse pass
    ends = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        parent = block.parent[i]
        if ends[parent] < ends[i]:
            ends[parent] = ends[i]
    if ends != list(block.end):
        first = next(i for i in range(n) if ends[i] != block.end[i])
        fault(f"node {first}'s interval ends at {block.end[first]}, "
              f"its subtree at {ends[first]}")
    for value, positions in block.occurrences.items():
        if list(positions) != sorted(set(positions)):
            fault(f"occurrence slice {value!r} is not strictly sorted")
            continue
        if not all(block.values[pre] is value or block.values[pre] == value
                   for pre in positions):
            fault(f"occurrence slice {value!r} points at another value")
    for attr, positions in block.attr_steps.items():
        if list(positions) != sorted(positions):
            fault(f"attr slice {attr!r} is not sorted")
            continue
        for pre in positions:
            step = block.steps[pre]
            if type(step) is not AttrStep or step.name != attr:
                fault(f"attr slice {attr!r} points at a node not "
                      f"reached by .{attr} (pre {pre})")
                break
