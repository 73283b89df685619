"""Plan rewriting (the Section 4.1 / 6 "optimization is crucial" hook).

:func:`optimize` runs up to four rewrites, in this order:

* **interval joins** (``structural=True`` only, the default) — an
  equality select directly above a :class:`StructuralScanOp` (the
  pre/post range scan the compiler emits for a path variable when it
  compiles with ``structural=True``) is fused into an
  :class:`IntervalJoinOp` (experiment P9).
* **selection pushdown** — a ground :class:`SelectOp` sitting above an
  operator that does not bind any of the atom's variables commutes below
  it, shrinking intermediate streams.
* **common-prefix factoring** — the union-of-plans elimination of
  Section 5.4 (a ``structural=False`` plan) produces branches with
  long identical prefixes (the same
  class-extent scan, the same leading navigation steps).  The pass
  structurally hashes every subtree and merges equal ones into a
  single :class:`SharedOp`, turning the plan tree into a DAG whose
  shared streams execute once per run (experiment P7).
* the statistics-driven **cost stage**, when a
  :class:`~repro.stats.Statistics` snapshot is supplied (``stats=...``):
  union branches are reordered by estimated cost, cheapest first, so
  likely-empty branches probe before expensive ones stream; and
  branches gated by an oid-only ``contains`` select whose pattern has a
  posting-size upper bound of **zero** are pruned statically — before
  any index probe is issued at execution time
  (``algebra.branches_pruned_static``).

Full-text index utilisation (Section 4.1) is not a rewrite: a
``contains(X, <constant pattern>)`` :class:`SelectOp` *is* the
index-backed filter — its kernel reads the probed key set, and the
compiler flags it ``oid_only`` when an empty key set proves it passes
nothing (experiment P1).

Every reordered/pruned union carries a
:class:`~repro.stats.CostEvidence` record, and the stage runs under the
same plancheck gate as every other rewrite: the verifier's ``PC-COST``
checks re-validate the evidence (experiment P12).

None of the rewrites knows how to rebuild or hash an operator class:
nodes are reconstructed with
:meth:`~repro.algebra.operators.Operator.with_children` (through the
constructor, so estimates, cost evidence and memoized probes never
travel onto a rewritten node) and the factoring keys on
:meth:`~repro.algebra.operators.Operator.param_key`.  The ``isinstance``
tests left in this module choose *which* nodes a rewrite applies to.
"""

from __future__ import annotations

import warnings
from collections import Counter
from typing import Any, Callable

from repro.calculus.formulas import Eq
from repro.calculus.terms import AttVar, DataVar, PathVar
from repro.algebra.operators import (
    BindOp,
    IntervalJoinOp,
    MakePathOp,
    Operator,
    SeedOp,
    SelectOp,
    SharedOp,
    StepOp,
    StructuralAttrScanOp,
    StructuralScanOp,
    UnionOp,
    UnnestOp,
    gating_index_filters,
    walk_once,
)


#: Test-only corruption switch for the plancheck mutation test: set to
#: ``"pushdown_unguarded"`` (the pushdown ignores its producer guard),
#: ``"interval_probe_misbound"`` (the interval join probes the variable
#: the scan itself binds), ``"branch_order_scrambled"`` (the cost stage
#: duplicates one branch and drops another, so its evidence is no
#: longer a permutation) or ``"prune_nonempty_branch"`` (the cost stage
#: prunes a branch without zero evidence) to seed a broken rewrite the
#: verifier must catch.  Production value is ``None``; never set it
#: outside tests.
_TEST_MUTATION: str | None = None


def optimize(plan: Operator, structural: bool = True,
             verify: str = "warn", query: object = None,
             metrics: object = None, tracer: Any = None,
             stats: object = None, plan_key: object = None) -> Operator:
    """Return a rewritten plan.  The input's structure is not mutated;
    a stage that changes nothing returns its input, so the result
    shares every node no rewrite touched with the input — and the cost
    stage stamps ``est_rows``/``est_cost`` on every node of the result,
    the input's shared nodes included.

    The stage sequence is fixed: (``structural=True`` only)
    :func:`structuralize`, :func:`sink_selections`,
    :func:`factor_shared_prefixes` and —
    when a ``stats`` snapshot is supplied — :func:`apply_cost_stage`.
    Each stage is a public function of one plan; a test or ablation
    that isolates one rewrite calls that function.

    ``structural`` names the plan the compiler built: with ``True``
    (range scans, the default) the interval-join fusion runs; a
    ``structural=False`` union-of-plans has no scan to fuse.

    Every plan is gated by the :mod:`repro.plancheck` verifier: the
    compiler's plan once, under the stage tag ``compile``, then each
    stage's output that ``is not`` its input (a stage that returns its
    input has nothing new to verify).  ``verify`` selects the failure
    policy: ``"raise"`` (tests) raises
    :class:`~repro.errors.PlanVerificationError` on the first faulty
    plan; ``"warn"`` (the serving default) counts
    ``plancheck.stages_rejected`` on ``metrics``, emits one
    :class:`~repro.plancheck.PlanVerificationWarning` and keeps the
    *last verified* plan — or, when the compiler's own plan is faulty,
    serves it without rewriting it.  Callers that must not serve past
    a rejected plan (diffcheck, the plancheck CLI) turn that warning
    category into an error with the standard warnings filter.
    ``query`` (the calculus form) enables the head-match check;
    ``tracer`` gets one sub-span per stage (the compile-phase breakdown
    of ``explain_analyze``).
    """
    if verify not in ("raise", "warn"):
        raise ValueError(f"unknown verify policy {verify!r}")
    stages: list[tuple[str, Callable[[Operator], Operator]]] = []
    if structural:
        stages.append(("structuralize", structuralize))
    stages += [("pushdown", sink_selections),
               ("factor", factor_shared_prefixes)]
    if stats is not None:
        stages.append(("cost",
                       lambda p: apply_cost_stage(p, stats,
                                                  plan_key=plan_key,
                                                  metrics=metrics)))

    from repro.observe.trace import NULL_TRACER
    from repro.plancheck.diagnostics import PlanVerificationWarning
    from repro.plancheck.verifier import check_plan, verify_plan
    if tracer is None:
        tracer = NULL_TRACER

    def verified(candidate: Operator, name: str, author: str,
                 fallback: str) -> bool:
        if verify == "raise":
            check_plan(candidate, query=query, stage=name,
                       metrics=metrics, stats=stats)
            return True
        faults = verify_plan(candidate, query=query, stage=name,
                             metrics=metrics, stats=stats)
        if not faults:
            return True
        # a broken plan must never reach execution when a verified one
        # exists
        warnings.warn(PlanVerificationWarning(
            f"{author} produced a plan that fails static verification "
            f"({faults[0].code}: {faults[0].message}); {fallback}",
            faults), stacklevel=3)
        if metrics is not None:
            metrics.inc("plancheck.stages_rejected")
        return False

    if not verified(plan, "compile", "the compiler",
                    "serving it unoptimized"):
        return plan
    for name, stage in stages:
        with tracer.span(f"optimize.{name}"):
            rewritten = stage(plan)
        if rewritten is not plan and verified(
                rewritten, name, f"optimizer stage {name!r}",
                "keeping the pre-stage plan"):
            plan = rewritten
    return plan


def structuralize(plan: Operator) -> Operator:
    """The ``structuralize`` stage: fuse interval joins."""
    plan = _rebuild(plan, structuralize)
    if isinstance(plan, SelectOp):
        return _try_interval_join(plan) or plan
    return plan


def _try_interval_join(select: SelectOp) -> IntervalJoinOp | None:
    """Fuse ``Select (out ≡ probe)`` directly above a structural scan
    into the ancestor/descendant interval join."""
    scan = select.child
    if (not isinstance(scan, StructuralScanOp)
            or isinstance(scan, StructuralAttrScanOp)):
        return None
    atom = select.atom
    if not isinstance(atom, Eq):
        return None
    if atom.left is scan.out_var:
        probe = atom.right
    elif atom.right is scan.out_var:
        probe = atom.left
    else:
        return None
    if not isinstance(probe, (DataVar, PathVar, AttVar)):
        return None
    if probe is scan.out_var or probe is scan.path_var:
        return None
    if _TEST_MUTATION == "interval_probe_misbound":
        # seeded bug: probe the variable the scan itself binds — the
        # join then consumes a variable nothing upstream produces
        probe = scan.out_var
    return IntervalJoinOp(scan.child, scan.source_var, scan.path_var,
                          scan.out_var, probe, atom)


def sink_selections(plan: Operator) -> Operator:
    """The ``pushdown`` stage: sink every filter below the operators
    that bind none of its variables."""
    plan = _rebuild(plan, sink_selections)
    if isinstance(plan, SelectOp):
        return _sink(plan) or plan
    return plan


def _sink(select: SelectOp) -> Operator | None:
    """Move a filter below its child when the child binds none of the
    variables the filter needs — the operators' own dataflow contract
    (checked by repro.plancheck) is exactly the commutation condition."""
    child = select.child
    if isinstance(child, (BindOp, StepOp, UnnestOp, MakePathOp,
                          StructuralScanOp, IntervalJoinOp)):
        # seeded bug for the plancheck mutation test: sinking without
        # the producer guard pushes a filter below its binder
        if (select.consumes() & child.produces()
                and _TEST_MUTATION != "pushdown_unguarded"):
            return None
        relocated = select.with_children([child.child])
        return child.with_children([sink_selections(relocated)])
    if isinstance(child, UnionOp):
        return UnionOp([sink_selections(select.with_children([branch]))
                        for branch in child.branches])
    return None


def _rebuild(plan: Operator,
             transform: Callable[[Operator], Operator]) -> Operator:
    """Apply ``transform`` to children, reconstructing the node only
    when a child changed — an untouched subplan stays the same object,
    so the compiler's trie sharing survives a stage that fires nowhere
    in it."""
    children = plan.children()
    rebuilt = [transform(child) for child in children]
    if all(new is old for new, old in zip(rebuilt, children)):
        return plan
    return plan.with_children(rebuilt)


# -- common-prefix factoring ------------------------------------------------


def factor_shared_prefixes(plan: Operator) -> Operator:
    """Merge structurally identical subplans into :class:`SharedOp`
    nodes, turning the plan tree into a DAG.

    Every node gets a structural key ``(class, parameters, child
    keys)``; equal keys ⇒ equal subplans.  Parameters compare by object
    *identity*, not by printed form: the compiler's trie sharing and the
    pushdown's cloning reuse the same term/variable objects, so clones
    of the same compiled fragment merge while coincidentally
    similar-looking fragments (which would carry distinct fresh
    variables) never do — a merge cannot change semantics.

    A subplan referenced at least twice is wrapped in one
    :class:`SharedOp`; seeds and existing SharedOps are left alone.
    Only a :class:`UnionOp` has more than one child, so a union-free
    plan is a chain with nothing to share: it is returned as is.
    """
    if not any(isinstance(node, UnionOp) for node in walk_once(plan)):
        return plan
    interned: dict[tuple, int] = {}
    key_of: dict[int, int] = {}          # id(node) -> structural key
    canonical: dict[int, Operator] = {}  # key -> first node seen

    def intern(node: Operator) -> int:
        found = key_of.get(id(node))
        if found is not None:
            return found
        child_keys = tuple(intern(child) for child in node.children())
        raw = (type(node).__name__, node.param_key(), child_keys)
        key = interned.setdefault(raw, len(interned))
        key_of[id(node)] = key
        canonical.setdefault(key, node)
        return key

    root_key = intern(plan)

    # reference counts over the canonical DAG, every key of which is
    # reachable from the root's (a node consumed twice by the same
    # parent — duplicate union branches — counts twice)
    refs = Counter(key_of[id(child)] for node in canonical.values()
                   for child in node.children())

    built: dict[int, Operator] = {}
    wrappers: dict[int, SharedOp] = {}
    counter = [0]

    def build(key: int) -> Operator:
        done = built.get(key)
        if done is None:
            node = canonical[key]
            children = [resolve(child) for child in node.children()]
            if children == node.children():  # identity: nothing changed
                done = node
            else:
                done = node.with_children(children)
            built[key] = done
        return done

    def resolve(child: Operator) -> Operator:
        key = key_of[id(child)]
        node = build(key)
        if refs[key] >= 2 and _shareable(canonical[key]):
            wrapper = wrappers.get(key)
            if wrapper is None:
                counter[0] += 1
                wrapper = SharedOp(node, ref_count=refs[key],
                                   shared_id=counter[0])
                wrappers[key] = wrapper
            return wrapper
        return node

    return build(root_key)


def _shareable(node: Operator) -> bool:
    # a Seed stream is free to recompute; nested SharedOps add nothing
    return not isinstance(node, (SeedOp, SharedOp))


# -- the cost stage ---------------------------------------------------------


def apply_cost_stage(plan: Operator, stats: Any,
                     plan_key: object = None,
                     metrics: object = None) -> Operator:
    """The statistics-driven rewrite: selectivity-ordered unions,
    provable-empty branch pruning, and ``est_rows``/``est_cost``
    annotations on every node.

    The transform is memoized by node *identity* so the DAG the factor
    stage built survives intact: both consumers of a :class:`SharedOp`
    resolve to the same rebuilt object.  Nodes whose subtree the stage
    does not touch are returned as-is (the input plan is only ever
    annotated, never restructured in place).
    """
    from repro.stats.cost import annotate_estimates

    memo: dict[int, Operator] = {}
    est_memo: dict = {}
    ordinal = [0]

    def transform(node: Operator) -> Operator:
        done = memo.get(id(node))
        if done is not None:
            return done
        children = [transform(child) for child in node.children()]
        if children == node.children():
            rebuilt = node
        else:
            rebuilt = node.with_children(children)
        if isinstance(rebuilt, UnionOp):
            rebuilt = _order_and_prune(rebuilt, stats, est_memo,
                                       plan_key, ordinal, metrics)
        memo[id(node)] = rebuilt
        return rebuilt

    rebuilt = transform(plan)
    annotate_estimates(rebuilt, stats, est_memo)
    return rebuilt


def _zero_evidence(branch: Operator,
                   stats: Any) -> tuple[str, Any] | None:
    """Provable-emptiness evidence for one union branch, or ``None``.

    A branch gated by an ``oid_only`` ``contains`` select whose
    pattern has a posting-size upper bound of **zero** cannot yield a
    row — the runtime probe would prune it anyway, but statically
    removing it skips the probe and the branch setup entirely.  The
    returned ``("empty_candidates", pattern)`` pair is what the
    verifier's ``PC-COST`` check re-validates against the same
    statistics snapshot.
    """
    for select in gating_index_filters(branch):
        if stats.candidate_upper_bound(select.pattern) == 0:
            return ("empty_candidates", select.pattern)
    return None


def _order_and_prune(union: UnionOp, stats: Any, est_memo: dict,
                     plan_key: object, ordinal: list,
                     metrics: object) -> UnionOp:
    """Reorder a union's branches cheapest-first and drop branches with
    zero evidence, attaching the :class:`~repro.stats.CostEvidence`
    audit record the verifier re-checks."""
    from repro.stats.cost import estimate
    from repro.stats.statistics import CostEvidence

    branches = union.branches
    original = len(branches)
    this_ordinal = ordinal[0]
    ordinal[0] += 1
    pruned: dict[int, tuple[str, Any]] = {}
    kept: list[int] = []
    for index, branch in enumerate(branches):
        evidence = _zero_evidence(branch, stats)
        if evidence is not None:
            pruned[index] = evidence
        else:
            kept.append(index)
    if not kept:
        # a union of zero plans is malformed; keep the first branch —
        # its runtime probe prunes it at negligible cost
        first = min(pruned)
        del pruned[first]
        kept.append(first)

    def sort_key(index: int) -> tuple:
        est = estimate(branches[index], stats, est_memo)
        cost = est.cost
        actual = (stats.branch_actual(plan_key, this_ordinal, index)
                  if plan_key is not None else None)
        if actual is not None:
            # measured reality outranks the model: rescale the cost by
            # the observed-vs-estimated cardinality ratio, so branches
            # that came back empty probe first
            cost *= (actual + 1.0) / (est.rows + 1.0)
        return (cost, index)

    order = tuple(sorted(kept, key=sort_key))
    if _TEST_MUTATION == "branch_order_scrambled" and len(order) > 1:
        # seeded bug: duplicate the first branch, drop the last — the
        # evidence is no longer a permutation of the kept branches
        order = (order[0],) + order[:-1]
    if _TEST_MUTATION == "prune_nonempty_branch" and len(order) > 1:
        # seeded bug: prune a branch without zero evidence
        pruned[order[-1]] = ("mutation", None)
        order = order[:-1]
    if metrics is not None and pruned:
        statically = sum(1 for kind, _ in pruned.values()
                         if kind == "empty_candidates")
        if statically:
            metrics.inc("algebra.branches_pruned_static", statically)
    if (not pruned and order == tuple(range(original))
            and original < 2):
        return union  # single-branch union: nothing to decide or audit
    rebuilt = UnionOp([branches[index] for index in order])
    rebuilt.cost_evidence = CostEvidence(original, order, pruned,
                                         stats.generation,
                                         ordinal=this_ordinal)
    return rebuilt
