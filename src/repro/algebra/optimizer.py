"""Plan rewriting (the Section 4.1 / 6 "optimization is crucial" hook).

:func:`optimize` runs two rewrites, in this order:

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

Two things that look like rewrites are not stages.  The interval join
(experiment P9) is built by the compiler, next to the fused attribute
scan: a bound variable directly after a structural scan compiles to
one :class:`~repro.algebra.operators.IntervalJoinOp`.  Full-text index
utilisation (Section 4.1) is a ``contains(X, <constant pattern>)``
:class:`SelectOp`: its kernel reads the probed key set, and the
compiler flags it ``oid_only`` when an empty key set proves it passes
nothing — which lets a :class:`UnionOp` skip that branch at run time
(``algebra.branches_pruned``; experiments P1 and P12).

None of the rewrites knows how to rebuild or hash an operator class:
nodes are reconstructed with
:meth:`~repro.algebra.operators.Operator.with_children` (through the
constructor, so memoized probes never travel onto a rewritten node)
and the factoring keys on
:meth:`~repro.algebra.operators.Operator.param_key`.  The ``isinstance``
tests left in this module choose *which* nodes a rewrite applies to.
"""

from __future__ import annotations

import warnings
from collections import Counter
from typing import Any, Callable

from repro.algebra.operators import (
    BindOp,
    IntervalJoinOp,
    MakePathOp,
    Operator,
    SeedOp,
    SelectOp,
    SharedOp,
    StepOp,
    StructuralScanOp,
    UnionOp,
    UnnestOp,
    walk_once,
)


#: Test-only corruption switch for the plancheck mutation test: set to
#: ``"pushdown_unguarded"`` (the pushdown ignores its producer guard)
#: to seed a broken rewrite the verifier must catch.  Production value
#: is ``None``; never set it outside tests.
_TEST_MUTATION: str | None = None


def optimize(plan: Operator, verify: str = "warn", query: object = None,
             metrics: object = None, tracer: Any = None, *,
             # inert: the e2e benchmark harness still passes these;
             # ROADMAP item 11 deletes them
             structural: object = None, stats: object = None,
             plan_key: object = None) -> Operator:
    """Return a rewritten plan.  The input's structure is not mutated;
    a stage that changes nothing returns its input, so the result
    shares every node no rewrite touched with the input.

    The stage sequence is fixed: :func:`sink_selections`, then
    :func:`factor_shared_prefixes`.  Each stage is a public function of
    one plan; a test or ablation that isolates one rewrite calls that
    function.

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
    from repro.observe.trace import NULL_TRACER
    from repro.plancheck.diagnostics import PlanVerificationWarning
    from repro.plancheck.verifier import check_plan, verify_plan
    if tracer is None:
        tracer = NULL_TRACER

    def verified(candidate: Operator, name: str, author: str,
                 fallback: str) -> bool:
        if verify == "raise":
            check_plan(candidate, query=query, stage=name,
                       metrics=metrics)
            return True
        faults = verify_plan(candidate, query=query, stage=name,
                             metrics=metrics)
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
    for name, stage in (("pushdown", sink_selections),
                        ("factor", factor_shared_prefixes)):
        with tracer.span(f"optimize.{name}"):
            rewritten = stage(plan)
        if rewritten is not plan and verified(
                rewritten, name, f"optimizer stage {name!r}",
                "keeping the pre-stage plan"):
            plan = rewritten
    return plan


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
