"""The operator self-description protocol.

Every :class:`~repro.algebra.operators.Operator` declares its non-child
constructor parameters (``params``) and renders its own line
(``label()``); the base class derives ``children()``,
``with_children()``, ``param_key()`` and ``describe()`` from them, and
``walk_once`` is the one DAG walk.  These tests pin

* the protocol on *every* concrete operator class (found by walking
  ``__subclasses__()``, so a new operator is covered the day it is
  added),
* that the derived factoring hash partitions plans exactly like the
  per-class ladder it replaced (kept here as the reference), on the
  plans of all seven diffcheck configurations,
* that plan rendering asks each operator for its label once and never
  renders a subtree to get it.
"""

from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.sqlbackend.backend  # noqa: F401  (registers _SQLRowsOp)
from repro import DocumentStore
from repro.algebra.compile import compile_query
from repro.algebra.execute import count_shared, plan_size
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
from repro.algebra.optimizer import (
    factor_shared_prefixes,
    optimize,
    sink_selections,
)
from repro.calculus.formulas import Pred
from repro.calculus.terms import Const, DataVar
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.diffcheck.generator import QueryGenerator
from repro.errors import CompilationError
from repro.observe.report import plan_tree
from repro.text import Pattern


def operator_classes() -> list[type]:
    found, stack = [], [Operator]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("repro."):
                found.append(cls)
    return found


#: Constructor arguments that must be more than an opaque object.
SAMPLES = {
    "mode": "collection",
    "kind": "attr",
    "argument": "title",
    "template": [("attr", "title"), ("deref",)],
    "head": [DataVar("h")],
    "attr": "title",
    "atom": Pred("contains", [DataVar("x"), Const(Pattern("SGML"))]),
    "oid_only": True,
    "ref_count": 2,
    "shared_id": 1,
    "program": SimpleNamespace(columns={DataVar("c"): None}),
}

#: A different value for each of the above (anything else: a fresh,
#: equal-looking variable — identity is what must tell them apart).
ALTERNATES = {
    "mode": "set",
    "kind": "index",
    "argument": "body",
    "head": [DataVar("h")],
    "attr": "body",
    "oid_only": False,
    "ref_count": 3,
    "shared_id": 2,
}

#: Everything a node memoizes after construction; a rebuild through
#: the constructor must leave all of it behind.
ANNOTATIONS = ("_kernel",)


def sample(cls: type, changed: str | None = None) -> Operator:
    """An instance over seed inputs — the same parameter objects on
    every call, except ``changed``, which gets a different value."""
    inputs = {"child": [SeedOp()], "branches": [[SeedOp(), SeedOp()]],
              None: []}[cls._input]
    values = {name: SAMPLES.setdefault(name, DataVar(name))
              for name in cls.params}
    if changed is not None:
        values[changed] = ALTERNATES.get(changed, DataVar(changed))
    return cls(*inputs, *values.values())


class TestEveryOperator:
    def test_the_walk_finds_the_whole_algebra(self):
        names = {cls.__name__ for cls in operator_classes()}
        assert {"SeedOp", "UnionOp", "SharedOp", "ProjectOp",
                "StructuralAttrScanOp", "_SQLRowsOp"} <= names
        assert len(names) >= 15

    @pytest.mark.parametrize("cls", operator_classes(),
                             ids=lambda cls: cls.__name__)
    def test_rebuild_through_the_constructor(self, cls):
        op = sample(cls)
        for name in ANNOTATIONS:
            setattr(op, name, object())
        if isinstance(op, UnionOp):
            op._branch_probes = [[], []]
        rebuilt = op.with_children(op.children())
        assert type(rebuilt) is cls
        assert rebuilt.describe() == op.describe()
        assert rebuilt.describe().split("\n")[0] == op.label()
        if not op.children():
            assert rebuilt is op  # a leaf has nothing to rebuild
            return
        assert rebuilt is not op
        assert [id(c) for c in rebuilt.children()] == \
            [id(c) for c in op.children()]
        if not isinstance(op, SharedOp):  # shared nodes never merge
            assert rebuilt.param_key() == op.param_key()
        assert not set(ANNOTATIONS) & set(vars(rebuilt))
        assert getattr(rebuilt, "_branch_probes", None) is None
        if isinstance(op, SelectOp):  # its own probe memo
            assert rebuilt.probe is not op.probe

    @pytest.mark.parametrize("cls", operator_classes(),
                             ids=lambda cls: cls.__name__)
    def test_every_parameter_reaches_the_hash(self, cls):
        op = sample(cls)
        if cls is not SharedOp:
            assert sample(cls).param_key() == op.param_key()
        for name in cls.params:
            assert sample(cls, changed=name).param_key() != \
                op.param_key(), name

    def test_projection_carries_its_var_types(self):
        project = sample(ProjectOp)
        project.var_types = {DataVar("h"): []}
        rebuilt = project.with_children([SeedOp()])
        assert rebuilt.var_types is project.var_types

    def test_scalars_hash_by_value(self):
        x, seed = DataVar("x"), SeedOp()
        title, equal = "title", "".join(["ti", "tle"])
        assert equal is not title
        assert StepOp(seed, x, "attr", equal, x).param_key() == \
            StepOp(seed, x, "attr", title, x).param_key()

    def test_shared_nodes_never_merge(self):
        seed = SeedOp()
        assert SharedOp(seed, 2, 1).param_key() != \
            SharedOp(seed, 2, 1).param_key()

    def test_declaration_must_match_the_constructor(self):
        with pytest.raises(TypeError, match="does not match"):
            class Forgetful(Operator):
                params = ("variable",)

                def __init__(self, child, variable, extra):
                    pass

        with pytest.raises(TypeError, match="does not match"):
            class Undeclared(Operator):
                def __init__(self, child, variable):
                    pass


# -- the factoring hash against the ladder it replaced ----------------------


def reference_params(node: Operator) -> tuple:
    """A hand-written per-class parameter ladder — the reference the
    derived ``param_key()`` must partition plans like."""
    if isinstance(node, BindOp):
        return (id(node.variable), id(node.term))
    if isinstance(node, UnnestOp):
        return (id(node.collection_term), id(node.element_var),
                id(node.index_var), node.mode)
    if isinstance(node, StepOp):
        argument = (node.argument
                    if isinstance(node.argument, (str, int))
                    or node.argument is None else id(node.argument))
        return (id(node.source_var), node.kind, argument,
                id(node.out_var))
    if isinstance(node, MakePathOp):
        return (id(node.template), id(node.out_var))
    if isinstance(node, SelectOp):
        return (id(node.atom), node.oid_only)
    if isinstance(node, (NegationOp, FormulaOp)):
        return (id(node.formula),)
    if isinstance(node, StructuralAttrScanOp):
        return (id(node.source_var), id(node.path_var),
                id(node.out_var), node.attr,
                None if node.attr_var is None else id(node.attr_var),
                id(node.value_var))
    if isinstance(node, StructuralScanOp):
        return (id(node.source_var), id(node.path_var), id(node.out_var))
    if isinstance(node, IntervalJoinOp):
        return (id(node.source_var), id(node.path_var), id(node.out_var),
                id(node.probe_var), id(node.recheck_atom))
    if isinstance(node, ProjectOp):
        return tuple(id(variable) for variable in node.head)
    if isinstance(node, (UnionOp, SeedOp)):
        return ()
    return (id(node),)


def tree_size(plan: Operator) -> int:
    """Operators of ``plan`` expanded as a tree: a subplan counts once
    per consumer, as it runs when no :class:`SharedOp` replays it."""
    sizes: dict[int, int] = {}

    def size(node: Operator) -> int:
        if id(node) not in sizes:
            sizes[id(node)] = 1 + sum(size(child)
                                      for child in node.children())
        return sizes[id(node)]

    return size(plan)


def reference_factored_counts(plan: Operator) -> tuple[int, int]:
    """``(plan_size, count_shared)`` the factoring must produce, worked
    out from the reference ladder: one node per structural class, plus
    one SharedOp per shareable class consumed at least twice."""
    interned: dict[tuple, int] = {}
    key_of: dict[int, int] = {}
    canonical: dict[int, Operator] = {}

    def intern(node: Operator) -> int:
        if id(node) not in key_of:
            raw = (type(node).__name__, reference_params(node),
                   tuple(intern(child) for child in node.children()))
            key = interned.setdefault(raw, len(interned))
            key_of[id(node)] = key
            canonical.setdefault(key, node)
        return key_of[id(node)]

    intern(plan)
    consumers = Counter(key_of[id(child)]
                        for node in canonical.values()
                        for child in node.children())
    wrappers = sum(
        1 for key, count in consumers.items() if count >= 2
        and not isinstance(canonical[key], (SeedOp, SharedOp)))
    already_shared = sum(isinstance(node, SharedOp)
                         for node in canonical.values())
    return len(canonical) + wrappers, wrappers + already_shared


@pytest.fixture(scope="module")
def store():
    s = DocumentStore(ARTICLE_DTD, backend="algebra")
    s.load_text(SAMPLE_ARTICLE, name="my_article")
    return s


def prefactoring_plans(plan: Operator,
                       scans: Operator) -> dict[str, Operator]:
    """The plans the factoring stage is handed — the pushed-down shape
    of the union-of-plans ``plan`` and of the structural compilation
    ``scans`` — plus the raw union-of-plans (factoring it too covers the
    un-rewritten shape)."""
    return {"raw": plan,
            "rewritten": sink_selections(plan),
            "structural": sink_selections(scans)}


class TestFactoringHash:
    @given(seed=st.integers(0, 10_000), index=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    def test_same_merges_as_the_reference_ladder(self, store, seed,
                                                 index):
        query = QueryGenerator(seed).case(index).query
        try:
            plan = compile_query(query, store.schema, structural=False)
            scans = compile_query(query, store.schema)
        except CompilationError:
            assume(False)
        for config, before in prefactoring_plans(plan, scans).items():
            factored = factor_shared_prefixes(before)
            assert (plan_size(factored), count_shared(factored)) == \
                reference_factored_counts(before), config

    #: Operator counts (EXPERIMENTS P7/P9): ``(pushed down, factored,
    #: shared)`` of the ``structural=False`` union-of-plans, then the
    #: size of the default structural plan.  The pushed-down plan keeps
    #: the compiler's trie sharing wherever the pushdown fires nowhere
    #: (Q3: nowhere, so it is the compiler's plan itself).
    GOLDENS = {
        "select t from my_article PATH_p.title(t)": (85, 96, 11, 5),
        'select name(ATT_a) from my_article PATH_p.ATT_a(val) '
        'where val contains ("final")': (1145, 1223, 78, 7),
        'select t from a in Articles, s in a.sections, '
        'a PATH_p.title(t) where a.status = "final"': (196, 99, 11, 8),
    }

    @pytest.mark.parametrize("text", GOLDENS, ids=["Q3", "Q5", "deep_join"])
    def test_golden_operator_counts(self, store, text):
        query = store._engine.translate(text)
        plan = compile_query(query, store.schema, structural=False)
        pushed = sink_selections(plan)
        factored = optimize(plan)
        structural = optimize(compile_query(query, store.schema))
        assert (plan_size(pushed),
                plan_size(factored), count_shared(factored),
                plan_size(structural)) == self.GOLDENS[text]
        assert count_shared(structural) == 0
        # factoring runs every subplan once: fewer operators than the
        # pushed-down plan runs, expanded as a tree
        assert plan_size(factored) < tree_size(pushed)


# -- rendering --------------------------------------------------------------


class TestRendering:
    def test_plan_tree_labels_each_operator_once(self, store,
                                                 monkeypatch):
        text = ('select name(ATT_a) from my_article PATH_p.ATT_a(val) '
                'where val contains ("final")')
        plan = optimize(compile_query(store._engine.translate(text),
                                      store.schema, structural=False))
        labelled: Counter = Counter()

        def counting(label):
            def wrapper(self):
                labelled[id(self)] += 1
                return label(self)
            return wrapper

        for cls in [Operator] + operator_classes():
            if "label" in vars(cls):
                monkeypatch.setattr(cls, "label", counting(cls.label))

        def refuse(self, indent=0):
            raise AssertionError("plan_tree rendered a subtree")

        monkeypatch.setattr(Operator, "describe", refuse)
        tree = plan_tree(plan)
        nodes = list(walk_once(plan))
        assert len(nodes) == 1223
        assert labelled == Counter({id(node): 1 for node in nodes})
        assert tree["label"].startswith("Project [")
