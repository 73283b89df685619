"""A specialised column kernel equals the generic one.

:mod:`repro.algebra.kernels` answers a term or atom without the
calculus interpreter when its shape allows (an attribute path from a
variable; ``contains`` with a constant pattern).  The interpreter is
the semantics, so for every operator that owns a kernel in the plans a
store serves, what the chosen kernel returns over the operator's real
input must equal — element for element, ``MISSING`` holes included —
what the generic kernel (``envs()`` + ``eval_term``/``satisfy``)
returns over the same batch.

The ``contains`` kernel reads the text index, and an index answers for
the text that was *indexed*; ROADMAP item 3 records that ``text()``
itself depends on the store's history.  So everything runs on three
stores with the same documents: fresh, after ``save``/``load``, and
after an ``update_text`` of an unrelated title (which switches
``text()`` to the structural strategy under every indexed object).
The kernel may trust the probe only for keys whose indexed text is
current (:meth:`TextIndex.current`); equality with the generic kernel
on all three stores is what shows it does.
"""

import json
from pathlib import Path as FilePath

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import DocumentStore
from repro.algebra import kernels
from repro.algebra.batch import MISSING, Batch
from repro.algebra.kernels import atom_kernel, term_kernel
from repro.algebra.operators import (
    BindOp,
    SelectOp,
    UnnestOp,
    walk_once,
)
from repro.calculus.evaluator import (
    EvalContext,
    _select_attribute,
    eval_term,
    evaluate_query,
)
from repro.calculus.formulas import Pred
from repro.calculus.functions import default_registry
from repro.calculus.terms import (
    Const,
    DataVar,
    Name,
    PathApply,
    PathTerm,
    Sel,
)
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.corpus.generator import generate_corpus
from repro.diffcheck.generator import QueryGenerator
from repro.oodb import STRING, schema_from_classes, tuple_of
from repro.oodb.instance import Instance
from repro.errors import InstanceError
from repro.observe import MetricsRegistry
from repro.oodb.values import (
    NIL,
    ListValue,
    Oid,
    SetValue,
    TupleValue,
    UnionValue,
)
from repro.text import Pattern, TextIndex
from repro.text.patterns import AndExpr, NotExpr

SPEC = json.loads((FilePath(__file__).parents[2] / "benchmarks" / "e2e"
                   / "spec.json").read_text())
STATES = ("fresh", "reloaded", "edited")
COLD_LITERALS = (("SGML", "OODBMS"), ("Documents", "Queries"),
                 ("complex", "object"))
#: Queries over objects whose text depends on the store's history: an
#: article's ``status`` attribute value is part of its structural
#: ``text()`` and absent from the loader's source text.
HISTORY_SENSITIVE = (
    'select a from a in Articles where a contains ("final")',
    'select a from a in Articles where a contains ("draft")',
    'select x from a in Articles, a PATH_p(x) where x contains ("final")',
)
FUZZ_SEED = 4242
FUZZ_CASES = 300


def in_state(trees, state: str, folder, named: bool,
             **config) -> DocumentStore:
    """A text-indexed store over ``trees`` in one of the three
    histories — structural unless ``config`` says otherwise."""
    config = config or {"backend": "algebra", "structural": True}
    store = DocumentStore(ARTICLE_DTD, **config)
    if named:
        store.load_text(SAMPLE_ARTICLE, name="my_article")
    for tree in trees:
        store.load_tree(tree, validate=False)
    if state == "reloaded":
        store.save(folder / "snapshot")
        store = DocumentStore.load(folder / "snapshot", **config)
    store.build_text_index()
    if state == "edited":
        titles = sorted(
            store.query("select s.title from a in Articles, "
                        "s in a.sections"),
            key=lambda oid: oid.number)
        store.update_text(titles[-1], "Revised interim heading")
    return store


def kernel_pairs(plan):
    """``(operator, chosen kernel, generic kernel)`` for every operator
    of the plan that owns one."""
    for op in walk_once(plan):
        if isinstance(op, (BindOp, UnnestOp)):
            term = op.term if isinstance(op, BindOp) \
                else op.collection_term
            yield op, term_kernel(term), kernels._generic_term(term, "t")
        elif isinstance(op, SelectOp):
            yield op, atom_kernel(op.atom), \
                kernels._generic_atom(op.atom, "t")


def same(chosen, generic) -> bool:
    return len(chosen) == len(generic) and all(
        (a is MISSING) == (b is MISSING) and (a is MISSING or a == b)
        for a, b in zip(chosen, generic))


def check_plan(store: DocumentStore, plan) -> int:
    """Compare the kernels of one served plan; returns how many."""
    checked = 0
    for op, chosen, generic in kernel_pairs(plan):
        ctx = store._engine.ctx.fork()
        try:
            source = op.child.batch(ctx)
        except Exception:
            continue  # the query fails below this operator in any case
        if source.size:
            assert same(chosen(source, ctx), generic(source, ctx)), \
                op.label()
            checked += 1
    return checked


@pytest.mark.parametrize("state", STATES)
def test_e2e_classes_and_cold_templates(state, tmp_path):
    store = in_state(generate_corpus(40, seed=42), state, tmp_path,
                     named=True)
    texts = list(SPEC["query_classes"].values())
    texts.extend(HISTORY_SENSITIVE)
    for template in SPEC["cold_templates"].values():
        for first, second in COLD_LITERALS:
            texts.append(template.replace(
                "{p}", f'"{first}" and "{second}"'))
            texts.append(template.replace("{p}", f'"{first} {second}"'))
    checked = 0
    for text in texts:
        engine = store._engine
        checked += check_plan(
            store, engine.compile(engine.translate(text)).plan)
    assert checked >= len(texts)


@pytest.mark.parametrize("state", STATES)
def test_generated_queries(state, tmp_path):
    generator = QueryGenerator(FUZZ_SEED)
    stores: dict = {}
    checked = 0
    for index in range(FUZZ_CASES):
        case = generator.case(index)
        store = stores.get(case.corpus)
        if store is None:
            folder = tmp_path / str(len(stores))
            folder.mkdir()
            store = stores[case.corpus] = in_state(
                case.corpus.trees(), state, folder, named=False)
        try:
            plan = store._engine.compile(case.query).plan
        except Exception:
            continue  # rejected queries have no plan to serve
        checked += check_plan(store, plan)
    assert checked > FUZZ_CASES


#: A figure's ``16cm`` is an attribute value: in the structural
#: ``text()`` of every enclosing element, absent from the loader's
#: source text — and from what a fresh store indexed.
STALE_PRUNING = (
    'select x from a in Articles, a PATH_p.sections[i](x) '
    'where x contains ("16cm")',
    'select x from a in Articles, a PATH_p.bodies[i](x) '
    'where x contains ("16cm")',
)
SERVED_CONFIGS = ({"backend": "algebra", "structural": False},
                  {"backend": "algebra"},
                  {"backend": "sql"})


@pytest.mark.parametrize("state", STATES)
def test_pruning_distrusts_a_stale_index(state, tmp_path):
    """An empty key set proves a union branch empty — at run time
    (``algebra.branches_pruned``) or statically
    (``algebra.branches_pruned_static``) — only while the index
    vouches for every key it holds.  After an unrelated edit the
    plain ``algebra`` config used to prune every branch of these two
    queries and answer nothing."""
    answers = []
    for number, config in enumerate(SERVED_CONFIGS):
        folder = tmp_path / str(number)
        folder.mkdir()
        store = in_state(generate_corpus(12, seed=42),
                         state.replace("edited", "fresh"), folder,
                         named=True, **config)
        if state == "edited":
            # a title of ``my_article``: nothing re-indexed for this
            # edit mentions ``16cm``, the probe stays empty
            store.update_text(
                next(oid for oid in store.instance.all_oids()
                     if oid.class_name == "Title"),
                "Edited heading words")
        engine = store._engine
        for text in STALE_PRUNING:
            assert store.query(text) == evaluate_query(
                engine.translate(text), engine.ctx.fork()), (config, text)
        answers.append([len(store.query(text))
                        for text in STALE_PRUNING])
    assert answers[0] == answers[1] == answers[2]
    assert answers[0] == ([0, 0] if state == "fresh" else [7, 8])


def test_a_rebuilt_index_is_probed_again(tmp_path):
    """edit → query → ``build_text_index()`` → query.  The rebuild
    publishes a new index without moving the plan-cache epoch, so the
    cached plans are served again: the keys they probed from the old
    index must not be paired with the new index's ``current()``."""
    store = in_state(generate_corpus(6, seed=42), "edited", tmp_path,
                     named=True)
    texts = list(SPEC["query_classes"].values()) + list(HISTORY_SENSITIVE)
    texts.append('select s from s in my_article.sections '
                 'where my_article contains ("final")')
    engine = store._engine

    def answers():
        return [store.query(text) for text in texts]

    expected = [evaluate_query(engine.translate(text), engine.ctx.fork())
                for text in texts]
    assert any(expected)
    assert answers() == expected
    store.build_text_index()
    store.enable_metrics()
    assert answers() == expected
    # the second round was served from the cache, not recompiled
    assert store.metrics()["counters"]["cache.hits"] == len(texts)


CONTAINS_COUNTERS = ("algebra.contains_index_answered",
                     "algebra.index_pruned", "algebra.contains_rechecks")


def counted(kernel, source, ctx) -> tuple[list[int], list[int]]:
    """The kernel's rows over ``source`` and its three ``contains``
    counters."""
    ctx.metrics = MetricsRegistry()
    try:
        kept = kernel(source, ctx)
        counters = ctx.metrics.snapshot()["counters"]
    finally:
        ctx.metrics = None
    return kept, [counters.get(name, 0) for name in CONTAINS_COUNTERS]


@pytest.mark.parametrize("state", STATES)
def test_the_whole_column_is_the_row_loop(state, tmp_path, monkeypatch):
    """The ``contains`` kernel decides a column whole — two membership
    maps — when the probe is trusted and the index holds every
    subject.  Over the real subject column of every ``contains`` of the
    e2e classes and the history-sensitive queries, its rows and
    counters equal the per-row loop's: the same column followed by a
    string and a hole, which the whole-column path refuses, keeps the
    same rows, answers and prunes, with one more recheck (the
    string)."""
    store = in_state(generate_corpus(40, seed=42), state, tmp_path,
                     named=True)
    whole = []
    compress = kernels.compress
    monkeypatch.setattr(kernels, "compress",
                        lambda *a: whole.append(1) or compress(*a))
    compared = 0
    texts = list(SPEC["query_classes"].values()) + list(HISTORY_SENSITIVE)
    for text in texts:
        engine = store._engine
        plan = engine.compile(engine.translate(text)).plan
        for op in walk_once(plan):
            if not (isinstance(op, SelectOp)
                    and kernels.contains_pattern(op.atom) is not None):
                continue
            ctx = store._engine.ctx.fork()
            subjects = term_kernel(op.atom.arguments[0])(
                op.child.batch(ctx), ctx)
            kernel = atom_kernel(Pred("contains",
                                      [X, op.atom.arguments[1]]))
            column = Batch(len(subjects), {X: subjects})
            extended = Batch(len(subjects) + 2, {
                X: subjects + ["no such words here", MISSING]})
            kept, counters = counted(kernel, column, ctx)
            taken = len(whole)
            looped, loop_counters = counted(kernel, extended, ctx)
            assert len(whole) == taken  # the string sends it to the loop
            assert looped == kept, text
            assert loop_counters == [counters[0], counters[1],
                                     counters[2] + 1], text
            compared += 1
    assert compared >= 3
    # a fresh or reloaded index vouches for every key: the whole
    # column is decided at least for the pure-oid subjects
    assert bool(whole) == (state != "edited")


# -- hand-built rows --------------------------------------------------------


def small_instance():
    """Two classes: ``Leaf`` objects carry text; ``Link`` objects only
    point on (a dereference chain as long as one likes)."""
    schema = schema_from_classes(
        {"Leaf": tuple_of(("title", STRING)),
         "Link": tuple_of(("title", STRING))}, roots={})
    return Instance(schema)


def context(instance, index_texts=None) -> EvalContext:
    ctx = EvalContext(instance)
    if index_texts is not None:
        ctx.text_index = TextIndex()
        for key, text in index_texts.items():
            ctx.text_index.add(key, text)
    return ctx


X = DataVar("x")
TITLE_OF_X = PathApply(X, PathTerm([Sel("title")]))


def both_terms(term, column, ctx):
    source = Batch(len(column), {X: column})
    chosen = term_kernel(term)(source, ctx)
    assert same(chosen, kernels._generic_term(term, "t")(source, ctx))
    return chosen


def both_atoms(atom, column, ctx):
    source = Batch(len(column), {X: column})
    chosen = atom_kernel(atom)(source, ctx)
    assert chosen == kernels._generic_atom(atom, "t")(source, ctx)
    return chosen


class TestAttributePath:
    def test_wrong_branch_is_missing(self):
        ctx = context(small_instance())
        column = [TupleValue([("title", "kept")]),
                  TupleValue([("caption", "no title here")]),
                  "a string has no attributes", MISSING]
        assert both_terms(TITLE_OF_X, column, ctx) == [
            "kept", MISSING, MISSING, MISSING]

    def test_marked_union_payload_attribute(self):
        ctx = context(small_instance())
        marked = TupleValue([("a1", TupleValue([("title", "inside")]))])
        assert marked.is_marked
        assert both_terms(TITLE_OF_X, [marked], ctx) == ["inside"]

    def test_deref_chain_deeper_than_the_limit(self):
        instance = small_instance()
        link = instance.new_object(
            "Leaf", TupleValue([("title", "end")]))
        chain = [link]
        for _ in range(20):
            link = instance.new_object("Link", TupleValue(
                [("title", "skipped")]))
            chain.append(link)
        # objects whose *value* is the next oid: 17+ hops raise inside
        # _auto_deref, which both kernels turn into MISSING
        for here, there in zip(chain[1:], chain):
            instance._values[here.number] = there
        ctx = context(instance)
        assert both_terms(TITLE_OF_X, [chain[3], chain[20]], ctx) == [
            "end", MISSING]

    def test_a_missing_root_on_every_step(self):
        ctx = context(small_instance())
        two_steps = PathApply(X, PathTerm([Sel("title"), Sel("text")]))
        for term in (TITLE_OF_X, two_steps):
            assert both_terms(term, [MISSING, MISSING], ctx) == [
                MISSING, MISSING]

    def test_bases_that_are_no_tuples(self):
        instance = small_instance()
        texty = instance.new_object("Leaf", TupleValue([("title", "t")]))
        instance._values[texty.number] = "a string behind an oid"
        ctx = context(instance)
        column = ["a string", 7, 2.5, True, NIL, ListValue(["title"]),
                  SetValue([TupleValue([("title", "in a set")])]),
                  UnionValue("a1", "a payload that is no tuple"),
                  UnionValue("a1", ListValue([TupleValue(
                      [("title", "in a list")])])),
                  texty]
        assert both_terms(TITLE_OF_X, column, ctx) == [MISSING] * len(
            column)

    def test_attribute_on_the_tuple_and_its_payload(self):
        ctx = context(small_instance())
        inner = TupleValue([("title", "inner")])
        column = [UnionValue("title", inner),
                  TupleValue([("title", "outer"), ("b", inner)])]
        assert both_terms(TITLE_OF_X, column, ctx) == [inner, "outer"]
        twice = PathApply(X, PathTerm([Sel("title"), Sel("title")]))
        assert both_terms(twice, column, ctx) == ["inner", MISSING]

    def test_steps_dereference_in_between(self):
        instance = small_instance()
        leaf = instance.new_object("Leaf", TupleValue([("title", "end")]))
        holder = instance.new_object("Link", TupleValue([("title", leaf)]))
        ctx = context(instance)
        twice = PathApply(X, PathTerm([Sel("title"), Sel("title")]))
        assert both_terms(twice, [holder, leaf, UnionValue(
            "a1", TupleValue([("title", holder)]))], ctx) == [
            "end", MISSING, leaf]

    def test_derefs_are_counted_alike(self):
        """16 dereferences in one step are allowed, the 17th makes the
        row ``MISSING``; both kernels make the same ``Instance.deref``
        calls."""
        instance = small_instance()
        link = instance.new_object("Leaf", TupleValue([("title", "end")]))
        chain = [link]
        for _ in range(20):
            link = instance.new_object("Link", TupleValue(
                [("title", "skipped")]))
            instance._values[link.number] = chain[-1]
            chain.append(link)
        column = [chain[0], chain[15], chain[16], chain[20], "text"]
        counted = []
        for kernel in (term_kernel(TITLE_OF_X),
                       kernels._generic_term(TITLE_OF_X, "t")):
            metrics = MetricsRegistry()
            instance.metrics = metrics
            values = kernel(Batch(len(column), {X: column}),
                            context(instance))
            assert values == ["end", "end", MISSING, MISSING, MISSING]
            counted.append(metrics.get("oodb.derefs"))
        instance.metrics = None
        assert counted[0] == counted[1] == 1 + 16 + 17 + 17

    def test_a_dangling_oid_raises_what_eval_term_raises(self):
        instance = small_instance()
        gone = Oid(999, "Leaf")
        ctx = context(instance)
        with pytest.raises(Exception) as interpreted:
            eval_term(TITLE_OF_X, {X: gone}, ctx)
        for kernel in (term_kernel(TITLE_OF_X),
                       kernels._generic_term(TITLE_OF_X, "t")):
            with pytest.raises(type(interpreted.value)):
                kernel(Batch(1, {X: [gone]}), ctx)
        assert isinstance(interpreted.value, InstanceError)

    def test_a_name_root_stays_generic(self):
        term = PathApply(Name("Root"), PathTerm([Sel("title")]))
        metrics_seen = []

        class Metrics:
            def inc(self, name, amount=1):
                metrics_seen.append(name)

        instance = small_instance()
        instance.schema.roots["Root"] = tuple_of(("title", STRING))
        instance.set_root("Root", TupleValue([("title", "rooted")]))
        ctx = context(instance)
        ctx.metrics = Metrics()
        assert term_kernel(term)(Batch(2, {}), ctx) == ["rooted"] * 2
        assert metrics_seen == ["algebra.kernel_generic.name_root"]


def select_attribute_before(base, attribute):
    """The attribute-selection rule as the interpreter spelt it before
    :meth:`TupleValue.select` existed — the reference the one rule is
    held to."""
    if not isinstance(base, TupleValue):
        return []
    if base.has_attribute(attribute):
        return [base.get(attribute)]
    if base.is_marked and isinstance(base.marked_value, TupleValue):
        payload = base.marked_value
        if payload.has_attribute(attribute):
            return [payload.get(attribute)]
    return []


NAMES = st.sampled_from(["a", "b", "title", "a1"])
SELECTABLE = st.recursive(
    st.one_of(st.just(NIL), st.integers(), st.text(max_size=3),
              st.builds(Oid, st.integers(1, 9), st.just("Leaf"))),
    lambda children: st.one_of(
        st.builds(TupleValue, st.lists(st.tuples(NAMES, children),
                                       max_size=3,
                                       unique_by=lambda pair: pair[0])),
        st.builds(UnionValue, NAMES, children),
        st.builds(ListValue, st.lists(children, max_size=2))),
    max_leaves=8)


class TestOneSelectionRule:
    @given(SELECTABLE, NAMES)
    def test_select_is_the_rule_it_replaced(self, value, name):
        expected = select_attribute_before(value, name)
        assert _select_attribute(value, name) == expected
        if isinstance(value, TupleValue):
            selected = value.select(name, MISSING)
            assert ([] if selected is MISSING else [selected]) == \
                expected
            names = value.selectable_names()
            assert len(set(names)) == len(names)
            assert [n for n in names if select_attribute_before(
                value, n)] == names

    @given(SELECTABLE, NAMES, NAMES)
    def test_the_fold_is_the_generic_kernel(self, value, first, second):
        # the generated oids o1..o9 exist: a title, a marked payload, a
        # link on to the next object
        instance = small_instance()
        for number in range(1, 10):
            instance.new_object("Leaf", [
                TupleValue([("title", f"leaf {number}")]),
                UnionValue("a1", TupleValue([("a", number)])),
                TupleValue([("b", Oid(number % 9 + 1, "Leaf"))]),
            ][number % 3])
        ctx = context(instance)
        for names in ([first], [first, second]):
            term = PathApply(X, PathTerm([Sel(name) for name in names]))
            both_terms(term, [value, MISSING], ctx)


class TestContains:
    SGML = Pred("contains", [X, Const(Pattern("SGML"))])

    def objects(self, instance):
        return [instance.new_object("Leaf", TupleValue([("title", text)]))
                for text in ("about SGML", "about paths", "SGML (again)")]

    def test_string_nil_and_values(self):
        ctx = context(small_instance(), index_texts={})
        column = ["plain SGML text", "nothing", NIL, 7, MISSING,
                  ListValue(["nested", "SGML"]),
                  TupleValue([("title", "SGML")])]
        assert both_atoms(self.SGML, column, ctx) == [0, 5, 6]

    def test_oids_are_answered_by_the_probe(self):
        instance = small_instance()
        oids = self.objects(instance)
        ctx = context(instance, {
            oid: instance.deref(oid).get("title") for oid in oids})
        asked = []
        original = instance.deref
        instance.deref = lambda oid: asked.append(oid) or original(oid)
        source = Batch(3, {X: oids})
        assert atom_kernel(self.SGML)(source, ctx) == [0, 2]
        assert asked == []  # no text() was rebuilt
        instance.deref = original
        assert both_atoms(self.SGML, oids, ctx) == [0, 2]

    def test_an_unindexed_oid_is_read(self):
        instance = small_instance()
        oids = self.objects(instance)
        # the index has never seen the third object
        ctx = context(instance, {
            oid: instance.deref(oid).get("title") for oid in oids[:2]})
        assert both_atoms(self.SGML, oids, ctx) == [0, 2]

    def test_a_stale_key_is_read(self):
        instance = small_instance()
        oids = self.objects(instance)
        ctx = context(instance, {oids[0]: "about SGML",
                                 oids[1]: "used to say SGML",
                                 oids[2]: "nothing then"})
        assert atom_kernel(self.SGML)(
            Batch(3, {X: oids}), ctx) == [0, 1]  # the index, trusted
        ctx.text_index.mark_stale()
        assert both_atoms(self.SGML, oids, ctx) == [0, 2]
        ctx.text_index.replace(oids[1], "about paths")
        assert oids[1] in ctx.text_index.current()
        assert oids[0] not in ctx.text_index.current()
        assert both_atoms(self.SGML, oids, ctx) == [0, 2]

    def test_a_mixed_column_is_counted_row_by_row(self):
        instance = small_instance()
        oids = self.objects(instance)
        # the index has never seen the third object
        ctx = context(instance, {
            oid: instance.deref(oid).get("title") for oid in oids[:2]})
        kernel = atom_kernel(self.SGML)
        column = [oids[0], "plain SGML text", MISSING, oids[1], oids[2],
                  "nothing"]
        assert both_atoms(self.SGML, column, ctx) == [0, 1, 4]
        # answered: the two indexed oids; pruned: the unlisted one;
        # rechecked: the unindexed oid and the two strings
        assert counted(kernel, Batch(6, {X: column}), ctx) == (
            [0, 1, 4], [2, 1, 3])
        # the indexed oids alone are decided whole, counted alike
        assert counted(kernel, Batch(2, {X: oids[:2]}), ctx) == (
            [0], [2, 1, 0])
        ctx.text_index.mark_stale()
        assert counted(kernel, Batch(2, {X: oids[:2]}), ctx) == (
            [0], [0, 0, 2])

    def test_an_inexact_probe_masks_then_rechecks(self):
        instance = small_instance()
        oids = self.objects(instance)
        ctx = context(instance, {
            oid: instance.deref(oid).get("title") for oid in oids})
        atom = Pred("contains", [X, Const(AndExpr(
            Pattern("SGML"), NotExpr(Pattern("again"))))])
        assert ctx.text_index.probe(atom.arguments[1].value)[1] is False
        assert both_atoms(atom, oids, ctx) == [0]

    def test_no_text_index(self):
        instance = small_instance()
        oids = self.objects(instance)
        assert both_atoms(self.SGML, oids + ["SGML"],
                          context(instance)) == [0, 2, 3]

    def test_an_overriding_registry_is_honoured(self):
        instance = small_instance()
        oids = self.objects(instance)
        ctx = context(instance, {
            oid: instance.deref(oid).get("title") for oid in oids})
        ctx.registry = default_registry()
        # a `contains` that is not the built-in one: case-insensitive
        # substring search over the object's title
        ctx.registry.register_predicate(
            "contains",
            lambda ctx, value, pattern: isinstance(value, Oid)
            and "path" in ctx.instance.deref(value).get("title"))
        assert both_atoms(self.SGML, oids, ctx) == [1]

    def test_the_probe_is_issued_once_per_kernel(self):
        instance = small_instance()
        oids = self.objects(instance)
        ctx = context(instance, {
            oid: instance.deref(oid).get("title") for oid in oids})
        probes = []
        probe = ctx.text_index.probe
        ctx.text_index.probe = lambda e: probes.append(e) or probe(e)
        kernel = atom_kernel(self.SGML)
        for _ in range(3):
            assert kernel(Batch(3, {X: oids}), ctx) == [0, 2]
        assert len(probes) == 1

    def test_another_index_is_probed_afresh(self):
        instance = small_instance()
        oids = self.objects(instance)
        ctx = context(instance, {oid: "nothing yet" for oid in oids})
        kernel = atom_kernel(self.SGML)
        source = Batch(3, {X: oids})
        assert kernel(source, ctx) == []  # the index, trusted
        rebuilt = context(instance, {
            oid: instance.deref(oid).get("title") for oid in oids})
        assert kernel(source, rebuilt) == [0, 2]
        assert kernel(source, ctx) == []
