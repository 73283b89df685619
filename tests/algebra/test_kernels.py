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
from repro.calculus.evaluator import EvalContext, evaluate_query
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
from repro.oodb.values import NIL, ListValue, Oid, TupleValue
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
