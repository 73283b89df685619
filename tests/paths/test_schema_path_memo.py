"""The schema-path memo on the class hierarchy answers what a fresh
walk does.

:func:`enumerate_schema_paths` and :func:`schema_path_targets` are
memoized per start type on ``schema.hierarchy``: the walk depends on the
hierarchy alone, which nothing mutates after construction — not on the
persistence roots (``define_name`` and ``DocumentStore.load`` add
those) and not on the data.  Checked here:

* the memo equals a fresh :func:`_walk`, step for step and in order;
* inference and the compiled plans of the e2e query classes and cold
  templates are the same on a fresh hierarchy and on one whose memo
  other queries filled;
* a root added after a path query compiled — and one restored by
  ``load`` — answers like the calculus oracle;
* a second cold variant of a template walks the schema zero times;
* threads filling one memo concurrently see the sequential answers.
"""

import json
import sys
import threading
from pathlib import Path as FilePath

import pytest

from repro import DocumentStore
from repro.algebra.operators import walk_once
from repro.calculus.inference import infer_types
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.oodb import STRING, SetValue, c, schema_from_classes, union_of
from repro.oodb.types import ClassType
from repro.paths import enumerate_schema_paths
from repro.paths import schema_paths
from repro.paths.schema_paths import _walk, schema_path_targets
from tests.structindex.test_index import BOOK_DTD, NESTED_BOOK
from tests.test_recursive_documents import BOOK_DTD as RECURSIVE_DTD

SPEC = json.loads((FilePath(__file__).parents[2] / "benchmarks" / "e2e"
                   / "spec.json").read_text())
TEXTS = list(SPEC["query_classes"].values()) + [
    template.format(p='"SGML" and "OODBMS"')
    for template in SPEC["cold_templates"].values()]


def start_types(schema) -> list:
    """Every class, every class structure and every root type."""
    hierarchy = schema.hierarchy
    return ([ClassType(name) for name in hierarchy]
            + [hierarchy.structure(name) for name in hierarchy]
            + list(schema.roots.values()))


def rendered(paths) -> list:
    return [(path.steps, path.target, str(path)) for path in paths]


@pytest.mark.parametrize("dtd, document", [
    (ARTICLE_DTD, SAMPLE_ARTICLE),
    (BOOK_DTD, NESTED_BOOK),
    (RECURSIVE_DTD, None),
], ids=["article", "book", "recursive"])
def test_memo_equals_a_fresh_walk(dtd, document):
    store = DocumentStore(dtd)
    if document is not None:
        store.load_text(document, name="doc")
    schema = store.schema
    for tp in start_types(schema):
        fresh = list(_walk(schema, tp, (), frozenset()))
        first = enumerate_schema_paths(schema, tp)
        first.clear()  # a caller's list is its own
        assert rendered(enumerate_schema_paths(schema, tp)) \
            == rendered(fresh)
        targets = [path.target for path in fresh]
        assert list(schema_path_targets(schema, tp)) == [
            target for position, target in enumerate(targets)
            if target not in targets[:position]]
    assert schema.hierarchy.schema_paths


def test_reordered_unions_keep_their_own_walk():
    # union equality ignores branch order; the walk's order does not
    schema = schema_from_classes({"Leaf": STRING})
    forward = union_of(("a", STRING), ("b", c("Leaf")))
    backward = union_of(("b", c("Leaf")), ("a", STRING))
    assert forward == backward
    for tp in (forward, backward):
        assert rendered(enumerate_schema_paths(schema, tp)) \
            == rendered(_walk(schema, tp, (), frozenset()))
    assert [str(p) for p in enumerate_schema_paths(schema, backward)][1] \
        .startswith(".b")


def article_store(**config) -> DocumentStore:
    store = DocumentStore(ARTICLE_DTD, **config)
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    return store


def compiled(store: DocumentStore, text: str) -> tuple:
    """Inference and the served plan of ``text``, rendered exactly
    (union branch order included)."""
    engine = store._engine
    query = engine.translate(text)
    types = infer_types(query, store.schema)
    plan = engine.compile(query).plan
    return ({str(variable): str(tp) for variable, tp in types.items()},
            [op.label() for op in walk_once(plan)],
            {str(variable): [str(tp) for tp in candidates]
             for variable, candidates in plan.var_types.items()})


@pytest.mark.parametrize("structural", [True, False])
def test_inference_and_plans_do_not_depend_on_the_memo(structural):
    filled = article_store(backend="algebra", structural=structural)
    for text in reversed(TEXTS):
        compiled(filled, text)
    for text in TEXTS:
        fresh = article_store(backend="algebra", structural=structural)
        assert fresh.schema.hierarchy is not filled.schema.hierarchy
        assert not fresh.schema.hierarchy.schema_paths
        assert compiled(fresh, text) == compiled(filled, text), text


NEW_ROOT_QUERIES = (
    "select t from {root} PATH_p.title(t)",
    'select name(ATT_a) from {root} PATH_p.ATT_a(v) '
    'where v contains ("final")',
    "select x from {root} PATH_p(x)",
)


def answers(store: DocumentStore, root: str) -> list:
    return [store.query(text.format(root=root))
            for text in NEW_ROOT_QUERIES]


def test_roots_added_after_a_compile_answer_like_the_oracle(tmp_path):
    stores = {backend: article_store(backend=backend)
              for backend in ("algebra", "calculus")}
    for name, store in stores.items():
        answers(store, "my_article")  # fills the memo
        article = store.instance.root("my_article")
        store.define_name("alias", article)
        store.define_name("sections",
                          store.instance.deref(article).get("sections"))
        store.save(tmp_path / name)
    for root in ("alias", "sections"):
        assert answers(stores["algebra"], root) \
            == answers(stores["calculus"], root), root
    reloaded = {name: DocumentStore.load(tmp_path / name, backend=name)
                for name in stores}
    for store in reloaded.values():
        answers(store, "alias")
        article = store.instance.root("my_article")
        store.define_name("shortlist", SetValue([article]))
    for root in ("my_article", "alias", "sections", "shortlist"):
        assert answers(reloaded["algebra"], root) \
            == answers(reloaded["calculus"], root), root


def test_a_second_cold_variant_walks_the_schema_zero_times(monkeypatch):
    walks = []
    real_walk = schema_paths._walk

    def counted(*args):
        walks.append(args[1])
        return real_walk(*args)

    monkeypatch.setattr(schema_paths, "_walk", counted)
    store = article_store(backend="algebra")
    template = SPEC["cold_templates"]["att_variable"]
    store.query(template.format(p='"SGML" and "OODBMS"'))
    assert walks  # the first variant fills the memo
    walks.clear()
    store.query(template.format(p='"Documents" or "Queries"'))
    assert walks == []


def test_concurrent_fillers_agree():
    # serve workers fill the memo concurrently: every thread must see
    # the answers a sequential compile gives
    reference = compiled(article_store(backend="algebra"), TEXTS[5])
    store = article_store(backend="algebra")
    results, errors = [], []

    def worker():
        try:
            for text in TEXTS:
                compiled(store, text)
            results.append(compiled(store, TEXTS[5]))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert results == [reference] * len(threads)
