"""The path-typing memo on the class hierarchy answers what a fresh
walk does.

``_walk_path_atom`` memoizes the assignments ``_match_types`` finds for
a path predicate on ``schema.hierarchy.path_matches``, keyed by the root
type, its rendering and the path's components: the walk depends on the
hierarchy alone, never on the roots or the data.  Checked here:

* :func:`infer_types` with a memo other queries filled equals its
  result on a fresh hierarchy, over 500 generated cases;
* a path that binds no variable types alike on every walk, and one
  that can never hold is a type error on every walk;
* the candidates a memoized walk records are keyed by the current
  query's own variable objects, not the ones that filled the memo;
* a second cold variant of a template runs ``_match_types`` zero times;
* a shape past the memo's cap is typed afresh, alike;
* threads filling one memo concurrently see the sequential answers.
"""

import json
import sys
import threading
from pathlib import Path as FilePath

from repro import DocumentStore
from repro.calculus import inference
from repro.calculus.inference import infer_types
from repro.calculus.formulas import And, In, PathAtom, Query
from repro.calculus.terms import (
    AttVar,
    DataVar,
    Name,
    PathTerm,
    PathVar,
    Sel,
)
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.diffcheck.generator import QueryGenerator
from repro.errors import QueryTypeError

SPEC = json.loads((FilePath(__file__).parents[2] / "benchmarks" / "e2e"
                   / "spec.json").read_text())
TEXTS = list(SPEC["query_classes"].values()) + [
    template.format(p='"SGML" and "OODBMS"')
    for template in SPEC["cold_templates"].values()]


def article_store() -> DocumentStore:
    store = DocumentStore(ARTICLE_DTD, backend="algebra")
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    return store


def typed(query, schema) -> object:
    """``infer_types`` rendered exactly (union branch order included),
    or the type error it raises."""
    try:
        types = infer_types(query, schema)
    except QueryTypeError as exc:
        return ("error", str(exc))
    return [(type(variable).__name__, str(variable), str(tp))
            for variable, tp in types.items()]


def test_memo_equals_a_fresh_hierarchy_over_generated_cases():
    filled = DocumentStore(ARTICLE_DTD).schema
    generator = QueryGenerator(4242)
    for index in range(500):
        query = generator.case(index).query
        fresh = DocumentStore(ARTICLE_DTD).schema
        assert not fresh.hierarchy.path_matches
        assert typed(query, filled) == typed(query, fresh), index
    assert filled.hierarchy.path_matches


def test_paths_without_variables_and_impossible_paths():
    # a path that matches but binds nothing is not a path that never
    # holds — on the walk that fills the memo and on every later one
    schema = article_store().schema
    article = DataVar("a")
    for attribute, holds in (("title", True), ("no_such", False)):
        query = Query([article], And(
            In(article, Name("Articles")),
            PathAtom(article, PathTerm([Sel(attribute)]))))
        first, second = typed(query, schema), typed(query, schema)
        assert first == second
        assert (first[0] != "error") is holds, attribute


def variable_objects(node, found: list) -> list:
    """Every variable object occurring in a formula or term."""
    if isinstance(node, (DataVar, PathVar, AttVar)):
        found.append(node)
    elif isinstance(node, (list, tuple)):
        for item in node:
            variable_objects(item, found)
    elif hasattr(node, "__dict__"):
        for value in vars(node).values():
            variable_objects(value, found)
    return found


def test_candidates_are_keyed_by_the_querys_own_variables():
    store = article_store()
    engine = store._engine
    for text in TEXTS:
        infer_types(engine.translate(text), store.schema)  # fills
        query = engine.translate(text)
        own = {id(variable) for variable in
               variable_objects(query.formula, [])}
        candidates: dict = {}
        inference._walk_formula(query.formula, store.schema, candidates)
        assert candidates, text
        assert all(id(variable) in own for variable in candidates), text
    assert store.schema.hierarchy.path_matches


def test_a_second_cold_variant_types_its_path_zero_times(monkeypatch):
    calls = []
    real = inference._match_types

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(inference, "_match_types", counted)
    store = article_store()
    template = SPEC["cold_templates"]["att_variable"]
    store.query(template.format(p='"SGML" and "OODBMS"'))
    assert calls  # the first variant fills the memo
    calls.clear()
    store.query(template.format(p='"Documents" or "Queries"'))
    assert calls == []


def test_shapes_past_the_cap_are_typed_afresh(monkeypatch):
    store = article_store()
    engine = store._engine
    reference = [typed(engine.translate(text), store.schema)
                 for text in TEXTS]
    capped = article_store()
    monkeypatch.setattr(inference, "PATH_MATCH_MEMO_LIMIT", 0)
    for _ in range(2):
        assert [typed(engine.translate(text), capped.schema)
                for text in TEXTS] == reference
    assert not capped.schema.hierarchy.path_matches


def test_concurrent_fillers_agree():
    # serve workers type queries concurrently: every thread must see
    # the answers a sequential inference gives
    engine = article_store()._engine
    reference = [typed(engine.translate(text), engine.instance.schema)
                 for text in TEXTS]
    schema = article_store().schema
    workers = 6
    results, errors = [], []

    def worker():
        try:
            for _ in range(3):
                results.append([typed(engine.translate(text), schema)
                                for text in TEXTS])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker)
                   for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert results == [reference] * (3 * workers)
