"""Property tests for the plancheck guarantees.

* Soundness of the gate: every plan the compiler produces from a
  fuzzer-generated query passes the verifier at stage ``compile``
  (the raw-compile gate — diffcheck itself only sees plans through a
  store's engine, whose optimizer verifies from the first rewrite
  on), and so does every stage of the plain and the structural
  pipeline (the gate never rejects a correct plan).
* The linter's headline guarantee: a lint-clean query text never
  raises :class:`SafetyError` at execution time.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DocumentStore
from repro.algebra.compile import compile_query
from repro.algebra.optimizer import optimize
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.diffcheck import QueryGenerator, generate_cases
from repro.errors import CompilationError, QueryError, SafetyError
from repro.plancheck import check_plan

#: every generated corpus is over the article DTD
_SCHEMA = DocumentStore(ARTICLE_DTD).schema


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_every_generated_plan_verifies(seed):
    for case in generate_cases(2, seed=seed):
        try:
            plan = compile_query(case.query, _SCHEMA,
                                 path_semantics="restricted")
        except CompilationError:
            continue  # statically rejected on both sides: no plan
        check_plan(plan, query=case.query, stage="compile")
        for structural in (False, True):
            optimize(plan, structural=structural, verify="raise",
                     query=case.query)


def test_raw_compile_gate_over_the_diffcheck_generator():
    """The compiler's own output verifies on every case the nightly
    generator seed produces first — the gate diffcheck used to run
    inside each comparison, as one deterministic sweep."""
    generator = QueryGenerator(4242)
    compiled = 0
    for index in range(300):
        query = generator.case(index).query
        try:
            plan = compile_query(query, _SCHEMA,
                                 path_semantics="restricted")
        except CompilationError:
            continue
        check_plan(plan, query=query, stage="compile")
        compiled += 1
    assert compiled > 250


# -- lint-clean queries never trip the safety check at run time -------------

_STORE = None


def _shared_store():
    global _STORE
    if _STORE is None:
        _STORE = DocumentStore(ARTICLE_DTD, backend="algebra")
        _STORE.load_text(SAMPLE_ARTICLE, name="my_article")
        _STORE.build_text_index()
    return _STORE


_ATTRS = st.sampled_from(["title", "status", "sections", "body",
                          "zzz_ghost", "figure"])
_COMPARISONS = st.sampled_from([None, "x = 'On Sets'", "x = 3",
                                "1 = 2", "'a' = 'a'"])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(attr=_ATTRS, comparison=_COMPARISONS,
       root=st.sampled_from(["a in Articles", "my_article"]))
def test_lint_clean_queries_execute_without_safety_error(
        attr, comparison, root):
    store = _shared_store()
    source = "a" if root.startswith("a ") else "my_article"
    text = f"select x from {root}, {source} PATH_p.{attr}(x)"
    if comparison:
        text += f" where {comparison}"
    diagnostics = store.lint(text)
    if any(d.is_error for d in diagnostics):
        # a dirty query may be rejected — that is the linter doing its
        # job; the property only constrains *clean* queries
        with pytest.raises(QueryError):
            store.query(text)
        return
    try:
        store.query(text)
    except SafetyError as exc:  # pragma: no cover - the property
        pytest.fail(f"lint-clean query raised SafetyError: {exc}")
