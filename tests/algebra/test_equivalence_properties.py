"""Property-based equivalence: calculus interpreter vs compiled algebra.

Hypothesis generates random path predicates over the Knuth_Books
database; for every generated query the compiled plan must return
exactly the interpreter's result — the central soundness/completeness
claim of the Section-5.4 algebraization.

The sweep takes tens of seconds, so it carries the ``bench`` marker
and stays out of the ``-m "not bench"`` inner loop; targeted
equivalence coverage remains there (tests/algebra/test_compile_execute
and tests/observe/test_backend_parity).
"""

from functools import lru_cache

import pytest

pytestmark = pytest.mark.bench
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.calculus import (
    AttVar,
    Bind,
    DataVar,
    Deref,
    EvalContext,
    Index,
    Name,
    PathAtom,
    PathTerm,
    PathVar,
    Query,
    Sel,
    SetBind,
    evaluate_query,
)
from repro.corpus.knuth import build_knuth_database
from repro.algebra.compile import compile_query
from repro.algebra.execute import execute_plan

DB = build_knuth_database()
CTX = EvalContext(DB)

ATTRIBUTES = ["volumes", "chapters", "title", "status", "sections",
              "review", "author", "body", "series"]


@st.composite
def path_components(draw):
    """A random component sequence with fresh variable names."""
    count = draw(st.integers(1, 5))
    components = []
    fresh = iter(range(100))
    bind_vars = 0
    for _ in range(count):
        kind = draw(st.sampled_from(
            ["pvar", "sel", "selvar", "index", "indexvar", "deref",
             "bind", "setbind"]))
        if kind == "pvar":
            components.append(PathVar(f"P{next(fresh)}"))
        elif kind == "sel":
            components.append(Sel(draw(st.sampled_from(ATTRIBUTES))))
        elif kind == "selvar":
            components.append(Sel(AttVar(f"A{next(fresh)}")))
        elif kind == "index":
            components.append(Index(draw(st.integers(0, 2))))
        elif kind == "indexvar":
            components.append(Index(DataVar(f"I{next(fresh)}")))
        elif kind == "deref":
            components.append(Deref())
        elif kind == "bind":
            components.append(Bind(DataVar(f"X{next(fresh)}")))
            bind_vars += 1
        else:
            components.append(SetBind(DataVar(f"S{next(fresh)}")))
            bind_vars += 1
    if bind_vars == 0:
        components.append(Bind(DataVar("Xlast")))
    return components


def _query_of(components) -> Query:
    atom = PathAtom(Name("Knuth_Books"), PathTerm(components))
    head = atom.path.variables()
    return Query(head, atom)


class TestRandomPathPredicates:
    """Both path-variable strategies: the §5.4 union-of-plans
    (``structural=False``) and the range scans, which run the live walk
    here (the context has no structural index)."""

    @given(path_components())
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_algebra_equals_calculus(self, components):
        query = _query_of(components)
        interpreted = evaluate_query(query, CTX)
        for structural in (False, True):
            plan = compile_query(query, DB.schema, structural=structural)
            assert execute_plan(plan, CTX) == interpreted, structural

    @given(path_components())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_optimized_plan_equals_calculus(self, components):
        from repro.algebra.optimizer import optimize
        query = _query_of(components)
        interpreted = evaluate_query(query, CTX)
        for structural in (False, True):
            plan = optimize(compile_query(query, DB.schema,
                                          structural=structural))
            assert execute_plan(plan, CTX) == interpreted, structural

    @given(path_components())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_evaluation_is_deterministic(self, components):
        query = _query_of(components)
        assert evaluate_query(query, CTX) == evaluate_query(query, CTX)


# -- factored-DAG differential over randomized corpora ----------------------

from repro import DocumentStore  # noqa: E402
from repro.corpus import ARTICLE_DTD  # noqa: E402
from repro.corpus.generator import generate_corpus  # noqa: E402
from repro.calculus.formulas import (  # noqa: E402
    And,
    Eq,
    Forall,
    Implies,
    In,
    Not,
)
from repro.calculus.terms import Const, ListTerm  # noqa: E402
from repro.algebra.optimizer import (  # noqa: E402
    optimize,
    sink_selections,
)

ARTICLE_ATTRIBUTES = ["title", "author", "sections", "status", "body",
                      "abstract", "subsectn", "paragr", "caption"]


def _refuse_mutation(*_args, **_kwargs):
    raise RuntimeError(
        "shared corpus store is frozen — one hypothesis example must "
        "not poison later ones; build a private DocumentStore instead")


@lru_cache(maxsize=None)
def corpus_store(size: int, seed: int,
                 structural: bool = False) -> DocumentStore:
    """A shared, *frozen* corpus store per (size, seed, strategy) —
    the union-of-plans unless ``structural`` is asked for.

    Execution always goes through ``engine.ctx.fork()``, and the
    loaders are disabled after construction, so examples can only read.
    """
    store = DocumentStore(ARTICLE_DTD, backend="algebra",
                          structural=structural)
    for tree in generate_corpus(size, seed=seed):
        store.load_tree(tree, validate=False)
    store.load_tree = _refuse_mutation
    store.load_text = _refuse_mutation
    return store


@st.composite
def article_components(draw):
    """Path components over the article schema (same shapes as
    path_components, different attribute vocabulary), with at most two
    path variables: a union-of-plans example with three or more can
    take a minute or more (each multiplies the schema-path fan-out);
    the nightly diffcheck's generator draws up to four."""
    count = draw(st.integers(1, 4))
    components = []
    fresh = iter(range(100))
    bind_vars = path_vars = 0
    kinds = ["pvar", "sel", "selvar", "index", "indexvar", "deref",
             "bind", "setbind"]
    for _ in range(count):
        kind = draw(st.sampled_from(kinds if path_vars < 2 else kinds[1:]))
        if kind == "pvar":
            path_vars += 1
            components.append(PathVar(f"P{next(fresh)}"))
        elif kind == "sel":
            components.append(Sel(draw(
                st.sampled_from(ARTICLE_ATTRIBUTES))))
        elif kind == "selvar":
            components.append(Sel(AttVar(f"A{next(fresh)}")))
        elif kind == "index":
            components.append(Index(draw(st.integers(0, 2))))
        elif kind == "indexvar":
            components.append(Index(DataVar(f"I{next(fresh)}")))
        elif kind == "deref":
            components.append(Deref())
        elif kind == "bind":
            components.append(Bind(DataVar(f"X{next(fresh)}")))
            bind_vars += 1
        else:
            components.append(SetBind(DataVar(f"S{next(fresh)}")))
            bind_vars += 1
    if bind_vars == 0:
        components.append(Bind(DataVar("Xlast")))
    return components


def _article_query(components, mode: str) -> Query:
    """``a ∈ Articles ∧ a PATH(...)`` plus an optional residual that
    forces a NegationOp or a quantifier FormulaOp fallback."""
    article = DataVar("a")
    atom = PathAtom(article, PathTerm(components))
    conjuncts = [In(article, Name("Articles")), atom]
    witness = (atom.path.variables() or [article])[-1]
    if mode == "negation":
        conjuncts.append(Not(Eq(witness, Const("draft"))))
    elif mode == "forall":
        probe = DataVar("q")
        conjuncts.append(Forall([probe], Implies(
            In(probe, ListTerm([witness])), Eq(probe, witness))))
    head = [article] + list(atom.path.variables())
    return Query(head, And(*conjuncts))


class TestFactoredDagDifferential:
    """Factored DAG plans must be observationally identical to the
    unfactored union-of-plans — on random corpora, random path shapes,
    and with NegationOp / quantifier FormulaOp residuals in the plan.

    Tier-1 draws a small, derandomized sample (15 examples each, the
    same ones every run): the property — factored/costed ≡ unfactored
    ≡ calculus on the ``algebra`` config — is what the nightly
    diffcheck (``.github/workflows/diffcheck-nightly.yml``, 3 × 2 000
    queries) samples in depth.
    """

    @given(components=article_components(),
           size=st.sampled_from([4, 9]),
           seed=st.sampled_from([3, 11]),
           mode=st.sampled_from(["plain", "negation", "forall"]))
    @settings(max_examples=15, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    def test_factored_equals_unfactored(self, components, size, seed,
                                        mode):
        store = corpus_store(size, seed)
        engine = store._engine
        query = _article_query(components, mode)
        plan = compile_query(query, engine.instance.schema,
                             path_semantics="restricted", structural=False)
        unfactored = sink_selections(plan)
        factored = optimize(plan)
        ctx = engine.ctx.fork()
        factored_result = execute_plan(factored, ctx)
        assert factored_result == execute_plan(unfactored, ctx)
        # full cross-backend agreement: the calculus interpreter is
        # the reference semantics (the Sel(AttVar)-over-union-content
        # divergence this once quarantined is fixed; the minimized
        # repro is tests/diffcheck/fixtures/sel_attvar_union_content
        # .json, replayed in tier 1)
        reference = evaluate_query(query, engine.ctx.fork())
        assert factored_result == reference

    @pytest.mark.parametrize("query", [
        "select t from my_article PATH_p.title(t)",
        'select name(ATT_a) from my_article PATH_p.ATT_a(val) '
        'where val contains ("final")',
        'select t from a in Articles, a PATH_p.title(t) '
        'where not a.status = "draft"',
    ])
    def test_factored_store_matches_calculus_store(self, query):
        """Both backends, end to end: a calculus store and an algebra
        store agree on the O2SQL surface queries over a generated
        corpus — the union-of-plans store (whose plans are factored
        DAGs) and the default range-scan store alike."""
        calculus = DocumentStore(ARTICLE_DTD, backend="calculus")
        for tree in generate_corpus(9, seed=3):
            calculus.load_tree(tree, validate=False)
        from repro.corpus import SAMPLE_ARTICLE
        if "my_article" in query:
            calculus.load_text(SAMPLE_ARTICLE, name="my_article")
        expected = calculus.query(query)
        for structural in (False, True):
            algebra = corpus_store(9, 3, structural)
            if "my_article" in query:
                algebra = DocumentStore(ARTICLE_DTD, backend="algebra",
                                        structural=structural)
                for tree in generate_corpus(9, seed=3):
                    algebra.load_tree(tree, validate=False)
                algebra.load_text(SAMPLE_ARTICLE, name="my_article")
            assert algebra.query(query) == expected, structural
