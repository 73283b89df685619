"""The engine's two halves: ``_artifacts`` is the text front end,
``compile``/``execute`` the back half a calculus query enters at.

``compile`` must be the *same* pipeline a ``store.query`` miss runs —
same plan, same SQL emission — and must not touch the plan cache;
``execute`` is what a cache hit does, repeatably.
"""

import sys
import warnings

import pytest

import repro.algebra.optimizer as optimizer
from repro import DocumentStore
from repro.algebra.compile import compile_query
from repro.algebra.optimizer import (
    factor_shared_prefixes,
    optimize,
    sink_selections,
)
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.plancheck import PlanVerificationWarning

QUERY = ('select t from a in Articles, a PATH_p.title(t) '
         'where a contains ("SGML")')


def build_store(**config):
    store = DocumentStore(ARTICLE_DTD, **config)
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    store.build_text_index()
    return store


@pytest.mark.parametrize("config", [
    {"backend": "calculus"},
    {"backend": "algebra", "structural": False},
    {"backend": "algebra"},
    {"backend": "sql", "structural": True},
], ids=["calculus", "algebra", "structural", "sql"])
class TestBackHalf:
    def test_compile_is_what_a_cache_miss_stores(self, config):
        store = build_store(**config)
        engine = store._engine
        compiled = engine.compile(engine.translate(QUERY))
        stored = engine.artifacts(QUERY)
        assert (compiled.plan is None) == (stored.plan is None) \
            == (config["backend"] == "calculus")
        if compiled.plan is not None:
            assert compiled.plan.describe() == stored.plan.describe()
        assert (compiled.sql_program is None) \
            == (stored.sql_program is None) \
            == (config["backend"] != "sql")

    def test_compile_leaves_the_plan_cache_alone(self, config):
        store = build_store(**config)
        engine = store._engine
        entry = engine.compile(engine.translate(QUERY))
        assert entry.key is None
        assert len(store.plan_cache) == 0

    def test_execute_is_repeatable_and_equals_query(self, config):
        store = build_store(**config)
        engine = store._engine
        entry = engine.compile(engine.translate(QUERY))
        first, second = engine.execute(entry), engine.execute(entry)
        assert first == second == store.query(QUERY)
        assert len(first) == 3


class TestCompileAnnotations:
    """The compile span's plan shape (``operators``, ``unions``,
    ``shared``) is computed only for a tracer that keeps it."""

    def test_an_untraced_compile_walks_no_plan(self, monkeypatch):
        import repro.algebra.operators as operators
        store = build_store(backend="algebra", structural=False)
        engine = store._engine
        walks = []
        walk_once = operators.walk_once

        def counting(*args, **kwargs):
            # only the engine's own walks (the optimizer has others)
            if sys._getframe(1).f_code is type(engine).compile.__code__:
                walks.append(1)
            return walk_once(*args, **kwargs)

        monkeypatch.setattr(operators, "walk_once", counting)
        engine.compile(engine.translate(QUERY))
        assert walks == []
        report = store.explain_analyze(QUERY)
        assert walks
        assert "operators=" in str(report) and "unions=" in str(report) \
            and "shared=" in str(report)


class TestStageFunctions:
    """``optimize`` is the composition of its public stage functions —
    the form a test or ablation that isolates one rewrite uses."""

    @pytest.mark.parametrize("structural", [False, True])
    def test_optimize_is_the_composition(self, structural):
        store = build_store(backend="algebra", structural=structural)
        query = store._engine.translate(QUERY)
        by_hand = factor_shared_prefixes(sink_selections(
            compile_query(query, store.schema, structural=structural)))
        whole = optimize(compile_query(query, store.schema,
                                       structural=structural),
                         verify="raise", query=query)
        assert by_hand.describe() == whole.describe()

    def test_unknown_policy_is_rejected(self):
        store = build_store(backend="algebra")
        plan = compile_query(store._engine.translate(QUERY), store.schema)
        for policy in ("off", "ignore"):
            with pytest.raises(ValueError):
                optimize(plan, verify=policy)


class TestWarnPolicyEscalation:
    TEXT = "select t from my_article PATH_p.title(t) where t = 'On Sets'"

    def test_warning_carries_the_stage_faults(self, monkeypatch):
        store = build_store(backend="algebra")
        expected = build_store(backend="calculus").query(self.TEXT)
        monkeypatch.setattr(optimizer, "_TEST_MUTATION",
                            "pushdown_unguarded")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # the last verified plan is served, and it is right
            assert store.query(self.TEXT) == expected
        [rejected] = [w.message for w in caught
                      if isinstance(w.message, PlanVerificationWarning)]
        assert {fault.code for fault in rejected.faults} == {"PC-UNBOUND"}
        assert {fault.stage for fault in rejected.faults} == {"pushdown"}

    def test_error_filter_turns_the_policy_into_raise(self, monkeypatch):
        store = build_store(backend="algebra")
        monkeypatch.setattr(optimizer, "_TEST_MUTATION",
                            "pushdown_unguarded")
        with warnings.catch_warnings():
            warnings.simplefilter("error", PlanVerificationWarning)
            with pytest.raises(PlanVerificationWarning) as raised:
                store.query(self.TEXT)
        assert raised.value.faults
        # nothing was cached on the way out
        assert len(store.plan_cache) == 0
