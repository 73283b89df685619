"""The harness reaches plans only through a store's engine.

Three contracts of that: (1) the ``structural`` configuration is the
one the e2e benchmark measures — structural scans *plus* the cost
stage; (2) a seeded optimizer bug (every ``_TEST_MUTATION`` the
plancheck mutation tests know) surfaces as a divergence, because the
harness escalates the engine's ``"warn"`` verification policy;
(3) compile once, execute twice — the re-run is a plan-cache hit's
execution, not a second compile.
"""

import pytest

import repro.algebra.optimizer as optimizer
from repro.algebra.operators import IntervalJoinOp, UnionOp, walk_once
from repro.diffcheck import DiffHarness, QueryGenerator
from repro.diffcheck.generator import CorpusSpec
from repro.diffcheck.harness import RERUN
from repro.o2sql.engine import QueryEngine

SPEC = CorpusSpec(count=2, seed=5)


@pytest.fixture(scope="module")
def harness():
    return DiffHarness()


@pytest.fixture(scope="module")
def stores(harness):
    return harness.stores_for(SPEC)


@pytest.fixture(scope="module")
def attvar_query():
    """``{a, A0, X | a in Articles ∧ <a .A0 (X)>}``: an attribute
    variable fans out into one union branch per attribute — a union
    the structural rewrite does *not* remove, so the cost stage has
    branches to reorder in the structural plan too."""
    return QueryGenerator(4242).case(11).query


def _translate(stores, text):
    return stores["algebra"]._engine.translate(text)


class TestServedConfiguration:
    def test_structural_plan_is_costed(self, stores, attvar_query):
        entry = stores["structural"]._engine.compile(attvar_query)
        assert entry.plan.est_rows is not None
        assert entry.stats_generation is not None
        unions = [node for node in walk_once(entry.plan)
                  if isinstance(node, UnionOp)]
        assert any(len(union.branches) > 1
                   and union.cost_evidence is not None
                   for union in unions)

    def test_outcomes_are_config_by_run(self, harness, attvar_query):
        comparison = harness.compare(SPEC, attvar_query)
        assert list(comparison.outcomes) == [
            "calculus", "algebra", "algebra" + RERUN, "structural",
            "structural" + RERUN, "sql", "sql" + RERUN]
        assert not comparison.divergent, comparison.report()

    def test_rerun_executes_the_same_artifacts(self, harness,
                                               attvar_query,
                                               monkeypatch):
        compiled, executed = [], []
        compile_, execute = QueryEngine.compile, QueryEngine.execute

        def counting_compile(self, query, **options):
            entry = compile_(self, query, **options)
            compiled.append(entry)
            return entry

        def counting_execute(self, entry):
            executed.append(entry)
            return execute(self, entry)

        monkeypatch.setattr(QueryEngine, "compile", counting_compile)
        monkeypatch.setattr(QueryEngine, "execute", counting_execute)
        harness.compare(SPEC, attvar_query)
        assert len(compiled) == 3
        assert executed == [entry for entry in compiled
                            for _ in range(2)]


class TestSeededMutationsDiverge:
    """Each seeded rewrite bug reads as a divergence of exactly the
    configurations whose pipeline contains the broken stage."""

    def _divergent(self, harness, query, mutation, monkeypatch):
        assert not harness.compare(SPEC, query).divergent
        monkeypatch.setattr(optimizer, "_TEST_MUTATION", mutation)
        comparison = harness.compare(SPEC, query)
        assert all(comparison.outcomes[name].error
                   == "PlanVerificationWarning"
                   for name in comparison.divergent_configs())
        return {name.removesuffix(RERUN)
                for name in comparison.divergent_configs()}

    def test_unguarded_pushdown(self, harness, stores, monkeypatch):
        query = _translate(stores, "select t from a in Articles, "
                           "a PATH_p.title(t) where t = 'On Sets'")
        assert self._divergent(harness, query, "pushdown_unguarded",
                               monkeypatch) \
            == {"algebra", "structural", "sql"}

    def test_misbound_interval_probe(self, harness, stores, monkeypatch):
        query = _translate(stores, "select v from a in Articles, "
                           "b in Articles, a PATH_p(v), b PATH_q(v)")
        plan = stores["structural"]._engine.compile(query).plan
        assert any(isinstance(node, IntervalJoinOp)
                   for node in walk_once(plan))
        # only the structural pipelines fuse interval joins
        assert self._divergent(harness, query,
                               "interval_probe_misbound", monkeypatch) \
            == {"structural", "sql"}

    @pytest.mark.parametrize("mutation", ["branch_order_scrambled",
                                          "prune_nonempty_branch"])
    def test_cost_stage_seeds(self, harness, attvar_query, mutation,
                              monkeypatch):
        # the cost stage runs where the engine serves it: both algebra
        # stores (the sql backend compiles uncosted plans)
        assert self._divergent(harness, attvar_query, mutation,
                               monkeypatch) == {"algebra", "structural"}
