"""The harness reaches plans only through a store's engine.

Three contracts of that: (1) the ``structural`` configuration is the
one the e2e benchmark measures — structural scans, with the compiler's
fused interval joins; (2) a seeded compiler or optimizer bug (every
``_TEST_MUTATION`` the plancheck mutation tests know) surfaces as a
divergence, because the harness escalates the engine's ``"warn"``
verification policy;
(3) compile once, execute twice — the re-run is a plan-cache hit's
execution, not a second compile.
"""

import warnings

import pytest

import repro.algebra.compile as compiler
import repro.algebra.optimizer as optimizer
from repro.algebra.operators import (
    IntervalJoinOp,
    MakePathOp,
    StructuralAttrScanOp,
    UnionOp,
    walk_once,
)
from repro.diffcheck import DiffHarness, QueryGenerator
from repro.diffcheck.generator import CorpusSpec
from repro.diffcheck.harness import RERUN
from repro.o2sql.engine import QueryEngine
from repro.plancheck import PlanVerificationWarning

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
    the structural rewrite does *not* remove."""
    return QueryGenerator(4242).case(11).query


def _translate(stores, text):
    return stores["algebra"]._engine.translate(text)


class TestServedConfiguration:
    def test_algebra_config_compiles_the_fan_out(self, stores):
        # the paper-faithful reference is asked for by name; the served
        # configurations compile the range scan and no fan-out at all
        query = _translate(
            stores, "select t from a in Articles, a PATH_p.title(t)")

        def classes(config):
            plan = stores[config]._engine.compile(query).plan
            return {type(node) for node in walk_once(plan)}

        assert stores["algebra"]._engine.structural is False
        assert {UnionOp, MakePathOp} <= classes("algebra")
        for served in ("structural", "sql"):
            assert StructuralAttrScanOp in classes(served)
            assert MakePathOp not in classes(served)

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

    def _divergent(self, harness, query, mutation, monkeypatch,
                   module=optimizer):
        assert not harness.compare(SPEC, query).divergent
        monkeypatch.setattr(module, "_TEST_MUTATION", mutation)
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
        # only the structural pipelines fuse interval joins; the fault
        # is in the compiler's plan
        assert self._divergent(harness, query,
                               "interval_probe_misbound", monkeypatch,
                               module=compiler) \
            == {"structural", "sql"}
        with warnings.catch_warnings():
            warnings.simplefilter("error", PlanVerificationWarning)
            with pytest.raises(PlanVerificationWarning) as raised:
                stores["structural"]._engine.compile(query)
        faults = raised.value.faults
        assert {fault.stage for fault in faults} == {"compile"}
        assert {fault.code for fault in faults} & {"PC-JOIN", "PC-UNBOUND"}
